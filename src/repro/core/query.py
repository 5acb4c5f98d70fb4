"""Shared query representation for all indexes.

A query is an AND of per-dimension ranges (the paper §3: equality
predicates are ranges with lo == hi; disjunctions are decomposed upstream
into multiple queries). Unfiltered dimensions carry exactly (-inf, +inf);
any other range filters its dimension, so ``(inf, inf)`` matches the
+inf values and a range with a NaN bound matches no value.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

AGG_COUNT = "count"
AGG_SUM = "sum"


@dataclass(frozen=True)
class Query:
    """An AND-of-ranges filter plus an aggregation.

    ``ranges`` is a (d, 2) float array of inclusive [lo, hi] bounds per
    dimension; (-inf, +inf) marks an unfiltered dimension. ``agg`` is either
    ``"count"`` or ``"sum"``; for SUM, ``agg_dim`` names the aggregated
    column, one of ``0 .. d-1``.

    A query works out three facts once, when it is made, which every index,
    the store and the optimizer read: ``bounds``, one ``(lo, hi)`` of Python
    floats per dimension; ``filtered_dims``, the ascending tuple of the
    dimensions whose range is not exactly (-inf, +inf); and ``empty``: some
    range fails ``lo <= hi`` (inverted, or a NaN bound), so no row matches.
    """

    ranges: np.ndarray
    agg: str = AGG_COUNT
    agg_dim: int = 0

    def __post_init__(self) -> None:
        # a read-only copy, so the facts below cannot go stale
        object.__setattr__(self, "ranges", np.array(self.ranges, dtype=np.float64))
        self.ranges.flags.writeable = False
        if self.ranges.ndim != 2 or self.ranges.shape[1] != 2:
            raise ValueError(f"ranges must be (d, 2), got {self.ranges.shape}")
        if self.agg not in (AGG_COUNT, AGG_SUM):
            raise ValueError(f"unknown agg {self.agg!r}")
        if not 0 <= self.agg_dim < self.d:
            raise ValueError(f"agg_dim {self.agg_dim} is not a dimension of d={self.d}")
        los, his = self.ranges.T.tolist()  # Python floats beat numpy per element
        object.__setattr__(self, "bounds", tuple(zip(los, his)))
        object.__setattr__(self, "filtered_dims", tuple(
            [k for k, (lo, hi) in enumerate(self.bounds) if lo != -math.inf or hi != math.inf]))
        object.__setattr__(self, "empty", not all(map(operator.le, los, his)))

    @property
    def d(self) -> int:
        return self.ranges.shape[0]

    def filters(self, dim: int) -> bool:
        return dim in self.filtered_dims

    def mask(self, data: np.ndarray) -> np.ndarray:
        """Brute-force boolean match mask over an (n, d) matrix (test oracle)."""
        m = np.ones(data.shape[0], dtype=bool)
        for dim in self.filtered_dims:
            lo, hi = self.bounds[dim]
            m &= (data[:, dim] >= lo) & (data[:, dim] <= hi)
        return m


def query_from_dict(d: int, bounds: dict[int, tuple[float, float]],
                    agg: str = AGG_COUNT, agg_dim: int = 0) -> Query:
    """Build a Query over ``d`` dims filtering only the dims in ``bounds``."""
    r = np.full((d, 2), [-np.inf, np.inf], dtype=np.float64)
    for dim, (lo, hi) in bounds.items():
        r[dim] = (lo, hi)
    return Query(r, agg=agg, agg_dim=agg_dim)


@dataclass
class QueryResult:
    """Outcome of running one query through an index.

    The column store's scan makes the record and fills in what it counts
    and times (``value`` through ``n_ranges``, ``scan_time``); the index
    then adds what it measured itself: ``index_time``, ``n_cells`` and,
    for Flood, its phase times in ``extra``.

    Timing fields are in seconds; SO/TPS/ST/IT/TT for Table 2 derive from
    these: SO = n_scanned / n_matched, ST = scan_time, IT = index_time,
    TT = index_time + scan_time, TPS = scan_time / n_scanned.
    """

    value: float
    n_matched: int
    n_scanned: int
    index_time: float = 0.0
    scan_time: float = 0.0
    n_cells: int = 0
    n_exact: int = 0  # points scanned inside exact sub-ranges (§7.1)
    n_ranges: int = 0  # exact ranges plus slices read (touching inexact ranges: one)
    extra: dict = field(default_factory=dict)

    @property
    def total_time(self) -> float:
        return self.index_time + self.scan_time

    @property
    def scan_overhead(self) -> float:
        return self.n_scanned / max(1, self.n_matched)
