"""Synthetic TPC-H lineitem at a configurable scale factor.

SF=1.0 is roughly TPC-H SF1's 6M lineitem rows. Tests use SF<=0.01;
benchmarks use SF~=0.1. The generator is deterministic in ``seed`` so the
DuckDB oracle sees identical input.
"""
import numpy as np
import pandas as pd

_N_LINEITEM_PER_SF = 6_000_000
_N_ORDERS_PER_SF = 1_500_000
_N_PART_PER_SF = 200_000
#: day 0 of the date columns
EPOCH = "1992-01-01"


def lineitem_columns(sf: float = 0.01, seed: int = 0) -> dict[str, np.ndarray]:
    """lineitem as numpy columns, with the dates as days since :data:`EPOCH`.

    ``round(6e6 · sf)`` rows (at least one). Extended beyond the original
    TPC-H-lite columns with ``l_receiptdate`` and ``l_suppkey``: the paper's
    TPC-H workload (§7.3) filters ship date, receipt date, quantity,
    discount, order key, and supplier key."""
    n = max(1, round(_N_LINEITEM_PER_SF * sf))
    n_orders = max(1, int(_N_ORDERS_PER_SF * sf))
    n_part = max(1, int(_N_PART_PER_SF * sf))
    n_supp = max(1, int(10_000 * sf))
    g = np.random.default_rng(seed)
    shipdate = g.integers(0, 2557, n)
    return {
        "l_orderkey": g.integers(1, n_orders + 1, n),
        "l_partkey": g.integers(1, n_part + 1, n),
        "l_suppkey": g.integers(1, n_supp + 1, n),
        "l_linenumber": g.integers(1, 8, n),
        "l_quantity": g.integers(1, 51, n).astype("float64"),
        "l_extendedprice": (g.random(n) * 90000 + 900).round(2),
        "l_discount": (g.random(n) * 0.1).round(2),
        "l_tax": (g.random(n) * 0.08).round(2),
        "l_returnflag": g.choice(list("NRA"), n),
        "l_linestatus": g.choice(list("OF"), n),
        "l_shipdate": shipdate,
        # receipt follows ship by 1-30 days, as in TPC-H
        "l_receiptdate": shipdate + g.integers(1, 31, n),
    }


def lineitem_pdf(*, sf: float = 0.01, seed: int = 0) -> pd.DataFrame:
    """:func:`lineitem_columns` as pandas, with the dates as timestamps —
    the Spark tests and jobs read it."""
    cols = lineitem_columns(sf, seed)
    for k in ("l_shipdate", "l_receiptdate"):
        cols[k] = pd.to_datetime(EPOCH) + pd.to_timedelta(cols[k], unit="D")
    return pd.DataFrame(cols)
