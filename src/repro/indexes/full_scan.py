"""Full scan baseline (§7.2(1)): every point visited, only filtered columns read."""
from __future__ import annotations

import numpy as np

from repro.columnstore.store import ColumnStore
from repro.core.query import Query
from repro.indexes.base import BaseIndex


class FullScan(BaseIndex):
    name = "full_scan"

    def _build(self, data: np.ndarray, workload: list[Query]) -> None:
        self.store = ColumnStore(data)

    def _ranges(self, q: Query):
        return np.array([0]), np.array([self.n]), np.array([False]), 0
