"""The reference for ``ParityCheckMatrix`` and ``LinearCode.shortened``.

``RowMatrix`` builds the matrix one check at a time: ``np.unique`` sorts
and deduplicates each check's columns, and the edge list and slot tables
are read off the resulting rows.  ``ffma.linear_code.ParityCheckMatrix``
sorts and deduplicates all (check, column) pairs at once instead.  For
every valid input both must give the same arrays, and for every input
this reference refuses, the same error message.
"""

import numpy as np


class RowMatrix:
    """Per-row construction of a sparse GF(2) parity-check matrix."""

    def __init__(self, n: int, row_adj) -> None:
        self.n = int(n)
        self.row_adj = [np.unique(np.asarray(row, dtype=np.int64)) for row in row_adj]
        self.n_checks = len(self.row_adj)
        if not self.n_checks:
            raise ValueError("a parity-check matrix needs at least one check")
        row_deg = np.array([row.size for row in self.row_adj], dtype=np.int64)
        if (row_deg == 0).any():
            raise ValueError(f"check {np.argmin(row_deg)} has no connected columns")
        self.edge_var = np.concatenate(self.row_adj)
        self.edge_chk = np.repeat(np.arange(self.n_checks), row_deg)
        outside = (self.edge_var < 0) | (self.edge_var >= self.n)
        if outside.any():
            raise ValueError(f"check {self.edge_chk[outside][0]} references "
                             f"columns outside [0, {self.n})")
        col_deg = np.bincount(self.edge_var, minlength=self.n)
        if (col_deg == 0).any():
            empty = np.flatnonzero(col_deg == 0)[:8].tolist()
            raise ValueError(f"columns with no parity checks: {empty}")
        var_order = np.argsort(self.edge_var, kind="stable")
        var_start = np.cumsum(col_deg) - col_deg
        self.col_adj = np.split(self.edge_chk[var_order], var_start[1:])
        n_edges = self.edge_var.size
        rank = np.arange(n_edges) - np.repeat(var_start, col_deg)
        self.var_slots = np.full((self.n, int(col_deg.max())), n_edges)
        self.var_slots[self.edge_var[var_order], rank] = var_order
        chk_rank = np.arange(n_edges) - np.repeat(np.cumsum(row_deg) - row_deg, row_deg)
        self.chk_edges = np.full((int(row_deg.max()), self.n_checks), n_edges)
        self.chk_edges[chk_rank, self.edge_chk] = np.arange(n_edges)
        self.chk_slots = np.append(self.edge_var, self.n)[self.chk_edges]


def shortened(code, n_sent: int) -> RowMatrix:
    """``code.pcm`` without the message columns [n_sent, k), row by row."""
    cut = code.k - n_sent
    return RowMatrix(code.n - cut, [
        np.concatenate([row[row < n_sent], row[row >= code.k] - cut])
        for row in code.pcm.row_adj])
