"""The reference for ``ParityCheckMatrix`` and ``LinearCode.shortened``.

``RowMatrix`` builds the matrix one check at a time: ``np.unique`` sorts
and deduplicates each check's columns, and the edge list and slot tables
are read off the resulting rows.  ``ffma.linear_code.ParityCheckMatrix``
sorts and deduplicates all (check, column) pairs at once instead.  For
every valid input both must give the same arrays, and for every input
this reference refuses, the same error message.

``row_edges`` turns check rows into the (edge_chk, edge_var) arrays that
``ParityCheckMatrix(n, n_checks, edge_chk, edge_var)`` takes.
``row_adj``, ``col_adj`` and ``dense`` read a matrix's check rows, its
columns and its dense form off its edge list (``edge_chk``, ``edge_var``),
and ``write_alist`` writes it as an alist file, the format
``ffma.linear_code.load_alist`` reads.
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


def row_edges(rows) -> tuple[np.ndarray, np.ndarray]:
    """(edge_chk, edge_var) of check rows given as column sequences, in row
    order.  An empty row adds no edge, so its dtype (a float64 ``[]``) does
    not change the columns' dtype."""
    rows = [np.asarray(row).ravel() for row in rows]
    edge_chk = np.repeat(np.arange(len(rows)), [row.size for row in rows])
    full = [row for row in rows if row.size]
    return edge_chk, np.concatenate(full) if full else np.empty(0, np.int64)


def row_adj(pcm) -> list[np.ndarray]:
    """Each check's columns, in edge order (ascending)."""
    return [pcm.edge_var[pcm.edge_chk == c] for c in range(pcm.n_checks)]


def col_adj(pcm) -> list[np.ndarray]:
    """Each column's checks, in edge order (ascending)."""
    return [pcm.edge_chk[pcm.edge_var == v] for v in range(pcm.n)]


def dense(pcm) -> np.ndarray:
    """The (n_checks, n) 0/1 matrix."""
    H = np.zeros((pcm.n_checks, pcm.n), dtype=np.uint8)
    H[pcm.edge_chk, pcm.edge_var] = 1
    return H


def write_alist(pcm, path) -> None:
    """Write the matrix in alist format (1-based, rows zero-padded)."""
    cols, rows = col_adj(pcm), row_adj(pcm)
    cmax, rmax = max(c.size for c in cols), max(r.size for r in rows)
    lines = [f"{pcm.n} {pcm.n_checks}", f"{cmax} {rmax}",
             " ".join(str(c.size) for c in cols), " ".join(str(r.size) for r in rows)]
    for adj, width in ((cols, cmax), (rows, rmax)):
        lines += [" ".join(str(i) for i in np.pad(a + 1, (0, width - a.size))) for a in adj]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def shortened(code, n_sent: int) -> RowMatrix:
    """``code.pcm`` without the message columns [n_sent, k), row by row."""
    cut = code.k - n_sent
    return RowMatrix(code.n - cut, [
        np.concatenate([row[row < n_sent], row[row >= code.k] - cut])
        for row in row_adj(code.pcm)])
