"""The reference for ``linear_code._peg_graph``.

``peg_graph`` is progressive edge growth with one breadth-first search
per edge, from the edge's variable over the variable and check adjacency
lists, each variable visited once.  ``linear_code._peg_graph`` expands
its search one check level at a time over check-to-check walk lists
instead.  Both must find the same candidates in the same order, so with
the same generator they draw the same numbers and build the same graph:
the per-check lists must agree exactly.
"""

import numpy as np


def peg_graph(n: int, n_checks: int, col_weight: int, rng) -> list[list[int]]:
    """Progressive-edge-growth placement; returns per-check column lists."""
    chk_deg = np.zeros(n_checks, dtype=np.int64)
    var_adj: list[list[int]] = [[] for _ in range(n)]
    chk_adj: list[list[int]] = [[] for _ in range(n_checks)]

    for v in range(n):
        for t in range(col_weight):
            if t == 0:
                cand = np.flatnonzero(chk_deg == chk_deg.min()).tolist()
            else:
                cand = peg_candidates(v, var_adj, chk_adj, n_checks)
                degs = chk_deg[cand].tolist()
                low = min(degs)
                cand = [c for c, d in zip(cand, degs) if d == low]
            c = cand[rng.integers(len(cand))]
            var_adj[v].append(c)
            chk_adj[c].append(v)
            chk_deg[c] += 1
    return chk_adj


def peg_candidates(v: int, var_adj, chk_adj, n_checks: int) -> list[int]:
    """Checks at maximal distance from v in the current graph.

    Breadth-first expansion from v; stops when the reached check set
    saturates (candidates = the unreachable checks, in order) or covers
    everything (candidates = the checks first reached in the final level,
    in discovery order).
    """
    covered = bytearray(n_checks)
    visited = bytearray(len(var_adj))
    visited[v] = 1
    frontier = [v]
    n_covered = 0

    while True:
        new_checks = []
        for u in frontier:
            for c in var_adj[u]:
                if not covered[c]:
                    covered[c] = 1
                    new_checks.append(c)
        if not new_checks:
            break
        n_covered += len(new_checks)
        if n_covered == n_checks:
            return new_checks
        frontier = []
        for c in new_checks:
            for u in chk_adj[c]:
                if not visited[u]:
                    visited[u] = 1
                    frontier.append(u)
        if not frontier:
            break
    return [c for c in range(n_checks) if not covered[c]]
