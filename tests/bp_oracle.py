"""Padded-table reference for the edge-ordered decoder ``bp_decode_batch``.

Each check's and each variable's edges sit in one row of a padded index
table, with a mask for the unused slots.  The check update takes the
leave-one-out product of tanh(Lq/2) from prefix and suffix cumulative
products, so a zero factor never enters a division.
"""

import numpy as np

from ffma.linear_code import LLR_CLAMP, ParityCheckMatrix


class _DecodeContext:
    """Padded edge-index tables for the vectorized decoder."""

    def __init__(self, pcm: ParityCheckMatrix) -> None:
        n, n_chk = pcm.n, pcm.n_checks
        edge_var = np.concatenate(pcm.row_adj)
        n_edges = edge_var.size
        rmax = max(r.size for r in pcm.row_adj)
        by_check_eid = np.zeros((n_chk, rmax), dtype=np.int64)
        by_check_mask = np.zeros((n_chk, rmax), dtype=bool)
        eid = 0
        for i, row in enumerate(pcm.row_adj):
            by_check_eid[i, : row.size] = np.arange(eid, eid + row.size)
            by_check_mask[i, : row.size] = True
            eid += row.size

        cmax = max(cl.size for cl in pcm.col_adj)
        by_var_eid = np.zeros((n, cmax), dtype=np.int64)
        by_var_mask = np.zeros((n, cmax), dtype=bool)
        slots = np.zeros(n, dtype=np.int64)
        for e in range(n_edges):
            v = edge_var[e]
            by_var_eid[v, slots[v]] = e
            by_var_mask[v, slots[v]] = True
            slots[v] += 1

        self.edge_var = edge_var
        self.by_check_eid = by_check_eid
        self.by_check_mask = by_check_mask
        self.by_var_eid = by_var_eid
        self.by_var_mask = by_var_mask
        self.chk_vidx = edge_var[by_check_eid]
        self.n_edges = n_edges


def padded_bp_decode_batch(llr, pcm: ParityCheckMatrix, max_iter: int = 50):
    """Sum-product decoding of a (batch, n) block; returns (bits, converged)."""
    llr0 = np.asarray(llr, dtype=np.float64)
    if llr0.ndim != 2 or llr0.shape[1] != pcm.n:
        raise ValueError(f"llr must be (batch, {pcm.n}), got {llr0.shape}")
    ctx = _DecodeContext(pcm)
    llr0 = np.clip(llr0, -LLR_CLAMP, LLR_CLAMP)

    hard = (llr0 < 0).astype(np.uint8)
    bits_out = hard.copy()
    # Convergence needs a zero syndrome AND a decided value everywhere; an
    # LLR of exactly zero carries no decision (it defaults to 0).
    ok = _checks_satisfied(hard, ctx) & ~(llr0 == 0).any(axis=1)
    conv = ok.copy()
    active = np.flatnonzero(~ok)
    if active.size == 0 or max_iter == 0:
        return bits_out, conv

    L0 = llr0[active]
    Lq = L0[:, ctx.edge_var]
    hard = hard[active]
    for _ in range(max_iter):
        # Check-node update: leave-one-out products of tanh(Lq/2) via
        # prefix/suffix cumulative products (exact even with zeros).
        T = np.tanh(0.5 * Lq)[:, ctx.by_check_eid]
        T[:, ~ctx.by_check_mask] = 1.0
        left = np.cumprod(T, axis=2)
        right = np.cumprod(T[:, :, ::-1], axis=2)[:, :, ::-1]
        loo = np.ones_like(T)
        loo[:, :, 1:] = left[:, :, :-1]
        loo[:, :, :-1] *= right[:, :, 1:]
        vals = np.clip(loo[:, ctx.by_check_mask], -1.0, 1.0)
        with np.errstate(divide="ignore"):
            Lr = 2.0 * np.arctanh(vals)
        np.clip(Lr, -LLR_CLAMP, LLR_CLAMP, out=Lr)

        # Variable-node update and posterior.
        R = Lr[:, ctx.by_var_eid]
        R[:, ~ctx.by_var_mask] = 0.0
        post = L0 + R.sum(axis=2)
        Lq = post[:, ctx.edge_var] - Lr

        hard = (post < 0).astype(np.uint8)
        ok = _checks_satisfied(hard, ctx) & ~(post == 0).any(axis=1)
        if ok.any():
            done = active[ok]
            bits_out[done] = hard[ok]
            conv[done] = True
            keep = ~ok
            active = active[keep]
            if active.size == 0:
                break
            L0 = L0[keep]
            Lq = Lq[keep]
            hard = hard[keep]
    if active.size:
        bits_out[active] = hard
    return bits_out, conv


def _checks_satisfied(hard: np.ndarray, ctx: _DecodeContext) -> np.ndarray:
    gathered = hard[:, ctx.chk_vidx].astype(np.int32)
    gathered[:, ~ctx.by_check_mask] = 0
    parity = gathered.sum(axis=2) & 1
    return ~parity.any(axis=1)
