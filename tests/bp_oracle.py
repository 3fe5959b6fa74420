"""Two references for the edge-major decoder ``bp_decode_batch``.

``padded_bp_decode_batch`` is an independent one.  Each check's and each
variable's edges sit in one row of a padded index table, with a mask for
the unused slots.  The check update takes the leave-one-out product of
tanh(Lq/2) from prefix and suffix cumulative products, so a zero factor
never enters a division.  It has no cycle exit.

``frame_major_bp_decode_batch`` is the decoder as it was before the
edge-major layout: its messages are (frames, edges) arrays and its check
product is ``np.multiply.reduceat``, and ``checks_satisfied`` takes its
(frames, n) decisions.  It does the same arithmetic in the same order, so
the two must agree bit for bit in the decisions and flags they return.
Its cycle exit is Brent's: one snapshot, moved to iterations 8, 16,
32, ..., and a frame found in a cycle keeps iterating until the iteration
in phase with max_iter - 1.  So it leaves later than ``bp_decode_batch``,
which must match it in what each frame returns, not in when it leaves.
"""

import numpy as np

from ffma.linear_code import LLR_CLAMP, ParityCheckMatrix


class _DecodeContext:
    """Padded edge-index tables for the vectorized decoder."""

    def __init__(self, pcm: ParityCheckMatrix) -> None:
        # Edge e joins column edge_var[e] to check edge_chk[e]; each check's
        # and each column's row of the tables lists its edges in edge order.
        n, n_chk = pcm.n, pcm.n_checks
        edge_var, edge_chk = pcm.edge_var, pcm.edge_chk
        n_edges = edge_var.size
        rmax = int(np.bincount(edge_chk, minlength=n_chk).max())
        cmax = int(np.bincount(edge_var, minlength=n).max())
        by_check_eid = np.zeros((n_chk, rmax), dtype=np.int64)
        by_check_mask = np.zeros((n_chk, rmax), dtype=bool)
        by_var_eid = np.zeros((n, cmax), dtype=np.int64)
        by_var_mask = np.zeros((n, cmax), dtype=bool)
        chk_fill = np.zeros(n_chk, dtype=np.int64)
        var_fill = np.zeros(n, dtype=np.int64)
        for e in range(n_edges):
            c, v = edge_chk[e], edge_var[e]
            by_check_eid[c, chk_fill[c]] = e
            by_check_mask[c, chk_fill[c]] = True
            chk_fill[c] += 1
            by_var_eid[v, var_fill[v]] = e
            by_var_mask[v, var_fill[v]] = True
            var_fill[v] += 1

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


def checks_satisfied(hard: np.ndarray, pcm: ParityCheckMatrix) -> np.ndarray:
    bits = np.zeros((pcm.n + 1, hard.shape[0]), dtype=np.uint8)
    bits[:pcm.n] = hard.T
    return ~np.bitwise_xor.reduce(bits[pcm.chk_slots], axis=0).any(axis=0)


def frame_major_bp_decode_batch(llr, pcm: ParityCheckMatrix, max_iter: int = 50) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized sum-product decoding of a (batch, n) block of frames.

    ``llr`` holds each coordinate's channel LLR ``log(P(0)/P(1))``,
    clamped to +-40.  Returns the (batch, n) hard decisions and a (batch,)
    flag telling whether each frame's syndrome was zero (its decisions are
    returned regardless).  Converged frames are squeezed out of the
    working set each iteration.

    So are frames caught in a message cycle, with the decisions the full
    run would return.  With L0 fixed, a frame's state after iteration t is
    its check messages Lr_t, and one iteration maps it to the next.  If
    Lr_t equals an earlier Lr_c bit for bit, the frame repeats with period
    p = t - c, and every state of the cycle has already failed the
    syndrome test.  The full run would end unconverged on the decisions of
    iteration t + ((max_iter - 1 - t) mod p), so the frame leaves there.
    """
    llr0 = np.asarray(llr, dtype=np.float64)
    if llr0.ndim != 2 or llr0.shape[1] != pcm.n:
        raise ValueError(f"llr must be (batch, {pcm.n}), got {llr0.shape}")
    llr0 = np.clip(llr0, -LLR_CLAMP, LLR_CLAMP)

    hard = (llr0 < 0).astype(np.uint8)
    bits_out = hard.copy()
    # Convergence needs a zero syndrome AND a decided value everywhere; an
    # LLR of exactly zero carries no decision (it defaults to 0).
    ok = checks_satisfied(hard, pcm) & ~(llr0 == 0).any(axis=1)
    conv = ok.copy()
    active = np.flatnonzero(~ok)
    if active.size == 0 or max_iter <= 0:
        return bits_out, conv

    # Message arrays carry one column past the last edge: in Lr it is the
    # -0.0 message that unused slots read.  mode="clip" lets np.take write
    # into `out` (every index is in range).
    chk_start = pcm.chk_edges[0]  # each check's first edge
    edge_var = np.append(pcm.edge_var, 0)
    edge_chk = np.append(pcm.edge_chk, 0)
    L0 = llr0[active]
    Lq = np.take(L0, edge_var, axis=1)
    Lr = np.empty(0)
    # Cycle exit: at iterations 8, 16, 32, ... (Brent's powers of two) Lr
    # is copied into `snap`, frame i's messages into row snap_row[i]; a
    # squeeze shrinks snap_row, not snap.  A frame found back in its
    # snapshot state leaves at iteration `leave`.
    snap, snap_at = None, 0
    snap_row, leave = np.arange(active.size), np.full(active.size, max_iter)
    for it in range(max_iter):
        if Lr.shape[0] != active.size:  # first pass, or frames squeezed out
            Lr = np.empty_like(Lq)
            prod = np.empty((active.size, pcm.n_checks))
            post, slot = np.empty_like(L0), np.empty_like(L0)

        # Check-node update: leave-one-out tanh products, zeros counted apart.
        # T = tanh(Lq/2) overwrites Lq, which is rebuilt from post below.
        T = np.tanh(np.multiply(Lq, 0.5, out=Lq), out=Lq)
        zero = None if T.all() else T == 0
        if zero is not None:
            T[zero] = 1.0
        np.multiply.reduceat(T[:, :-1], chk_start, axis=1, out=prod)
        np.take(prod, edge_chk, axis=1, out=Lr, mode="clip")
        Lr /= T
        if zero is not None:
            n_zero = np.add.reduceat(zero[:, :-1], chk_start, axis=1)[:, edge_chk]
            Lr[n_zero > zero] = 0.0
        np.clip(Lr, -1.0, 1.0, out=Lr)
        with np.errstate(divide="ignore"):
            np.arctanh(Lr, out=Lr)
        Lr *= 2.0
        np.clip(Lr, -LLR_CLAMP, LLR_CLAMP, out=Lr)
        Lr[:, -1] = -0.0

        # Bit-for-bit repeat of the snapshot: period it - snap_at, so the
        # full run would end on the decisions of the iteration in phase
        # with max_iter - 1.  The first 64 messages screen the frames.
        if snap is not None:
            head = snap[snap_row, :64].view(np.int64)
            maybe = np.flatnonzero((Lr[:, :64].view(np.int64) == head).all(axis=1))
            if maybe.size:
                whole = snap[snap_row[maybe]].view(np.int64)
                cycling = maybe[(Lr[maybe].view(np.int64) == whole).all(axis=1)]
                leave[cycling] = it + (max_iter - 1 - it) % (it - snap_at)
        if it >= 8 and it & (it - 1) == 0:
            if snap is None:
                snap = np.empty_like(Lr)
            snap[:active.size] = Lr
            snap_row = np.arange(active.size)
            snap_at = it

        # Variable-node update and posterior: L0 + (slot 0 + (slot 1 + ...)).
        post.fill(-0.0)
        for j in [*range(1, pcm.var_slots.shape[1]), 0]:
            post += np.take(Lr, pcm.var_slots[:, j], axis=1, out=slot, mode="clip")
        post += L0
        np.take(post, edge_var, axis=1, out=Lq, mode="clip")
        Lq -= Lr

        hard = (post < 0).view(np.uint8)
        ok = checks_satisfied(hard, pcm) & ~(post == 0).any(axis=1)
        done = ok | (leave == it)
        if done.any():
            bits_out[active[done]] = hard[done]
            conv[active[ok]] = True
            keep = ~done
            active = active[keep]
            if active.size == 0:
                break
            L0 = L0[keep]
            Lq = Lq[keep]
            hard = hard[keep]
            snap_row, leave = snap_row[keep], leave[keep]
    if active.size:
        bits_out[active] = hard
    return bits_out, conv
