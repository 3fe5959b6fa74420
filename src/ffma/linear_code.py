"""Binary (n, k) linear block codes in systematic form.

Provides:

* ``LinearCode``, a parity-check matrix with the part P of its generator
  ``G = [I | P]``: girth-aware random LDPC construction (progressive edge
  growth with seeded tie-breaking) plus reduction to systematic form by
  GF(2) Gauss-Jordan elimination on bit-packed rows (the information
  section always occupies the first k coordinates), shortened on its
  trailing message bits;
* sum-product belief-propagation decoding in the log-likelihood domain,
  flooding schedule, early exit on a zero syndrome or on an exact
  message cycle, batched over many frames at once;
* alist text interchange for sparse parity-check matrices.

The decoder runs on one flat edge list in check order (Richardson &
Urbanke, *Modern Coding Theory*, ch. 2): edge e joins variable
``edge_var[e]`` to check ``edge_chk[e]``, and the checks' segments start
at ``chk_start``.  ``np.multiply.reduceat`` over them gives each check's
product of tanh(Lq/2); an edge's leave-one-out product is that product
divided by its own factor.  Exact zeros, counted only in batches that
have one, are left out of the product, so an erased edge (its check's
only zero) still receives the product of the rest.  Row v of
``var_slots`` holds column v's edge ids, padded with a constant -0.0
message, summed as slot 0 + (slot 1 + slot 2 + ...): reduceat's order
for up to 8 edges.  Syndromes XOR the hard decisions over
``chk_slots``, the check-side twin of ``var_slots``: row s holds each
check's s-th column, padded with ``n``, which reads an all-zero row.
Loop buffers are reallocated only on a squeeze.
A frame whose check messages repeat a snapshot bit for bit (Brent's cycle
detection, snapshots at iterations 8, 16, 32, ...) leaves at the iteration
whose decisions the full run would end on.

Bit/LLR conventions: codeword bits are 0/1; decoder inputs and internal
messages are log-likelihood ratios ``log(P(0)/P(1))`` clamped to +-40.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

LLR_CLAMP = 40.0
_MAX_ATTEMPTS = 20  # PEG graphs drawn, seeded (seed, attempt), before giving up


class ParityCheckMatrix:
    """Sparse GF(2) parity-check matrix stored as adjacency lists.

    Parameters
    ----------
    n : int
        Number of columns (codeword length).
    row_adj : sequence of sequences
        For each check row, the column indices with a 1.
    """

    def __init__(self, n: int, row_adj) -> None:
        self.n = int(n)
        self.row_adj = [np.unique(np.asarray(row, dtype=np.int64)) for row in row_adj]
        self.n_checks = len(self.row_adj)
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
        self.chk_start = np.cumsum(row_deg) - row_deg
        var_order = np.argsort(self.edge_var, kind="stable")
        var_start = np.cumsum(col_deg) - col_deg
        self.col_adj = np.split(self.edge_chk[var_order], var_start[1:])
        n_edges = self.edge_var.size
        rank = np.arange(n_edges) - np.repeat(var_start, col_deg)
        self.var_slots = np.full((self.n, int(col_deg.max())), n_edges)
        self.var_slots[self.edge_var[var_order], rank] = var_order
        chk_rank = np.arange(n_edges) - np.repeat(self.chk_start, row_deg)
        self.chk_slots = np.full((int(row_deg.max()), self.n_checks), self.n)
        self.chk_slots[chk_rank, self.edge_chk] = self.edge_var

    def to_dense(self) -> np.ndarray:
        dense = np.zeros((self.n_checks, self.n), dtype=np.uint8)
        dense[self.edge_chk, self.edge_var] = 1
        return dense

    def column_weights(self) -> np.ndarray:
        return np.array([cl.size for cl in self.col_adj], dtype=np.int64)


@dataclass
class LinearCode:
    """A systematic (n, k) code: a parity-check matrix and its generator [I | P].

    ``parity`` is the (k, n - k) part P.  ``col_perm[i]`` records which
    column of the originally constructed (or loaded) parity-check matrix
    sits at systematic position i; ``pcm`` is the permuted matrix.
    """

    pcm: ParityCheckMatrix
    parity: np.ndarray
    col_perm: np.ndarray
    _shortened: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.parity = np.asarray(self.parity, dtype=np.uint8)
        shape = (self.pcm.n - self.pcm.n_checks, self.pcm.n_checks)
        if self.parity.shape != shape:
            raise ValueError(
                f"parity part must be {shape[0]}x{shape[1]}, got {self.parity.shape}"
            )
        self._shortened = {self.k: self.pcm}

    @property
    def n(self) -> int:
        return self.pcm.n

    @property
    def k(self) -> int:
        return self.parity.shape[0]

    def shortened(self, n_sent: int) -> ParityCheckMatrix:
        """``pcm`` without the message columns [n_sent, k), whose bits are
        zero and not sent; the kept columns are renumbered in order.  No
        check loses all of its columns, since the parity part of ``pcm`` is
        invertible.  Cached per n_sent; ``shortened(k)`` is ``pcm`` itself.
        """
        if n_sent not in self._shortened:
            if not 0 <= n_sent <= self.k:
                raise ValueError(f"n_sent={n_sent} out of range [0, k={self.k}]")
            cut = self.k - n_sent
            self._shortened[n_sent] = ParityCheckMatrix(self.n - cut, [
                np.concatenate([row[row < n_sent], row[row >= self.k] - cut])
                for row in self.pcm.row_adj])
        return self._shortened[n_sent]

    @classmethod
    def generate(cls, n: int, k: int, col_weight: int = 3, seed: int = 0) -> "LinearCode":
        """Build a random near-regular LDPC code in systematic form.

        Edges are placed by progressive edge growth: each new edge goes to a
        check as far as possible (in graph distance) from the variable, with
        minimum-degree tie-breaks resolved by the seeded generator.  That
        keeps short cycles out and the check degrees nearly uniform.  After
        graph construction the matrix is put in systematic form; a column
        permutation moves the k information positions to the front.

        Raises ``ValueError`` for invalid dimensions or if every one of the
        ``_MAX_ATTEMPTS`` graphs was rank deficient.
        """
        if k >= n:
            raise ValueError(f"need k < n, got k={k}, n={n}")
        if k < 1:
            raise ValueError(f"need k >= 1, got k={k}")
        n_checks = n - k
        if col_weight < 2:
            raise ValueError(f"need col_weight >= 2, got {col_weight}")
        if col_weight > n_checks:
            raise ValueError(f"col_weight={col_weight} exceeds check count {n_checks}")

        for attempt in range(_MAX_ATTEMPTS):
            rng = np.random.default_rng((seed, attempt))
            chk_adj = _peg_graph(n, n_checks, col_weight, rng)
            code = _systematize(ParityCheckMatrix(n, chk_adj))
            if code is not None:
                return code
        raise ValueError(
            f"could not reach full rank in {_MAX_ATTEMPTS} attempts "
            f"(n={n}, k={k}, col_weight={col_weight}, seed={seed})"
        )

    @classmethod
    def from_alist(cls, path) -> "LinearCode":
        code = _systematize(load_alist(path))
        if code is None:
            raise ValueError(f"parity-check matrix in {path} is rank deficient")
        return code


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def _peg_graph(n: int, n_checks: int, col_weight: int, rng) -> list[list[int]]:
    """Progressive-edge-growth placement; returns per-check column lists."""
    chk_deg = np.zeros(n_checks, dtype=np.int64)
    var_adj: list[list[int]] = [[] for _ in range(n)]
    chk_adj: list[list[int]] = [[] for _ in range(n_checks)]

    for v in range(n):
        for t in range(col_weight):
            if t == 0:
                cand = np.flatnonzero(chk_deg == chk_deg.min()).tolist()
            else:
                cand = _peg_candidates(v, var_adj, chk_adj, n_checks)
                degs = chk_deg[cand].tolist()
                low = min(degs)
                cand = [c for c, d in zip(cand, degs) if d == low]
            c = cand[rng.integers(len(cand))]
            var_adj[v].append(c)
            chk_adj[c].append(v)
            chk_deg[c] += 1
    return chk_adj


def _peg_candidates(v: int, var_adj, chk_adj, n_checks: int) -> list[int]:
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


def _systematize(pcm: ParityCheckMatrix) -> LinearCode | None:
    """Permute columns so the code is systematic-first; derive G = [I | P].

    Gauss-Jordan runs on H bit-packed into little-endian 64-bit words
    (column c is bit c % 64 of word c // 64).  The reduced row-echelon
    form of a full-rank H is unique, so the pivots, P and the permutation
    do not depend on how the elimination is done.

    Returns None if the matrix does not have full row rank.
    """
    n, n_checks = pcm.n, pcm.n_checks
    rows = np.zeros((n_checks, (n + 63) // 64), dtype="<u8")
    np.bitwise_or.at(rows, (pcm.edge_chk, pcm.edge_var >> 6),
                     np.uint64(1) << (pcm.edge_var & 63).astype(np.uint64))

    # Gauss-Jordan to reduced row-echelon form, tracking pivot columns.
    # Row r is zero left of column col, so only words from col // 64 on change.
    pivots: list[int] = []
    r = 0
    for col in range(n):
        word, bit = col >> 6, np.uint64(1 << (col & 63))
        below = np.flatnonzero(rows[r:, word] & bit)
        if below.size == 0:
            continue
        piv = r + int(below[0])
        if piv != r:
            rows[[r, piv]] = rows[[piv, r]]
        hits = np.flatnonzero(rows[:, word] & bit)
        hits = hits[hits != r]
        rows[hits, word:] ^= rows[r, word:]
        pivots.append(col)
        r += 1
        if r == n_checks:
            break
    if r < n_checks:
        return None

    is_pivot = np.zeros(n, dtype=bool)
    is_pivot[pivots] = True
    info_cols = np.flatnonzero(~is_pivot)
    perm = np.concatenate([info_cols, pivots])
    new_pos = np.empty(n, dtype=np.int64)
    new_pos[perm] = np.arange(n)

    # Row i of the RREF reads v[pivot_i] = sum of the row's info columns,
    # so P[j, i] is bit info_cols[j] of row i.
    parity = rows.view(np.uint8).T[info_cols >> 3]
    parity >>= (info_cols & 7).astype(np.uint8)[:, None]
    parity &= 1

    permuted_rows = [new_pos[adj] for adj in pcm.row_adj]
    return LinearCode(ParityCheckMatrix(n, permuted_rows), parity, perm)


# ---------------------------------------------------------------------------
# Encoding / decoding
# ---------------------------------------------------------------------------

def encode(msg, code: LinearCode) -> np.ndarray:
    """Systematic encoding: codeword = (msg, msg @ P mod 2).

    ``msg`` may be a single message of length k or a (batch, k) array.
    """
    msg = np.asarray(msg)
    if msg.shape[-1] != code.k:
        raise ValueError(f"message length {msg.shape[-1]} != k={code.k}")
    parity = (msg.astype(np.int64) @ code.parity) & 1
    return np.concatenate([msg.astype(np.uint8), parity.astype(np.uint8)], axis=-1)


def bp_decode_batch(llr, pcm: ParityCheckMatrix, max_iter: int = 50) -> tuple[np.ndarray, np.ndarray]:
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
    ok = _checks_satisfied(hard, pcm) & ~(llr0 == 0).any(axis=1)
    conv = ok.copy()
    active = np.flatnonzero(~ok)
    if active.size == 0 or max_iter <= 0:
        return bits_out, conv

    # Message arrays carry one column past the last edge: in Lr it is the
    # -0.0 message that unused slots read.  mode="clip" lets np.take write
    # into `out` (every index is in range).
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
        np.multiply.reduceat(T[:, :-1], pcm.chk_start, axis=1, out=prod)
        np.take(prod, edge_chk, axis=1, out=Lr, mode="clip")
        Lr /= T
        if zero is not None:
            n_zero = np.add.reduceat(zero[:, :-1], pcm.chk_start, axis=1)[:, edge_chk]
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
        ok = _checks_satisfied(hard, pcm) & ~(post == 0).any(axis=1)
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


def _checks_satisfied(hard: np.ndarray, pcm: ParityCheckMatrix) -> np.ndarray:
    bits = np.zeros((pcm.n + 1, hard.shape[0]), dtype=np.uint8)
    bits[:pcm.n] = hard.T
    return ~np.bitwise_xor.reduce(bits[pcm.chk_slots], axis=0).any(axis=0)


# ---------------------------------------------------------------------------
# alist interchange
# ---------------------------------------------------------------------------

def save_alist(pcm: ParityCheckMatrix, path) -> None:
    """Write the matrix in alist format (1-based, zero-padded rows)."""
    col_deg = pcm.column_weights()
    row_deg = np.array([r.size for r in pcm.row_adj])
    cmax, rmax = int(col_deg.max()), int(row_deg.max())
    lines = [
        f"{pcm.n} {pcm.n_checks}",
        f"{cmax} {rmax}",
        " ".join(str(int(d)) for d in col_deg),
        " ".join(str(int(d)) for d in row_deg),
    ]
    for c in range(pcm.n):
        entries = [str(int(i) + 1) for i in pcm.col_adj[c]]
        entries += ["0"] * (cmax - len(entries))
        lines.append(" ".join(entries))
    for row in pcm.row_adj:
        entries = [str(int(c) + 1) for c in row]
        entries += ["0"] * (rmax - len(entries))
        lines.append(" ".join(entries))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_alist(path) -> ParityCheckMatrix:
    """Parse an alist file (padded or unpadded variants both accepted)."""
    with open(path) as fh:
        rows = [line.split() for line in fh if line.strip()]
    try:
        data = [[int(tok) for tok in row] for row in rows]
        n, n_checks = data[0]
        col_deg = data[2]
        if len(col_deg) != n:
            raise ValueError("column degree list length mismatch")
        if len(data) < 4 + n:
            raise ValueError("truncated column adjacency section")
        row_adj: list[list[int]] = [[] for _ in range(n_checks)]
        for c in range(n):
            entries = [e for e in data[4 + c] if e > 0]
            if len(entries) != col_deg[c]:
                raise ValueError(f"column {c} lists {len(entries)} checks, expected {col_deg[c]}")
            if len(set(entries)) != len(entries):
                raise ValueError(f"column {c} lists a check more than once")
            for e in entries:
                if not 1 <= e <= n_checks:
                    raise ValueError(f"column {c} references check {e} outside [1, {n_checks}]")
                row_adj[e - 1].append(c)
    except (IndexError, ValueError) as exc:
        raise ValueError(f"malformed alist file {path}: {exc}") from exc
    return ParityCheckMatrix(n, row_adj)
