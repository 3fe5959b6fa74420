"""Binary (n, k) linear block codes in systematic form.

Provides:

* girth-aware random LDPC construction (progressive edge growth with
  seeded tie-breaking) plus reduction to systematic form ``G = [I | P]``
  by GF(2) Gaussian elimination (columns are permuted so the information
  section always occupies the first k coordinates);
* sum-product belief-propagation decoding in the log-likelihood domain,
  flooding schedule, early exit on a zero syndrome, batched over many
  frames at once;
* alist text interchange for sparse parity-check matrices.

Bit/LLR conventions: codeword bits are 0/1; decoder inputs are per-bit
probabilities that the bit equals 1; internally messages are
``log(P(0)/P(1))`` clamped to +-40.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LLR_CLAMP = 40.0


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
        self.row_adj = [np.array(sorted(set(int(c) for c in row)), dtype=np.int64)
                        for row in row_adj]
        self.n_checks = len(self.row_adj)
        col_lists: list[list[int]] = [[] for _ in range(self.n)]
        for i, row in enumerate(self.row_adj):
            if row.size == 0:
                raise ValueError(f"check {i} has no connected columns")
            if row[0] < 0 or row[-1] >= self.n:
                raise ValueError(f"check {i} references columns outside [0, {self.n})")
            for c in row:
                col_lists[c].append(i)
        self.col_adj = [np.array(cl, dtype=np.int64) for cl in col_lists]
        empty = [c for c, cl in enumerate(self.col_adj) if cl.size == 0]
        if empty:
            raise ValueError(f"columns with no parity checks: {empty[:8]}")
        self._ctx: _DecodeContext | None = None

    @classmethod
    def from_dense(cls, matrix) -> "ParityCheckMatrix":
        matrix = np.asarray(matrix)
        return cls(matrix.shape[1], [np.flatnonzero(r) for r in matrix])

    def to_dense(self) -> np.ndarray:
        dense = np.zeros((self.n_checks, self.n), dtype=np.uint8)
        for i, row in enumerate(self.row_adj):
            dense[i, row] = 1
        return dense

    def column_weights(self) -> np.ndarray:
        return np.array([cl.size for cl in self.col_adj], dtype=np.int64)

    def _decode_context(self) -> "_DecodeContext":
        if self._ctx is None:
            self._ctx = _DecodeContext(self)
        return self._ctx


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


@dataclass
class SystematicGenerator:
    """Generator ``[I | P]`` of a systematic (n, k) code.

    ``col_perm[i]`` records which column of the originally constructed
    (or loaded) parity-check matrix sits at systematic position i; the
    matching permuted matrix is the one bundled alongside this generator.
    """

    k_total: int
    n: int
    parity: np.ndarray
    col_perm: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.parity = np.asarray(self.parity, dtype=np.uint8)
        if self.parity.shape != (self.k_total, self.n - self.k_total):
            raise ValueError(
                f"parity part must be {self.k_total}x{self.n - self.k_total}, "
                f"got {self.parity.shape}"
            )


@dataclass
class LinearCode:
    """A parity-check matrix with its systematic generator."""

    pcm: ParityCheckMatrix
    gen: SystematicGenerator

    @property
    def n(self) -> int:
        return self.gen.n

    @property
    def k(self) -> int:
        return self.gen.k_total

    @classmethod
    def generate(cls, n: int, k: int, col_weight: int = 3, seed: int = 0) -> "LinearCode":
        pcm, gen = ldpc_construct(n, k, col_weight=col_weight, seed=seed)
        return cls(pcm, gen)

    @classmethod
    def from_alist(cls, path) -> "LinearCode":
        pcm = load_alist(path)
        k = pcm.n - pcm.n_checks
        out = _systematize(pcm, k)
        if out is None:
            raise ValueError(f"parity-check matrix in {path} is rank deficient")
        return cls(*out)


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def ldpc_construct(
    n: int,
    k: int,
    col_weight: int = 3,
    seed: int = 0,
    max_attempts: int = 20,
) -> tuple[ParityCheckMatrix, SystematicGenerator]:
    """Build a random near-regular LDPC code in systematic form.

    Edges are placed by progressive edge growth: each new edge goes to a
    check as far as possible (in graph distance) from the variable, with
    minimum-degree tie-breaks resolved by the seeded generator.  That
    keeps short cycles out and the check degrees nearly uniform.  After
    graph construction the matrix is put in systematic form; a column
    permutation moves the k information positions to the front.

    Raises ``ValueError`` for invalid dimensions or if every attempt in
    the retry budget produced a rank-deficient matrix.
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

    for attempt in range(max_attempts):
        rng = np.random.default_rng((seed, attempt))
        chk_adj = _peg_graph(n, n_checks, col_weight, rng)
        pcm = ParityCheckMatrix(n, chk_adj)
        out = _systematize(pcm, k)
        if out is not None:
            return out
    raise ValueError(
        f"could not reach full rank in {max_attempts} attempts "
        f"(n={n}, k={k}, col_weight={col_weight}, seed={seed})"
    )


def _peg_graph(n: int, n_checks: int, col_weight: int, rng) -> list[list[int]]:
    """Progressive-edge-growth placement; returns per-check column lists."""
    chk_deg = np.zeros(n_checks, dtype=np.int64)
    var_adj: list[list[int]] = [[] for _ in range(n)]
    chk_adj: list[list[int]] = [[] for _ in range(n_checks)]

    for v in range(n):
        for t in range(col_weight):
            if t == 0:
                cand = np.flatnonzero(chk_deg == chk_deg.min())
            else:
                cand = _peg_candidates(v, var_adj, chk_adj, n_checks)
                degs = chk_deg[cand]
                cand = cand[degs == degs.min()]
            c = int(cand[rng.integers(cand.size)])
            var_adj[v].append(c)
            chk_adj[c].append(v)
            chk_deg[c] += 1
    return chk_adj


def _peg_candidates(v: int, var_adj, chk_adj, n_checks: int) -> np.ndarray:
    """Checks at maximal distance from v in the current graph.

    Breadth-first expansion from v; stops when the reached check set
    saturates (candidates = the unreachable checks) or covers everything
    (candidates = the checks first reached in the final level).
    """
    covered = np.zeros(n_checks, dtype=bool)
    visited = np.zeros(len(var_adj), dtype=bool)
    visited[v] = True
    frontier = [v]
    n_covered = 0

    while True:
        new_checks = []
        for u in frontier:
            for c in var_adj[u]:
                if not covered[c]:
                    covered[c] = True
                    new_checks.append(c)
        if not new_checks:
            return np.flatnonzero(~covered)
        n_covered += len(new_checks)
        if n_covered == n_checks:
            return np.asarray(new_checks, dtype=np.int64)
        frontier = []
        for c in new_checks:
            for u in chk_adj[c]:
                if not visited[u]:
                    visited[u] = True
                    frontier.append(u)
        if not frontier:
            return np.flatnonzero(~covered)


def _systematize(
    pcm: ParityCheckMatrix, k: int
) -> tuple[ParityCheckMatrix, SystematicGenerator] | None:
    """Permute columns so the code is systematic-first; derive G = [I | P].

    Returns None if the matrix does not have full row rank.
    """
    n, n_checks = pcm.n, pcm.n_checks
    rows = []
    for adj in pcm.row_adj:
        mask = 0
        for c in adj:
            mask |= 1 << int(c)
        rows.append(mask)

    # Gauss-Jordan to reduced row-echelon form, tracking pivot columns.
    pivots: list[int] = []
    r = 0
    for col in range(n):
        bit = 1 << col
        piv = None
        for i in range(r, n_checks):
            if rows[i] & bit:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rr = rows[r]
        for i in range(n_checks):
            if i != r and (rows[i] & bit):
                rows[i] ^= rr
        pivots.append(col)
        r += 1
        if r == n_checks:
            break
    if r < n_checks:
        return None

    pivot_set = set(pivots)
    info_cols = [c for c in range(n) if c not in pivot_set]
    perm = np.array(info_cols + pivots, dtype=np.int64)
    new_pos = np.empty(n, dtype=np.int64)
    new_pos[perm] = np.arange(n)

    # Row i of the RREF reads v[pivot_i] = sum of the row's info columns.
    info_pos = {c: idx for idx, c in enumerate(info_cols)}
    parity = np.zeros((k, n_checks), dtype=np.uint8)
    for i, (p, row) in enumerate(zip(pivots, rows)):
        rest = row & ~(1 << p)
        while rest:
            low = rest & -rest
            parity[info_pos[low.bit_length() - 1], i] = 1
            rest ^= low

    permuted_rows = [new_pos[adj] for adj in pcm.row_adj]
    pcm_sys = ParityCheckMatrix(n, permuted_rows)
    gen = SystematicGenerator(k_total=k, n=n, parity=parity, col_perm=perm)
    return pcm_sys, gen


# ---------------------------------------------------------------------------
# Encoding / decoding
# ---------------------------------------------------------------------------

def encode(msg, gen: SystematicGenerator) -> np.ndarray:
    """Systematic encoding: codeword = (msg, msg @ P mod 2).

    ``msg`` may be a single message of length k or a (batch, k) array.
    """
    msg = np.asarray(msg)
    if msg.shape[-1] != gen.k_total:
        raise ValueError(f"message length {msg.shape[-1]} != k={gen.k_total}")
    parity = (msg.astype(np.int64) @ gen.parity) & 1
    return np.concatenate([msg.astype(np.uint8), parity.astype(np.uint8)], axis=-1)


def bp_decode_batch(priors, pcm: ParityCheckMatrix, max_iter: int = 50) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized sum-product decoding of a (batch, n) block of frames.

    ``priors`` holds each coordinate's probability that the bit is 1.
    Returns the (batch, n) hard decisions and a (batch,) flag telling
    whether each frame's syndrome was zero (its decisions are returned
    regardless).  Converged frames are squeezed out of the working set
    each iteration, so the cost is dominated by the hardest frames.
    """
    P1 = np.asarray(priors, dtype=np.float64)
    if P1.ndim != 2 or P1.shape[1] != pcm.n:
        raise ValueError(f"priors must be (batch, {pcm.n}), got {P1.shape}")
    ctx = pcm._decode_context()
    B = P1.shape[0]

    with np.errstate(divide="ignore"):
        llr0 = np.log1p(-P1) - np.log(P1)
    llr0 = np.clip(llr0, -LLR_CLAMP, LLR_CLAMP)

    hard = (llr0 < 0).astype(np.uint8)
    bits_out = hard.copy()
    # Convergence needs a zero syndrome AND a decided value everywhere; a
    # posterior of exactly zero carries no decision (it defaults to 0).
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
            for e in entries:
                if not 1 <= e <= n_checks:
                    raise ValueError(f"column {c} references check {e} outside [1, {n_checks}]")
                row_adj[e - 1].append(c)
    except (IndexError, ValueError) as exc:
        raise ValueError(f"malformed alist file {path}: {exc}") from exc
    return ParityCheckMatrix(n, row_adj)
