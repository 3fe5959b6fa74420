"""Binary (n, k) linear block codes in systematic form.

Provides:

* ``LinearCode``, a parity-check matrix with the part P of its generator
  ``G = [I | P]``: girth-aware random LDPC construction (progressive edge
  growth with seeded tie-breaking) plus reduction to systematic form by
  GF(2) Gauss-Jordan elimination on bit-packed rows (the information
  section always occupies the first k coordinates), shortened on its
  trailing message bits;
* sum-product belief-propagation decoding in the log-likelihood domain,
  flooding schedule, batched over many frames, each leaving on a zero
  syndrome or at the iteration cap (earlier on an exact message cycle);
* reading a sparse parity-check matrix from an alist text file.

The PEG (progressive edge growth) search runs over check-to-check walk
lists: check c's list joins, for each of its variables u in ascending
order, u's other checks in the order they were placed.  A search level
is the unreached entries of its checks' lists, in the order each first
appears.  That is the order of a search that expands each variable once:
a variable met earlier adds only checks already reached, and c is
reached before its own list is read.  Placing edge (v, c) changes only
the lists' ends, since v is the newest variable of each of its checks.

The decoder runs on one flat edge list in check order (Richardson &
Urbanke, *Modern Coding Theory*, ch. 2): edge e joins variable
``edge_var[e]`` to check ``edge_chk[e]``.  Its messages are stored
edge-major, one row per edge and one column per frame, with one more row
for a sentinel edge, so every gather (``np.take`` along axis 0) copies
whole rows.  Row s of ``chk_edges`` holds each check's s-th edge,
padded with the sentinel, whose factor is 1.0; multiplying the rows of
tanh(Lq/2) left to right gives each check's product in the order of its
edges, bit for bit what ``np.multiply.reduceat`` gives over the check's
segment.  An edge's leave-one-out product is that product divided by its
own factor.  Exact zeros, looked for only when a check's product is 0,
are left out of the product, so an erased edge (its check's only zero)
still receives the product of the rest.  Row v of ``var_slots`` holds
column v's edge ids, padded with the sentinel, whose message is -0.0,
summed as slot 0 + (slot 1 + slot 2 + ...): numpy's order for a sum of
up to 8 terms.  Syndromes XOR the decisions, an (n + 1, frames) array
whose row n stays 0, over ``chk_slots``: the columns of ``chk_edges``'
edges, padded with ``n``.  Loop buffers are reallocated only on a squeeze.
A frame whose check messages repeat a snapshot bit for bit leaves after
the pass that finds the repeat, with the decisions the full run would end
on.  Snapshots are taken at iterations 8, 12, 16, 24, 32, 48, ... and all
kept (cut down as their frames leave); a fingerprint of each frame's
messages picks the frames worth comparing in full, and the decisions of
every iteration from 8 on are kept packed, one bit per coordinate and
frame.

Bit/LLR conventions: codeword bits are 0/1; decoder inputs and internal
messages are log-likelihood ratios ``log(P(0)/P(1))`` clamped to +-40.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

LLR_CLAMP = 40.0
_MAX_ATTEMPTS = 20  # PEG graphs drawn, seeded (seed, attempt), before giving up


class ParityCheckMatrix:
    """Sparse GF(2) parity-check matrix stored as one sorted edge list.

    Parameters
    ----------
    n : int
        Number of columns (codeword length).
    row_adj : sequence of integer sequences
        For each check row, the column indices with a 1 (any order;
        repeats count once).

    Edge e joins column ``edge_var[e]`` to check ``edge_chk[e]``; the
    edges run in check order, each check's columns ascending.
    """

    def __init__(self, n: int, row_adj) -> None:
        rows = [np.asarray(row).ravel() for row in row_adj]
        if not rows:
            raise ValueError("a parity-check matrix needs at least one check")
        for c, row in enumerate(rows):
            if row.size and row.dtype.kind not in "iu":
                raise ValueError(f"check {c} lists non-integer columns ({row.dtype})")
        edge_chk = np.repeat(np.arange(len(rows)), [row.size for row in rows])
        self._index(n, len(rows), edge_chk, np.concatenate(rows).astype(np.int64, copy=False))

    @classmethod
    def _from_edges(cls, n: int, n_checks: int, edge_chk, edge_var) -> "ParityCheckMatrix":
        """The matrix of (check, column) pairs given as two arrays, any order."""
        pcm = cls.__new__(cls)
        pcm._index(n, n_checks, edge_chk, edge_var)
        return pcm

    def _index(self, n: int, n_checks: int, edge_chk, edge_var) -> None:
        """Check the edges, sort and deduplicate them, and build the slot tables."""
        self.n, self.n_checks = int(n), n_checks
        order = np.lexsort((edge_var, edge_chk))
        edge_chk, edge_var = edge_chk[order], edge_var[order]
        first = np.ones(edge_var.size, dtype=bool)  # each (check, column) pair's first copy
        first[1:] = (np.diff(edge_chk) != 0) | (np.diff(edge_var) != 0)
        edge_chk, edge_var = edge_chk[first], edge_var[first]
        self.edge_chk, self.edge_var = edge_chk, edge_var
        row_deg = np.bincount(edge_chk, minlength=n_checks)
        if (row_deg == 0).any():
            raise ValueError(f"check {np.argmin(row_deg)} has no connected columns")
        outside = (edge_var < 0) | (edge_var >= self.n)
        if outside.any():
            raise ValueError(f"check {edge_chk[outside][0]} references "
                             f"columns outside [0, {self.n})")
        col_deg = np.bincount(edge_var, minlength=self.n)
        if (col_deg == 0).any():
            empty = np.flatnonzero(col_deg == 0)[:8].tolist()
            raise ValueError(f"columns with no parity checks: {empty}")
        var_order = np.argsort(edge_var, kind="stable")
        var_start = np.cumsum(col_deg) - col_deg
        n_edges = edge_var.size
        rank = np.arange(n_edges) - np.repeat(var_start, col_deg)
        self.var_slots = np.full((self.n, int(col_deg.max())), n_edges)
        self.var_slots[edge_var[var_order], rank] = var_order
        chk_rank = np.arange(n_edges) - np.repeat(np.cumsum(row_deg) - row_deg, row_deg)
        self.chk_edges = np.full((int(row_deg.max()), n_checks), n_edges)
        self.chk_edges[chk_rank, edge_chk] = np.arange(n_edges)
        self.chk_slots = np.append(edge_var, self.n)[self.chk_edges]


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
            var = self.pcm.edge_var
            keep = (var < n_sent) | (var >= self.k)
            var = var[keep]
            self._shortened[n_sent] = ParityCheckMatrix._from_edges(
                self.n - cut, self.pcm.n_checks, self.pcm.edge_chk[keep],
                np.where(var >= self.k, var - cut, var))
        return self._shortened[n_sent]

    @classmethod
    def generate(cls, n: int, k: int, col_weight: int = 3, seed: int = 0) -> "LinearCode":
        """Build a random near-regular LDPC code in systematic form.

        Edges are placed by progressive edge growth: each new edge goes to a
        check as far as possible (in graph distance) from the variable, with
        minimum-degree tie-breaks resolved by the seeded generator.  That
        keeps short cycles out and the check degrees nearly uniform.  The
        breadth-first search runs over check-to-check walk lists, which keep
        its order over the Tanner graph (see the module docstring).  After
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
        if not isinstance(seed, (int, np.integer)) or seed < 0:
            raise ValueError(f"seed must be an integer >= 0, got {seed!r}")

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
    """Progressive-edge-growth placement; returns per-check column lists.

    Row c of ``hop`` is c's walk list (see the module docstring), padded
    with n_checks, which every search counts as reached.  ``key[c]`` is c's
    first position in the current search, read off ``pos``, which counts
    down; 0 means not reached, and each search resets the checks it reached.
    """
    chk_deg = np.zeros(n_checks, dtype=np.int64)
    var_adj: list[list[int]] = [[] for _ in range(n)]
    chk_adj: list[list[int]] = [[] for _ in range(n_checks)]
    hop = np.full((n_checks + 1, 0), n_checks)
    hop_len = [0] * n_checks
    pos = np.empty(0, dtype=np.int64)  # hop.size, ..., 2, 1: no search walks further
    key = np.zeros(n_checks + 1, dtype=np.int64)
    key[n_checks] = np.iinfo(np.int64).max

    for v in range(n):
        for t in range(col_weight):
            if t == 0:
                cand = np.flatnonzero(chk_deg == chk_deg.min())
            else:
                level, at, n_reached = np.array(var_adj[v]), 0, t
                reached = [level]
                key[level] = pos.size + 1
                while level.size and n_reached < n_checks:
                    walk = hop.take(level, axis=0).ravel()
                    order = pos[at:at + walk.size]
                    at += walk.size
                    np.maximum.at(key, walk, order)
                    level = walk[key[walk] == order]  # first appearances
                    reached.append(level)
                    n_reached += level.size
                if not level.size:
                    level = np.flatnonzero(key[:-1] == 0)
                key[np.concatenate(reached)] = 0
                degs = chk_deg[level]
                cand = level[degs == degs.min()]
            c = int(cand[rng.integers(len(cand))])
            adj = var_adj[v]
            grow = max([hop_len[c] + t] + [hop_len[c2] + 1 for c2 in adj]) - hop.shape[1]
            if grow > 0:
                hop = np.pad(hop, ((0, 0), (0, grow)), constant_values=n_checks)
                pos = np.arange(hop.size, 0, -1)
            hop[c, hop_len[c]:hop_len[c] + t] = adj
            hop_len[c] += t
            for c2 in adj:
                hop[c2, hop_len[c2]] = c
                hop_len[c2] += 1
            adj.append(c)
            chk_adj[c].append(v)
            chk_deg[c] += 1
    return chk_adj


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
        hits = np.flatnonzero(rows[:, word] & bit)
        below = hits[hits >= r]
        if below.size == 0:
            continue
        # Row r holds the bit only if it is the pivot, so after the swap the
        # rows to clear are the hits other than piv.
        piv = int(below[0])
        if piv != r:
            rows[[r, piv]] = rows[[piv, r]]
        hits = hits[hits != piv]
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

    permuted = ParityCheckMatrix._from_edges(n, n_checks, pcm.edge_chk, new_pos[pcm.edge_var])
    return LinearCode(permuted, parity, perm)


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------

def bp_decode_batch(llr, pcm: ParityCheckMatrix, max_iter: int = 50) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized sum-product decoding of a (batch, n) block of frames.

    ``llr`` holds each coordinate's channel LLR ``log(P(0)/P(1))``,
    clamped to +-40 (+-inf too; a NaN is a ValueError).  Returns the
    (batch, n) hard decisions and a (batch,) flag telling whether each
    frame's syndrome was zero (its decisions are returned regardless).

    A frame leaves, squeezed out of the working set, through one test at
    the top of each pass: pass 0 tests the channel decisions, pass i those
    of iteration i - 1.  It leaves with them once they satisfy every check
    or once i = max_iter, so at most max(max_iter, 0) + 1 passes run.  It
    also leaves there if iteration i - 1 found it in a message cycle, with
    the decisions that iteration stored for it.

    Messages are (edges + 1, frames) arrays, so each gather copies whole
    rows; a check's product of tanh(Lq/2) runs over its column of
    ``pcm.chk_edges`` from left to right (see the module docstring).

    The cycle exit: with L0 fixed, a frame's state after iteration t is
    its check messages Lr_t, and one iteration maps it to the next.  If
    Lr_t equals an earlier Lr_c bit for bit, the frame repeats with period
    p = t - c, and every state of the cycle has already failed the
    syndrome test.  The full run would end unconverged on the decisions of
    iteration max_iter - 1, which are those of iteration
    c + ((max_iter - 1 - c) mod p), one of c, ..., t - 1; so the frame
    leaves with those at the top of the next pass.  Lr is kept at
    iterations 8, 12, 16, 24, 32, 48, ... (2^a and 3 * 2^a), each snapshot
    for the frames active when it was taken, cut down to the active ones
    once they are half as many, and every later Lr_t is compared with all
    of them.  A fingerprint per frame, the wrapping sum of the bit patterns
    of about 128 spread-out edges' messages, picks the frames worth
    comparing in full; only the full bitwise comparison proves a repeat.
    The decisions of iterations 8 to max_iter - 2 are kept packed along
    frames, n x ceil(frames / 8) bytes each.
    """
    llr0 = np.asarray(llr, dtype=np.float64)
    if llr0.ndim != 2 or llr0.shape[1] != pcm.n:
        raise ValueError(f"llr must be (batch, {pcm.n}), got {llr0.shape}")
    if np.isnan(llr0).any():
        raise ValueError(f"llr holds NaN, first in frame {np.isnan(llr0).any(axis=1).argmax()}")
    bits_out, conv = np.empty(llr0.shape, np.uint8), np.zeros(len(llr0), bool)
    max_iter = max(int(max_iter), 0)

    # Message arrays carry one row past the last edge, the sentinel edge:
    # in T it is the factor 1.0 that unused check slots multiply by, in Lr
    # the -0.0 message that unused variable slots add.  mode="clip" lets
    # np.take write into `out` (every index is in range).
    n_edges = pcm.edge_var.size
    edge_var = np.append(pcm.edge_var, 0)
    edge_chk = np.append(pcm.edge_chk, 0)
    # var_slots' columns in the order they are summed: 1, 2, ..., then 0.
    var_rows = pcm.var_slots.T[np.roll(np.arange(pcm.var_slots.shape[1]), -1)]
    # Edges whose messages fingerprint a frame's state, spread over the graph.
    screen = np.arange(0, n_edges, max(1, n_edges // 128))
    snap_its = {b << a for b in (2, 3) for a in range(2, max_iter.bit_length())}
    active = np.arange(llr0.shape[0])
    post = L0 = np.clip(llr0, -LLR_CLAMP, LLR_CLAMP).T.copy()
    Lq = np.take(L0, edge_var, axis=0)
    Lr = np.empty(0)
    # The decisions under test; row n stays 0 for the padded chk_slots.
    hard = np.zeros((pcm.n + 1, active.size), dtype=np.uint8)
    # Cycle exit: (iteration, frames, Lr) per snapshot and (frames, packed
    # decisions) per iteration from 8 on, where `frames` are the frames
    # they hold, sorted, so np.searchsorted finds a frame's column.
    # `marks` holds the snapshots' fingerprints, one row each, squeezed
    # with the active frames.
    snaps, decided = [], []
    marks = np.empty((0, active.size), np.int64)
    cycled = np.zeros(active.size, bool)
    for it in range(max_iter + 1):
        # Convergence needs a zero syndrome AND a decided value everywhere;
        # an LLR of exactly zero carries no decision (it defaults to 0).
        np.less(post, 0.0, out=hard[:-1].view(np.bool_))
        ok = _checks_satisfied(hard, pcm)
        if ok.any() and not post.all():
            ok &= post.all(axis=0)
        # A frame that cycled (below) has its decisions in bits_out already.
        stop = ok | (it == max_iter)
        done = stop | cycled
        if done.any():
            bits_out[active[stop]] = hard[:-1, stop].T
            conv[active[ok]] = True
            keep = ~done
            active = active[keep]
            # compress keeps the squeezed arrays C-ordered; L0[:, keep] would not.
            L0, Lq, hard, marks = (a.compress(keep, axis=1) for a in (L0, Lq, hard, marks))
            # A snapshot is cut down to the active frames once they are half
            # of its own: wide copies held to the end fragment the heap.
            snaps = [(at, active, snap[:, np.searchsorted(frames, active)])
                     if 2 * active.size <= frames.size else (at, frames, snap)
                     for at, frames, snap in snaps]
        if active.size == 0:
            break
        if it > 8:
            decided.append((active, np.packbits(hard[:-1], axis=1)))
        if Lr.shape[-1] != active.size:  # first iteration, or frames squeezed out
            Lr = np.empty_like(Lq)
            prod = np.empty((pcm.n_checks, active.size))
            factor = np.empty_like(prod)
            post, slot = np.empty_like(L0), np.empty_like(L0)

        # Check-node update: leave-one-out tanh products, zeros counted apart.
        # T = tanh(Lq/2) overwrites Lq, which is rebuilt from post below.
        T = np.tanh(np.multiply(Lq, 0.5, out=Lq), out=Lq)
        T[n_edges] = 1.0
        _slot_product(T, pcm.chk_edges, prod, factor)
        # An exact-zero factor makes its check's product 0, and so may an
        # underflow; only then are the zeros looked for.
        zero = None if prod.all() else T == 0
        if zero is not None and not zero.any():
            zero = None
        if zero is not None:
            T[zero] = 1.0
            _slot_product(T, pcm.chk_edges, prod, factor)
        np.take(prod, edge_chk, axis=0, out=Lr, mode="clip")
        Lr /= T
        if zero is not None:
            n_zero = zero[pcm.chk_edges].sum(axis=0)
            Lr[n_zero[edge_chk] > zero] = 0.0
        np.clip(Lr, -1.0, 1.0, out=Lr)
        with np.errstate(divide="ignore"):
            np.arctanh(Lr, out=Lr)
        Lr *= 2.0
        np.clip(Lr, -LLR_CLAMP, LLR_CLAMP, out=Lr)
        Lr[n_edges] = -0.0

        # A frame back in a snapshot's state gets the decisions of the
        # iteration in phase with max_iter - 1 (see the docstring).
        cycled = np.zeros(active.size, bool)
        if it >= 8:
            mark = Lr[screen].view(np.int64).sum(axis=0)
            hits = marks == mark
            for i in np.flatnonzero(hits.any(axis=1)):
                at, frames, snap = snaps[i]
                maybe = np.flatnonzero(hits[i] & ~cycled)
                col = np.searchsorted(frames, active[maybe])
                same = Lr[:, maybe].view(np.int64) == snap[:, col].view(np.int64)
                found = maybe[same.all(axis=0)]
                cycled[found] = True
                kept, packed = decided[at + (max_iter - 1 - at) % (it - at) - 8]
                col = np.searchsorted(kept, active[found])
                bits_out[active[found]] = (packed[:, col >> 3] >> (7 - (col & 7)) & 1).T
            if it in snap_its:
                snaps.append((it, active, Lr.copy()))
                marks = np.vstack([marks, mark])

        # Variable-node update and posterior: L0 + (slot 0 + (slot 1 + ...)).
        np.take(Lr, var_rows[0], axis=0, out=post, mode="clip")
        for row in var_rows[1:]:
            post += np.take(Lr, row, axis=0, out=slot, mode="clip")
        post += L0
        np.take(post, edge_var, axis=0, out=Lq, mode="clip")
        Lq -= Lr
    return bits_out, conv


def _slot_product(T: np.ndarray, slots: np.ndarray, out: np.ndarray, factor: np.ndarray) -> None:
    """out[c] = T[slots[0, c]] * T[slots[1, c]] * ..., multiplied left to right."""
    np.take(T, slots[0], axis=0, out=out, mode="clip")
    for row in slots[1:]:
        out *= np.take(T, row, axis=0, out=factor, mode="clip")


def _checks_satisfied(hard: np.ndarray, pcm: ParityCheckMatrix) -> np.ndarray:
    """Zero-syndrome flags of (n + 1, frames) decisions whose row n is 0."""
    syndrome = np.take(hard, pcm.chk_slots[0], axis=0)
    for row in pcm.chk_slots[1:]:
        syndrome ^= np.take(hard, row, axis=0)
    return ~syndrome.any(axis=0)


# ---------------------------------------------------------------------------
# alist input
# ---------------------------------------------------------------------------

def load_alist(path) -> ParityCheckMatrix:
    """Parse an alist file (padded or unpadded variants both accepted)."""
    with open(path) as fh:
        rows = [line.split() for line in fh if line.strip()]
    try:
        data = [[int(tok) for tok in row] for row in rows]
        n, n_checks = data[0]
        if n_checks < 1:    # its row degree line is empty, so the sections would shift
            raise ValueError("a parity-check matrix needs at least one check")
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
        if data[3] != [len(row) for row in row_adj]:
            raise ValueError("row degree list does not match the column section")
        if len(data) < 4 + n + n_checks:
            raise ValueError("truncated row adjacency section")
        for r, row in enumerate(row_adj):
            if sorted(e for e in data[4 + n + r] if e > 0) != [c + 1 for c in row]:
                raise ValueError(f"row {r} does not match the column section")
        return ParityCheckMatrix(n, row_adj)
    except (IndexError, ValueError) as exc:
        raise ValueError(f"malformed alist file {path}: {exc}") from exc
