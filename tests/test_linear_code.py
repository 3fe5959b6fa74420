import hashlib
import itertools
import math
import re

import numpy as np
import pytest

from bp_oracle import frame_major_bp_decode_batch, padded_bp_decode_batch
from pcm_oracle import RowMatrix, col_adj, dense, row_adj, row_edges, write_alist
from pcm_oracle import shortened as shortened_oracle
from per_user_tx import encode
from peg_oracle import peg_graph
from ffma import linear_code
from ffma.ffma_system import SystemConfig, _bit_priors, transmit_cfsp_batch
from ffma.linear_code import (
    LLR_CLAMP,
    LinearCode,
    ParityCheckMatrix,
    _checks_satisfied,
    bp_decode_batch,
    load_alist,
)

# Pinned toy code: (12, 6), column weight 3, d_min 4 (verified by
# exhaustive codeword enumeration below).
TOY = dict(n=12, k=6, col_weight=3, seed=2)


@pytest.fixture(scope="module")
def toy_code():
    return LinearCode.generate(**TOY)


def llr_from_p1(p1):
    """Channel LLR log(P0/P1) of per-bit probabilities that the bit is 1."""
    with np.errstate(divide="ignore"):
        return np.log1p(-p1) - np.log(p1)


def all_codewords(code):
    msgs = np.array(list(itertools.product([0, 1], repeat=code.k)), dtype=np.uint8)
    return msgs, encode(msgs, code)


def _padded(hard):
    """(frames, n) decisions as the (n + 1, frames) array, row n zero, that
    the syndrome test reads."""
    return np.vstack([hard.T, np.zeros((1, hard.shape[0]), hard.dtype)])


def _from_rows(n, rows):
    """The matrix whose check r has the columns rows[r]."""
    return ParityCheckMatrix(n, len(rows), *row_edges(rows))


def test_construct_dimensions_and_weights(toy_code):
    pcm = toy_code.pcm
    assert pcm.n_checks == 6 and pcm.n == 12
    assert (np.bincount(pcm.edge_var, minlength=pcm.n) == 3).all()
    assert toy_code.parity.shape == (6, 6)
    assert (toy_code.n, toy_code.k) == (12, 6)


def test_linear_code_checks_parity_shape(toy_code):
    # P of the (12, 6) toy code is (n - n_checks) x n_checks = 6x6.
    for shape in ((5, 6), (6, 7), (36,)):
        with pytest.raises(ValueError, match="parity part must be 6x6"):
            LinearCode(toy_code.pcm, np.zeros(shape), toy_code.col_perm)
    code = LinearCode(toy_code.pcm, toy_code.parity.astype(bool), toy_code.col_perm)
    assert code.parity.dtype == np.uint8 and (code.n, code.k) == (12, 6)


def test_generator_orthogonal_to_checks(toy_code):
    pcm = toy_code.pcm
    H = dense(pcm)
    msgs, cws = all_codewords(toy_code)
    assert not (H @ cws.T % 2).any()
    assert (cws[:, :6] == msgs).all()  # systematic prefix


def test_construct_rejects_bad_dimensions():
    with pytest.raises(ValueError):
        LinearCode.generate(12, 12, col_weight=3, seed=0)
    with pytest.raises(ValueError):
        LinearCode.generate(12, 14, col_weight=3, seed=0)
    with pytest.raises(ValueError):
        LinearCode.generate(12, 0, col_weight=3, seed=0)
    with pytest.raises(ValueError):
        LinearCode.generate(12, 6, col_weight=1, seed=0)
    with pytest.raises(ValueError):
        LinearCode.generate(12, 6, col_weight=7, seed=0)


def test_construct_deterministic():
    a = LinearCode.generate(60, 30, col_weight=3, seed=11)
    b = LinearCode.generate(60, 30, col_weight=3, seed=11)
    assert all((ra == rb).all() for ra, rb in zip(row_adj(a.pcm), row_adj(b.pcm)))
    assert (a.parity == b.parity).all() and (a.col_perm == b.col_perm).all()
    c = LinearCode.generate(60, 30, col_weight=3, seed=12)
    assert any((ra != rc).any() for ra, rc in zip(row_adj(a.pcm), row_adj(c.pcm)))


# SHA-1s of (edge_var, parity, col_perm) as int64, uint8 and int64 bytes.
# A faster construction must build exactly these codes: every CSV the
# simulator writes depends on them bit for bit.
PINNED_CODES = {
    (600, 300, 7): ("e9cda5f09d937020305b72a1705d6525609bee7c",
                    "8481bf80617e07e7c0700d6d89947c06e4253d6f",
                    "6b87b661225ca64396e923d78f7c11c5a6258fb9"),
    (96, 32, 3): ("755a920d0d241a0c08c9c343659f5a50b60193d1",
                  "3f078cfae44728ff2595d1a74fcbc08e014805dc",
                  "9af2347cba86a895b3c91d6ed29355305a787779"),
    (96, 64, 11): ("b9f2de367170a86bcf37c721a178237e51cab894",
                   "7053b133a8a49a2138c5cc545b007db516d817df",
                   "6a7b9327ad2b31a89bc00af587b2566a05c72e71"),
}


@pytest.mark.parametrize("n, k, seed", sorted(PINNED_CODES))
def test_construction_is_pinned(n, k, seed):
    code = LinearCode.generate(n, k, seed=seed)
    arrays = (code.pcm.edge_var.astype(np.int64), code.parity.astype(np.uint8),
              code.col_perm.astype(np.int64))
    digests = tuple(hashlib.sha1(np.ascontiguousarray(a).tobytes()).hexdigest()
                    for a in arrays)
    assert digests == PINNED_CODES[(n, k, seed)]


def test_construction_gives_up_on_rank_deficient_graphs():
    with pytest.raises(ValueError, match="full rank in 20 attempts"):
        LinearCode.generate(96, 48, col_weight=4, seed=2)


@pytest.mark.parametrize("n, k, col_weight, seed, attempt", [
    (600, 300, 3, 7, 0), (600, 300, 3, 101, 0), (96, 32, 3, 3, 0),
    (64, 60, 3, 0, 0), (40, 36, 4, 0, 0),  # saturating: few checks
    (200, 100, 4, 1, 0), (600, 300, 2, 7, 0),
    (96, 64, 3, 11, 1),  # a retry draw
])
def test_peg_graph_matches_oracle(n, k, col_weight, seed, attempt):
    # The oracle lists each check's columns in the order they were placed,
    # which is ascending; so do the fast edges once sorted by check, then column.
    args = (n, n - k, col_weight)
    edge_chk, edge_var = linear_code._peg_graph(*args, np.random.default_rng((seed, attempt)))
    fast = sorted(zip(edge_chk.tolist(), edge_var.tolist()))
    rows = peg_graph(*args, np.random.default_rng((seed, attempt)))
    assert fast == [(c, v) for c, row in enumerate(rows) for v in row]


@pytest.mark.parametrize("seed", [-1, 1.5])
def test_construct_rejects_bad_seed(seed):
    with pytest.raises(ValueError, match=f"seed must be an integer >= 0, got {seed}"):
        LinearCode.generate(24, 12, seed=seed)


def test_girth_at_least_six_at_moderate_size():
    pcm = LinearCode.generate(120, 60, col_weight=3, seed=4).pcm
    # no 4-cycles: any two columns share at most one check
    seen = set()
    for c, checks in enumerate(col_adj(pcm)):
        for pair in itertools.combinations(sorted(checks), 2):
            assert pair not in seen, f"4-cycle at column {c}"
            seen.add(pair)


def test_encode_linearity(toy_code):
    rng = np.random.default_rng(5)
    zero = encode(np.zeros(6, dtype=np.uint8), toy_code)
    assert not zero.any()
    for _ in range(50):
        a = rng.integers(0, 2, 6, dtype=np.uint8)
        b = rng.integers(0, 2, 6, dtype=np.uint8)
        assert (encode(a ^ b, toy_code) == encode(a, toy_code) ^ encode(b, toy_code)).all()


def test_encode_unit_message_is_generator_row(toy_code):
    e1 = np.zeros(6, dtype=np.uint8)
    e1[0] = 1
    row = encode(e1, toy_code)
    assert row[0] == 1 and not row[1:6].any()
    assert (row[6:] == toy_code.parity[0]).all()


def test_encode_length_mismatch(toy_code):
    with pytest.raises(ValueError):
        encode(np.zeros(5, dtype=np.uint8), toy_code)


def test_shortened_full_code_is_pcm(toy_code):
    assert toy_code.shortened(toy_code.k) is toy_code.pcm
    with pytest.raises(ValueError):
        toy_code.shortened(toy_code.k + 1)
    with pytest.raises(ValueError):
        toy_code.shortened(-1)


@pytest.mark.parametrize("n_sent", [4, 20])
def test_shortened_deletes_unsent_message_columns(n_sent):
    code = LinearCode.generate(96, 32, col_weight=3, seed=3)
    short = code.shortened(n_sent)
    assert code.shortened(n_sent) is short
    keep = np.r_[0:n_sent, 32:96]
    assert (short.n, short.n_checks) == (keep.size, code.pcm.n_checks)
    # Row by row: the original row on the kept columns, renumbered in order.
    new_pos = np.full(96, -1)
    new_pos[keep] = np.arange(keep.size)
    for row, short_row in zip(row_adj(code.pcm), row_adj(short)):
        assert short_row.tolist() == new_pos[row[new_pos[row] >= 0]].tolist()
    # A codeword whose message bits [n_sent, k) are zero, with those
    # coordinates deleted, is a codeword of the shortened code.
    msgs = np.random.default_rng(12).integers(0, 2, size=(50, 32), dtype=np.uint8)
    msgs[:, n_sent:] = 0
    cws = encode(msgs, code)[:, keep]
    assert _checks_satisfied(_padded(cws), short).all()


def test_bp_noiseless_is_identity(toy_code):
    pcm = toy_code.pcm
    _, cws = all_codewords(toy_code)
    dec, conv = bp_decode_batch(llr_from_p1(cws[::7].astype(np.float64)), pcm)
    assert conv.all() and (dec == cws[::7]).all()


def test_bp_uninformative_priors_do_not_converge(toy_code):
    pcm = toy_code.pcm
    dec, conv = bp_decode_batch(llr_from_p1(np.full((1, 12), 0.5)), pcm, max_iter=30)
    assert not conv[0]
    assert not dec.any()  # zero LLRs resolve to bit 0


def test_bp_rejects_nan_llrs_and_names_the_frame(toy_code):
    # A NaN compares false to 0 and is truthy, so it used to decide 0 and
    # count as converged; +-inf is still clamped to +-40.
    pcm = toy_code.pcm
    with pytest.raises(ValueError, match="NaN, first in frame 0"):
        bp_decode_batch(np.full((2, 12), np.nan), pcm, 5)
    llr = np.full((3, 12), np.inf)
    llr[2, 7] = np.nan
    with pytest.raises(ValueError, match="NaN, first in frame 2"):
        bp_decode_batch(llr, pcm, 5)
    dec, conv = bp_decode_batch(llr[:2], pcm, 5)
    assert conv.all() and not dec.any()


def test_bp_corrects_single_flip_matches_nearest_codeword(toy_code):
    pcm = toy_code.pcm
    msgs, cws = all_codewords(toy_code)
    w = cws.sum(axis=1)
    assert w[w > 0].min() >= 3, "toy code must have d_min >= 3"
    msg = np.array([1, 0, 1, 1, 0, 1], dtype=np.uint8)
    cw = encode(msg, toy_code)
    for flip in range(12):
        p1 = np.where(cw == 1, 0.99, 0.01)
        p1[flip] = 1.0 - p1[flip]
        dec, conv = bp_decode_batch(llr_from_p1(p1[None, :]), pcm)
        dec, conv = dec[0], conv[0]
        # independent oracle: nearest codeword in Hamming distance
        hard = (p1 > 0.5).astype(np.uint8)
        nearest = cws[np.argmin((cws != hard).sum(axis=1))]
        assert (nearest == cw).all()
        assert conv and (dec == nearest).all()


def test_bp_batch_matches_single(toy_code):
    # Frames are decoded independently: a batch gives what its frames give
    # as batches of one.
    pcm = toy_code.pcm
    rng = np.random.default_rng(8)
    msgs = rng.integers(0, 2, size=(16, 6), dtype=np.uint8)
    cws = encode(msgs, toy_code)
    noisy = np.clip(np.where(cws == 1, 0.9, 0.1) + rng.normal(0, 0.05, cws.shape), 0.01, 0.99)
    llr = llr_from_p1(noisy)
    batch_bits, batch_conv = bp_decode_batch(llr, pcm, max_iter=20)
    for i in range(16):
        bits, conv = bp_decode_batch(llr[i : i + 1], pcm, max_iter=20)
        assert (bits[0] == batch_bits[i]).all()
        assert conv[0] == batch_conv[i]
    # An empty batch gives empty results, and a negative budget returns
    # what max_iter=0 does: the channel decisions, also of the pure-noise
    # frames whose decisions fail a check.
    bits, conv = bp_decode_batch(llr[:0], pcm)
    assert bits.shape == (0, 12) and bits.dtype == np.uint8 and conv.shape == (0,)
    llr = np.vstack([llr, rng.normal(size=(20, 12))])
    bits, conv = bp_decode_batch(llr, pcm, max_iter=-1)
    ref_bits, ref_conv = bp_decode_batch(llr, pcm, max_iter=0)
    assert bits.tobytes() == ref_bits.tobytes() and conv.tobytes() == ref_conv.tobytes()
    assert (bits == (llr < 0)).all() and not conv[16:].all()


def test_bp_fills_erased_bits(toy_code):
    # An LLR of exactly 0 is an erasure: its check still hands it the
    # product of the other edges, which recovers the bit from the code.
    pcm = toy_code.pcm
    cw = encode(np.array([1, 0, 1, 1, 0, 1], dtype=np.uint8), toy_code)
    for erased in [(i,) for i in range(12)] + [(0, 7)]:
        llr = np.where(cw == 1, -5.0, 5.0)
        llr[list(erased)] = 0.0
        dec, conv = bp_decode_batch(llr[None, :], pcm)
        assert conv[0] and (dec[0] == cw).all(), f"erased {erased}"


@pytest.fixture(scope="module")
def desk_code():
    return LinearCode.generate(600, 300, col_weight=3, seed=7)


def _receiver_llr(code, mode, esn0_db, mu_pas=1.0, j_users=60, frames=100, seed=0):
    """Detector LLRs of `frames` noisy frames on the (600, 300) code, k=5,
    m=60: for DF and PA with J < 60, of ``code.shortened(5 * J)``."""
    n0 = 10.0 ** (-esn0_db / 10.0)
    cfg = SystemConfig(code, k=5, j_users=j_users, mode=mode, mu_pas=mu_pas, n0=n0)
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=(frames, j_users, 5), dtype=np.uint8)
    y = transmit_cfsp_batch(bits, cfg) + rng.normal(0.0, math.sqrt(n0 / 2.0), (frames, 600))
    return _bit_priors(y, cfg)


def _irregular_pcm(tmp_path):
    """A (48, 24) code, column degrees cycling 2, 3, 4, read back from alist."""
    rng = np.random.default_rng(3)
    cols = [rng.choice(24, size=d, replace=False) for d in np.resize([2, 3, 4], 48)]
    rows = [[c for c, col in enumerate(cols) if r in col] for r in range(24)]
    path = tmp_path / "irregular.alist"
    write_alist(_from_rows(48, rows), path)
    return load_alist(path)


# Iteration caps the decoder is compared at.  Cases whose frames fall into
# message cycles also run caps that put the exit off-phase with cycles
# found against each of the snapshots 8, 12, 16, 24, 32 and 48.
CAPS = (0, 1, 9, 17, 23, 50)
CYCLE_CAPS = CAPS + (13, 27, 37, 64)


def test_bp_matches_padded_oracle(toy_code, desk_code, tmp_path):
    rng = np.random.default_rng(9)
    toy_llr = rng.normal(0.0, 3.0, size=(200, 12))
    toy_llr[rng.random(toy_llr.shape) < 0.1] = 0.0
    toy_llr[rng.random(toy_llr.shape) < 0.05] = np.inf
    toy_llr[rng.random(toy_llr.shape) < 0.05] = -np.inf
    irregular = _irregular_pcm(tmp_path)
    assert set(np.bincount(irregular.edge_var, minlength=irregular.n).tolist()) == {2, 3, 4}
    # Noisy all-zero codeword (BPSK, sigma 0.8): zero-free, so the check
    # update skips the zero count; 10 % erasures take the counting branch.
    irr_llr = 2.0 / 0.64 * (1.0 + rng.normal(0.0, 0.8, size=(300, 48)))
    irr_erased = np.where(rng.random(irr_llr.shape) < 0.1, 0.0, irr_llr)
    cases = [
        # Some of these frames' cycles are found only against the snapshots
        # at 16, 24, 32 and 48.
        (toy_code.pcm, toy_llr, CYCLE_CAPS),
        (irregular, irr_llr, CAPS),
        (irregular, irr_erased, CAPS),
        (desk_code.pcm, _receiver_llr(desk_code, "SF", 0.5), CAPS),
        # ~70 % of these frames converge part-way: squeezes mid-decode.
        (desk_code.pcm, _receiver_llr(desk_code, "DF", 0.0), CAPS),
        # Every one of these frames falls into a message cycle, most of them
        # found against the snapshot at 8 or 12.
        (desk_code.pcm, _receiver_llr(desk_code, "PA", -12.0, mu_pas=60.0), CYCLE_CAPS),
        # The shortened codes' rows have unequal degrees, so the check
        # product reads 1.0-padded slots; ~65 % and ~83 % converge.
        (desk_code.shortened(150), _receiver_llr(desk_code, "DF", -1.0, j_users=30), CAPS),
        (desk_code.shortened(5), _receiver_llr(desk_code, "DF", -8.0, j_users=1), CAPS),
    ]
    for pcm, llr, caps in cases:
        for max_iter in caps:
            bits, conv = bp_decode_batch(llr, pcm, max_iter)
            ref_bits, ref_conv = padded_bp_decode_batch(llr, pcm, max_iter)
            assert (bits == ref_bits).all() and (conv == ref_conv).all(), (pcm.n, max_iter)


def test_bp_matches_frame_major_decoder_bit_for_bit(desk_code):
    # The frame-major decoder that the edge-major one replaced does the
    # same arithmetic in the same order, so decisions and flags must agree
    # exactly on receiver LLRs of every mode.  Its cycle exit is Brent's,
    # which finds the repeats later and leaves in phase, so only what a
    # frame returns must agree, not when it leaves.
    rng = np.random.default_rng(14)
    df_llr = _receiver_llr(desk_code, "DF", 0.0)
    # 10 % erasures: some check products are exactly 0, so the zero count
    # runs, and some checks hold two zeros.
    erased = np.where(rng.random(df_llr.shape) < 0.1, 0.0, df_llr)
    cases = [
        (desk_code.pcm, _receiver_llr(desk_code, "SF", 0.5), CAPS),
        (desk_code.pcm, df_llr, CAPS),
        (desk_code.pcm, erased, CAPS),
        # Many frames here match a snapshot's fingerprint without repeating
        # the snapshot, and the full comparison rejects them.
        (desk_code.pcm, _receiver_llr(desk_code, "PA", -12.0, mu_pas=60.0), CYCLE_CAPS),
        (desk_code.shortened(150), _receiver_llr(desk_code, "DF", -1.0, j_users=30), CAPS),
        # Cycles found against the snapshots at 8, 12 and 16.
        (desk_code.shortened(150), _receiver_llr(desk_code, "PA", -12.0, 60.0, j_users=30),
         CYCLE_CAPS),
        (desk_code.shortened(5), _receiver_llr(desk_code, "DF", -8.0, j_users=1), CAPS),
        (desk_code.shortened(5), _receiver_llr(desk_code, "PA", -8.0, 60.0, j_users=1), CAPS),
    ]
    for pcm, llr, caps in cases:
        for max_iter in caps:
            bits, conv = bp_decode_batch(llr, pcm, max_iter)
            ref_bits, ref_conv = frame_major_bp_decode_batch(llr, pcm, max_iter)
            assert bits.tobytes() == ref_bits.tobytes(), (pcm.n, max_iter)
            assert conv.tobytes() == ref_conv.tobytes(), (pcm.n, max_iter)


def test_bp_underflowing_check_products_match_both_oracles(toy_code):
    # Factors tanh(L/2) of 1e-120 to 1e-60 are far from 0, but each check's
    # product of them underflows to 0.  The decoder then looks for exact
    # zeros, finds none, and divides as usual.
    rng = np.random.default_rng(15)
    llr = rng.choice([-1.0, 1.0], (200, 12)) * 10.0 ** rng.uniform(-120, -60, (200, 12))
    factors = np.tanh(llr / 2.0)
    assert (factors != 0).all()
    assert (np.array([factors[:, row].prod(axis=1) for row in row_adj(toy_code.pcm)]) == 0).all()
    for max_iter in (0, 1, 5, 50):
        bits, conv = bp_decode_batch(llr, toy_code.pcm, max_iter)
        for oracle in (padded_bp_decode_batch, frame_major_bp_decode_batch):
            ref_bits, ref_conv = oracle(llr, toy_code.pcm, max_iter)
            assert bits.tobytes() == ref_bits.tobytes(), (oracle.__name__, max_iter)
            assert conv.tobytes() == ref_conv.tobytes(), (oracle.__name__, max_iter)


# On LinearCode.generate(n=8, k=4, col_weight=3, seed=1), these frames'
# messages settle into a period-2 cycle whose hard decisions flip every
# iteration.
OSCILLATING = np.array([[-3, -3, 3, 3, -3, 3, 3, -3],
                        [-3, 3, -3, 3, 3, -3, 3, -3],
                        [3, -3, -3, 3, 3, 3, -3, -3]], dtype=np.float64)


def test_bp_cycle_exit_keeps_oscillating_decisions():
    # A frame that left the cycle on the wrong phase would return the
    # other half's bits.
    pcm = LinearCode.generate(n=8, k=4, col_weight=3, seed=1).pcm
    llr = OSCILLATING
    for max_iter in range(1, 61):
        bits, conv = bp_decode_batch(llr, pcm, max_iter)
        ref_bits, ref_conv = padded_bp_decode_batch(llr, pcm, max_iter)
        assert (bits == ref_bits).all() and (conv == ref_conv).all(), max_iter


def test_bp_cycle_exit_proves_a_repeat_in_full():
    # The fingerprint reads every (edges // 128)-th edge: here every one
    # of them lies in a saturated block whose messages never change, and
    # the oscillating frames run on the 24 edges after it, which the screen
    # skips.  Every pass matches the fingerprint of every snapshot, and only
    # the full comparison tells the period-2 cycle from a fixed point.
    oscillator = LinearCode.generate(n=8, k=4, col_weight=3, seed=1).pcm
    pcm = _from_rows(105, [np.arange(97)] * 33 + [row + 97 for row in row_adj(oscillator)])
    assert pcm.edge_var.size == 3225 and (np.arange(3201, 3225) % (3225 // 128)).all()
    llr = np.hstack([np.full((3, 97), LLR_CLAMP), OSCILLATING])
    for max_iter in range(1, 41):
        bits, conv = bp_decode_batch(llr, pcm, max_iter)
        ref_bits, ref_conv = padded_bp_decode_batch(llr, pcm, max_iter)
        assert (bits == ref_bits).all() and (conv == ref_conv).all(), max_iter


def test_bp_cycle_exit_fires_on_pa(desk_code, monkeypatch):
    # Without the cycle exit every one of these frames runs all 50
    # iterations; with it, most leave in the pass that finds their cycle.
    rows = []
    checks_satisfied = linear_code._checks_satisfied

    def counting(hard, pcm):
        rows.append(hard.shape[1])
        return checks_satisfied(hard, pcm)

    monkeypatch.setattr(linear_code, "_checks_satisfied", counting)
    llr = _receiver_llr(desk_code, "PA", -12.0, mu_pas=60.0)
    bp_decode_batch(llr, desk_code.pcm, 50)
    assert sum(rows[1:]) <= 0.3 * 50 * llr.shape[0]


def test_syndrome_counts_ones_per_check(toy_code, desk_code):
    rng = np.random.default_rng(10)
    desk_cws = encode(rng.integers(0, 2, (5, 300), dtype=np.uint8), desk_code)
    # The shortened code has rows of unequal degree, so padded slots occur.
    short_msgs = np.zeros((5, 300), dtype=np.uint8)
    short_msgs[:, :150] = rng.integers(0, 2, (5, 150))
    short_cws = np.delete(encode(short_msgs, desk_code), np.s_[150:300], axis=1)
    short = desk_code.shortened(150)
    assert (short.chk_slots == short.n).any()
    for pcm, cws in ((toy_code.pcm, all_codewords(toy_code)[1]), (desk_code.pcm, desk_cws),
                     (short, short_cws)):
        hard = np.concatenate([rng.integers(0, 2, (200, pcm.n), dtype=np.uint8), cws])
        counts = dense(pcm).astype(np.int64) @ hard.T
        assert (counts >= 2).any()  # a count-or-OR mix-up would show
        parity = counts % 2
        for bits in (hard, hard.astype(bool)):
            assert (_checks_satisfied(_padded(bits), pcm) == ~parity.any(axis=0)).all()
        assert _checks_satisfied(_padded(cws), pcm).all()


def test_alist_round_trip(tmp_path, toy_code):
    pcm = toy_code.pcm
    path = tmp_path / "toy.alist"
    write_alist(pcm, path)
    loaded = load_alist(path)
    assert loaded.n == pcm.n and loaded.n_checks == pcm.n_checks
    assert all((a == b).all() for a, b in zip(row_adj(loaded), row_adj(pcm)))


def test_alist_known_small_matrix(tmp_path):
    # H = [[1,1,0,1],[0,1,1,0]] in alist text form
    text = "4 2\n2 2\n1 2 1 1\n3 2\n1 0\n1 2\n2 0\n1 0\n1 2 4 0\n2 3 0 0\n"
    path = tmp_path / "small.alist"
    path.write_text(text)
    pcm = load_alist(path)
    assert (dense(pcm) == [[1, 1, 0, 1], [0, 1, 1, 0]]).all()


def test_alist_unpadded_accepted(tmp_path):
    text = "4 2\n2 2\n1 2 1 1\n3 2\n1\n1 2\n2\n1\n1 2 4\n2 3\n"
    path = tmp_path / "small2.alist"
    path.write_text(text)
    assert (dense(load_alist(path)) == [[1, 1, 0, 1], [0, 1, 1, 0]]).all()


def test_alist_malformed_rejected(tmp_path):
    path = tmp_path / "bad.alist"
    for text, reason in [
        ("4 2\n2 2\n1 2 1\n3 2\n", "column degree list length mismatch"),
        # column 1 lists check 1 twice
        ("4 2\n2 2\n1 2 1 1\n3 2\n1 0\n1 1\n2 0\n1 0\n1 2 4 0\n2 3 0 0\n",
         "column 1 lists a check more than once"),
        # rows say check 2 is {1, 2}, the columns say {2, 3}
        ("4 2\n2 2\n1 2 1 1\n3 2\n1 0\n1 2\n2 0\n1 0\n1 2 4 0\n1 2 0 0\n",
         "row 1 does not match the column section"),
        # row degree list disagrees with the columns
        ("4 2\n2 2\n1 2 1 1\n2 3\n1 0\n1 2\n2 0\n1 0\n1 2 4 0\n2 3 0 0\n",
         "row degree list does not match the column section"),
        # no row section
        ("4 2\n2 2\n1 2 1 1\n3 2\n1 0\n1 2\n2 0\n1 0\n", "truncated row adjacency section"),
        # column 3 lists no check; the sections agree
        ("4 2\n2 2\n1 2 1 0\n2 2\n1 0\n1 2\n2 0\n0 0\n1 2 0 0\n2 3 0 0\n",
         "column 3 lists no checks"),
        # the same unpadded: column 3's line is blank
        ("4 2\n2 2\n1 2 1 0\n2 2\n1\n1 2\n2\n\n1 2\n2 3\n", "column 3 lists no checks"),
        # check 2 lists no column; the sections agree
        ("4 2\n1 4\n1 1 1 1\n4 0\n1\n1\n1\n1\n1 2 3 4\n0 0 0 0\n",
         "check 1 has no connected columns"),
        # the same unpadded: check 2's line is blank
        ("4 2\n1 4\n1 1 1 1\n4 0\n1\n1\n1\n1\n1 2 3 4\n\n", "check 1 has no connected columns"),
        ("4 2\n2 2\n1 2 1 1\n3 2\n1\n1 5\n2\n1\n1 2 4\n2 3\n",
         "column 1 lists check 5, outside [1, 2]"),
    ]:
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"malformed alist file {path}: {reason}")):
            load_alist(path)


@pytest.mark.parametrize("text, reason", [
    ("4 2\n2 2\n1 2 1 1\n3 2\n1 -2\n1 2\n2\n1\n1 2 4\n2 3\n",
     "column 0 lists check -2, outside [1, 2]"),
    ("4 2\n2 2\n1 2 1 1\n3 2\n1\n1 2\n2\n1\n1 2 4 -7\n2 3\n",
     "row 0 lists column -7, outside [1, 4]"),
], ids=["column", "row"])
def test_alist_negative_entry_rejected(tmp_path, text, reason):
    # Only 0 pads a line; these files loaded as if each -k were padding.
    path = tmp_path / "negative.alist"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(f"malformed alist file {path}: {reason}")):
        load_alist(path)


def test_alist_without_checks_rejected(tmp_path):
    # A header with 0 checks has an empty row-degree line; the loader says
    # so instead of reporting the sections after it as shifted.
    path = tmp_path / "empty.alist"
    for text in ["4 0\n0 0\n0 0 0 0\n", "4 0\n0 0\n0 0 0 0\n\n0\n0\n0\n0\n"]:
        path.write_text(text)
        with pytest.raises(ValueError, match="malformed alist .*needs at least one check"):
            load_alist(path)


def test_linear_code_from_alist(tmp_path):
    pcm = LinearCode.generate(24, 12, col_weight=3, seed=1).pcm
    path = tmp_path / "c.alist"
    write_alist(pcm, path)
    code = LinearCode.from_alist(path)
    assert code.n == 24 and code.k == 12
    H = dense(code.pcm)
    msgs = np.eye(12, dtype=np.uint8)
    assert not (H @ encode(msgs, code).T % 2).any()
    # permutation maps systematic columns back to the loaded matrix
    perm = code.col_perm
    loaded = dense(load_alist(path))
    assert (loaded[:, perm] == H).all()


def test_parity_check_matrix_validation():
    with pytest.raises(ValueError, match="at least one check"):
        ParityCheckMatrix(4, 0, [], [])
    with pytest.raises(ValueError, match="check 1 has no connected columns"):
        _from_rows(4, [[0, 1], []])
    with pytest.raises(ValueError, match="check 1 has no connected columns"):
        _from_rows(4, [[0, 1, 2, 3], np.array([], dtype=np.float64)])
    with pytest.raises(ValueError, match="check 0 has no connected columns"):
        ParityCheckMatrix(4, 1, np.array([]), np.array([]))  # no edges: any dtype
    with pytest.raises(ValueError, match=r"check 0 references columns outside \[0, 4\)"):
        _from_rows(4, [[0, 5]])
    with pytest.raises(ValueError, match=r"columns with no parity checks: \[2, 3\]"):
        _from_rows(4, [[0, 1], [0, 1]])
    # Indices must be integers: floats used to be truncated and strings
    # parsed, so these built the rows [0, 1] and [1, 2].
    for edge_chk, edge_var, bad in [
            ([0, 0, 1, 1], [0.9, 1.2, 1.7, 2.0], "edge_var must hold integers, got float64"),
            ([0, 0, 1, 1], ["0", "1", "1", "2"], "edge_var must hold integers, got <U1"),
            ([0, 0, 1, 1], [False, True, True, False], "edge_var must hold integers, got bool"),
            ([0.0, 0.0, 1.0, 1.0], [0, 1, 1, 2], "edge_chk must hold integers, got float64"),
            (*row_edges([[0, 1, 2], [2.0]]), "edge_var must hold integers, got float64")]:
        with pytest.raises(ValueError, match=re.escape(bad)):
            ParityCheckMatrix(3, 2, np.array(edge_chk), np.array(edge_var))


def _build(cls, n, rows):
    """(matrix, None) if ``cls`` accepts the rows, else (None, its message)."""
    try:
        return cls(n, rows), None
    except ValueError as exc:
        return None, str(exc)


def assert_same_matrix(pcm, ref):
    assert (pcm.n, pcm.n_checks) == (ref.n, ref.n_checks)
    for name in ("edge_var", "edge_chk", "var_slots", "chk_edges", "chk_slots"):
        a, b = getattr(pcm, name), getattr(ref, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape) and (a == b).all(), name
    for name, a in (("row_adj", row_adj(pcm)), ("col_adj", col_adj(pcm))):
        b = getattr(ref, name)
        assert len(a) == len(b), name
        assert all(x.dtype == y.dtype and x.tolist() == y.tolist() for x, y in zip(a, b)), name


@pytest.mark.parametrize("seed", range(40))
def test_parity_check_matrix_matches_row_oracle(seed):
    # Unsorted rows with repeated columns, given as lists, int32 rows, int64
    # rows or one 2-D array; most cover every column, some leave one out,
    # reference one outside [0, n) or have an empty row.
    rng = np.random.default_rng(seed)
    n, n_checks, form = int(rng.integers(2, 30)), int(rng.integers(1, 12)), seed % 4
    cover = np.resize(rng.permutation(n), (n_checks, -(-n // n_checks)))
    extra = rng.integers(0, n, (n_checks, int(rng.integers(0, 6))))
    if form == 3:
        rows = rng.permuted(np.hstack([cover, extra]), axis=1)
    else:
        rows = [rng.permutation(np.r_[c, e[:rng.integers(e.size + 1)]])
                for c, e in zip(cover, extra)]
    fault = rng.integers(8)
    if fault == 0:
        for row in rows:
            row[row == cover[0, 0]] = (cover[0, 0] + 1) % n  # column cover[0, 0] unused
    elif fault == 1:
        rows[rng.integers(n_checks)][0] = rng.choice([-1, n])
    elif fault == 2 and form != 3:
        rows[rng.integers(n_checks)] = rows[0][:0]
    if form != 3:
        rows = [row.tolist() if form == 0 else row.astype([np.int32, np.int64][form - 1])
                for row in rows]
    pcm, err = _build(_from_rows, n, rows)
    ref, ref_err = _build(RowMatrix, n, rows)
    assert err == ref_err
    if ref is not None:
        assert_same_matrix(pcm, ref)


@pytest.mark.parametrize("rows", [[], [[0, 1], []], [[], []], [[0, 1], [2, 4]], [[0, -1], [9]],
                                  [[0, 1], [0, 1]], [[3, 3, 0], [1, 1]]])
def test_parity_check_matrix_errors_match_row_oracle(rows):
    _, err = _build(_from_rows, 4, rows)
    assert err is not None and err == _build(RowMatrix, 4, rows)[1]


@pytest.mark.parametrize("n_sent", [0, 1, 5, 150, 299, 300])
def test_shortened_matches_row_oracle(desk_code, n_sent):
    assert_same_matrix(desk_code.shortened(n_sent), shortened_oracle(desk_code, n_sent))
