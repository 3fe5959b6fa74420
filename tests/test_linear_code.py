import itertools
import math

import numpy as np
import pytest

from bp_oracle import padded_bp_decode_batch
from ffma import linear_code
from ffma.ffma_system import SystemConfig, _bit_priors, transmit_cfsp_batch
from ffma.linear_code import (
    LinearCode,
    ParityCheckMatrix,
    _checks_satisfied,
    bp_decode_batch,
    encode,
    load_alist,
    save_alist,
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


def test_construct_dimensions_and_weights(toy_code):
    pcm = toy_code.pcm
    assert pcm.n_checks == 6 and pcm.n == 12
    assert (pcm.column_weights() == 3).all()
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
    H = pcm.to_dense()
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
    assert all((ra == rb).all() for ra, rb in zip(a.pcm.row_adj, b.pcm.row_adj))
    assert (a.parity == b.parity).all() and (a.col_perm == b.col_perm).all()
    c = LinearCode.generate(60, 30, col_weight=3, seed=12)
    assert any((ra != rc).any() for ra, rc in zip(a.pcm.row_adj, c.pcm.row_adj))


def test_girth_at_least_six_at_moderate_size():
    pcm = LinearCode.generate(120, 60, col_weight=3, seed=4).pcm
    # no 4-cycles: any two columns share at most one check
    seen = set()
    for c, checks in enumerate(pcm.col_adj):
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
    for row, short_row in zip(code.pcm.row_adj, short.row_adj):
        assert short_row.tolist() == new_pos[row[new_pos[row] >= 0]].tolist()
    # A codeword whose message bits [n_sent, k) are zero, with those
    # coordinates deleted, is a codeword of the shortened code.
    msgs = np.random.default_rng(12).integers(0, 2, size=(50, 32), dtype=np.uint8)
    msgs[:, n_sent:] = 0
    cws = encode(msgs, code)[:, keep]
    assert _checks_satisfied(cws, short).all()


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
    batch_bits, batch_conv = bp_decode_batch(llr_from_p1(noisy), pcm, max_iter=20)
    for i in range(16):
        bits, conv = bp_decode_batch(llr_from_p1(noisy[i : i + 1]), pcm, max_iter=20)
        assert (bits[0] == batch_bits[i]).all()
        assert conv[0] == batch_conv[i]


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


def _receiver_llr(code, mode, esn0_db, mu_pas=1.0, frames=100, seed=0):
    """Detector LLRs of `frames` noisy J=60 frames on the (600, 300) code."""
    n0 = 10.0 ** (-esn0_db / 10.0)
    cfg = SystemConfig(code, k=5, j_users=60, mode=mode, mu_pas=mu_pas, n0=n0)
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=(frames, 60, 5), dtype=np.uint8)
    y = transmit_cfsp_batch(bits, cfg) + rng.normal(0.0, math.sqrt(n0 / 2.0), (frames, 600))
    return _bit_priors(y, cfg)


def _irregular_pcm(tmp_path):
    """A (48, 24) code, column degrees cycling 2, 3, 4, read back from alist."""
    rng = np.random.default_rng(3)
    cols = [rng.choice(24, size=d, replace=False) for d in np.resize([2, 3, 4], 48)]
    rows = [[c for c, col in enumerate(cols) if r in col] for r in range(24)]
    path = tmp_path / "irregular.alist"
    save_alist(ParityCheckMatrix(48, rows), path)
    return load_alist(path)


def test_bp_matches_padded_oracle(toy_code, desk_code, tmp_path):
    rng = np.random.default_rng(9)
    toy_llr = rng.normal(0.0, 3.0, size=(200, 12))
    toy_llr[rng.random(toy_llr.shape) < 0.1] = 0.0
    toy_llr[rng.random(toy_llr.shape) < 0.05] = np.inf
    toy_llr[rng.random(toy_llr.shape) < 0.05] = -np.inf
    irregular = _irregular_pcm(tmp_path)
    assert set(irregular.column_weights().tolist()) == {2, 3, 4}
    # Noisy all-zero codeword (BPSK, sigma 0.8): zero-free, so the check
    # update skips the zero count; 10 % erasures take the counting branch.
    irr_llr = 2.0 / 0.64 * (1.0 + rng.normal(0.0, 0.8, size=(300, 48)))
    irr_erased = np.where(rng.random(irr_llr.shape) < 0.1, 0.0, irr_llr)
    cases = [
        (toy_code.pcm, toy_llr),
        (irregular, irr_llr),
        (irregular, irr_erased),
        (desk_code.pcm, _receiver_llr(desk_code, "SF", 0.5)),
        # ~70 % of these frames converge part-way: squeezes mid-decode.
        (desk_code.pcm, _receiver_llr(desk_code, "DF", 0.0)),
        # Most of these frames fall into a message cycle by iteration ~11;
        # 9, 17 and 23 make them leave it off-phase.
        (desk_code.pcm, _receiver_llr(desk_code, "PA", -12.0, mu_pas=60.0)),
    ]
    for pcm, llr in cases:
        for max_iter in (0, 1, 9, 17, 23, 50):
            bits, conv = bp_decode_batch(llr, pcm, max_iter)
            ref_bits, ref_conv = padded_bp_decode_batch(llr, pcm, max_iter)
            assert (bits == ref_bits).all() and (conv == ref_conv).all(), (pcm.n, max_iter)


def test_bp_cycle_exit_keeps_oscillating_decisions():
    # These frames' messages settle into a period-2 cycle whose hard
    # decisions flip every iteration, so a frame that left the cycle on
    # the wrong phase would return the other half's bits.
    pcm = LinearCode.generate(n=8, k=4, col_weight=3, seed=1).pcm
    llr = np.array([[-3, -3, 3, 3, -3, 3, 3, -3],
                    [-3, 3, -3, 3, 3, -3, 3, -3],
                    [3, -3, -3, 3, 3, 3, -3, -3]], dtype=np.float64)
    for max_iter in range(1, 61):
        bits, conv = bp_decode_batch(llr, pcm, max_iter)
        ref_bits, ref_conv = padded_bp_decode_batch(llr, pcm, max_iter)
        assert (bits == ref_bits).all() and (conv == ref_conv).all(), max_iter


def test_bp_cycle_exit_fires_on_pa(desk_code, monkeypatch):
    # Without the cycle exit every one of these frames runs all 50
    # iterations; with it, most leave soon after their cycle is found.
    rows = []
    checks_satisfied = linear_code._checks_satisfied

    def counting(hard, pcm):
        rows.append(hard.shape[0])
        return checks_satisfied(hard, pcm)

    monkeypatch.setattr(linear_code, "_checks_satisfied", counting)
    llr = _receiver_llr(desk_code, "PA", -12.0, mu_pas=60.0)
    bp_decode_batch(llr, desk_code.pcm, 50)
    assert sum(rows[1:]) <= 0.5 * 50 * llr.shape[0]


def test_syndrome_counts_ones_per_check(toy_code, desk_code):
    rng = np.random.default_rng(10)
    desk_cws = encode(rng.integers(0, 2, (5, 300), dtype=np.uint8), desk_code)
    for pcm, cws in ((toy_code.pcm, all_codewords(toy_code)[1]), (desk_code.pcm, desk_cws)):
        hard = np.concatenate([rng.integers(0, 2, (200, pcm.n), dtype=np.uint8), cws])
        counts = pcm.to_dense().astype(np.int64) @ hard.T
        assert (counts >= 2).any()  # a count-or-OR mix-up would show
        parity = counts % 2
        for bits in (hard, hard.astype(bool)):  # a bool H times bool bits ORs
            assert ((pcm.H @ bits.T) & 1 == parity).all()
            assert (_checks_satisfied(bits, pcm) == ~parity.any(axis=0)).all()
        assert _checks_satisfied(cws, pcm).all()


def test_alist_round_trip(tmp_path, toy_code):
    pcm = toy_code.pcm
    path = tmp_path / "toy.alist"
    save_alist(pcm, path)
    loaded = load_alist(path)
    assert loaded.n == pcm.n and loaded.n_checks == pcm.n_checks
    assert all((a == b).all() for a, b in zip(loaded.row_adj, pcm.row_adj))


def test_alist_known_small_matrix(tmp_path):
    # H = [[1,1,0,1],[0,1,1,0]] in alist text form
    text = "4 2\n2 2\n1 2 1 1\n3 2\n1 0\n1 2\n2 0\n1 0\n1 2 4 0\n2 3 0 0\n"
    path = tmp_path / "small.alist"
    path.write_text(text)
    pcm = load_alist(path)
    assert (pcm.to_dense() == [[1, 1, 0, 1], [0, 1, 1, 0]]).all()


def test_alist_unpadded_accepted(tmp_path):
    text = "4 2\n2 2\n1 2 1 1\n3 2\n1\n1 2\n2\n1\n1 2 4\n2 3\n"
    path = tmp_path / "small2.alist"
    path.write_text(text)
    assert (load_alist(path).to_dense() == [[1, 1, 0, 1], [0, 1, 1, 0]]).all()


def test_alist_malformed_rejected(tmp_path):
    path = tmp_path / "bad.alist"
    for text in [
        "4 2\n2 2\n1 2 1\n3 2\n",
        # column 1 lists check 1 twice
        "4 2\n2 2\n1 2 1 1\n3 2\n1 0\n1 1\n2 0\n1 0\n1 2 4 0\n2 3 0 0\n",
    ]:
        path.write_text(text)
        with pytest.raises(ValueError, match="malformed alist"):
            load_alist(path)


def test_linear_code_from_alist(tmp_path):
    pcm = LinearCode.generate(24, 12, col_weight=3, seed=1).pcm
    path = tmp_path / "c.alist"
    save_alist(pcm, path)
    code = LinearCode.from_alist(path)
    assert code.n == 24 and code.k == 12
    H = code.pcm.to_dense()
    msgs = np.eye(12, dtype=np.uint8)
    assert not (H @ encode(msgs, code).T % 2).any()
    # permutation maps systematic columns back to the loaded matrix
    perm = code.col_perm
    loaded = load_alist(path).to_dense()
    assert (loaded[:, perm] == H).all()


def test_parity_check_matrix_validation():
    with pytest.raises(ValueError):
        ParityCheckMatrix(4, [[0, 1], []])
    with pytest.raises(ValueError):
        ParityCheckMatrix(4, [[0, 5]])
    with pytest.raises(ValueError):
        ParityCheckMatrix(4, [[0, 1], [0, 1]])  # column 2,3 unused
