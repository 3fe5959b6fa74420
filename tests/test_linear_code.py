import itertools

import numpy as np
import pytest

from ffma.linear_code import (
    LinearCode,
    ParityCheckMatrix,
    bp_decode_batch,
    encode,
    ldpc_construct,
    load_alist,
    save_alist,
)

# Pinned toy code: (12, 6), column weight 3, d_min 4 (verified by
# exhaustive codeword enumeration below).
TOY = dict(n=12, k=6, col_weight=3, seed=2)


@pytest.fixture(scope="module")
def toy_code():
    pcm, gen = ldpc_construct(**TOY)
    return pcm, gen


def all_codewords(gen):
    msgs = np.array(list(itertools.product([0, 1], repeat=gen.k_total)), dtype=np.uint8)
    return msgs, encode(msgs, gen)


def test_construct_dimensions_and_weights(toy_code):
    pcm, gen = toy_code
    assert pcm.n_checks == 6 and pcm.n == 12
    assert (pcm.column_weights() == 3).all()
    assert gen.parity.shape == (6, 6)


def test_generator_orthogonal_to_checks(toy_code):
    pcm, gen = toy_code
    H = pcm.to_dense()
    msgs, cws = all_codewords(gen)
    assert not (H @ cws.T % 2).any()
    assert (cws[:, :6] == msgs).all()  # systematic prefix


def test_construct_rejects_bad_dimensions():
    with pytest.raises(ValueError):
        ldpc_construct(12, 12, col_weight=3, seed=0)
    with pytest.raises(ValueError):
        ldpc_construct(12, 14, col_weight=3, seed=0)
    with pytest.raises(ValueError):
        ldpc_construct(12, 6, col_weight=1, seed=0)
    with pytest.raises(ValueError):
        ldpc_construct(12, 6, col_weight=7, seed=0)


def test_construct_deterministic():
    a = ldpc_construct(60, 30, col_weight=3, seed=11)
    b = ldpc_construct(60, 30, col_weight=3, seed=11)
    assert all((ra == rb).all() for ra, rb in zip(a[0].row_adj, b[0].row_adj))
    assert (a[1].parity == b[1].parity).all()
    c = ldpc_construct(60, 30, col_weight=3, seed=12)
    assert any((ra != rc).any() for ra, rc in zip(a[0].row_adj, c[0].row_adj))


def test_girth_at_least_six_at_moderate_size():
    pcm, _ = ldpc_construct(120, 60, col_weight=3, seed=4)
    # no 4-cycles: any two columns share at most one check
    seen = set()
    for c, checks in enumerate(pcm.col_adj):
        for pair in itertools.combinations(sorted(checks), 2):
            assert pair not in seen, f"4-cycle at column {c}"
            seen.add(pair)


def test_encode_linearity(toy_code):
    _, gen = toy_code
    rng = np.random.default_rng(5)
    zero = encode(np.zeros(6, dtype=np.uint8), gen)
    assert not zero.any()
    for _ in range(50):
        a = rng.integers(0, 2, 6, dtype=np.uint8)
        b = rng.integers(0, 2, 6, dtype=np.uint8)
        assert (encode(a ^ b, gen) == encode(a, gen) ^ encode(b, gen)).all()


def test_encode_unit_message_is_generator_row(toy_code):
    _, gen = toy_code
    e1 = np.zeros(6, dtype=np.uint8)
    e1[0] = 1
    row = encode(e1, gen)
    assert row[0] == 1 and not row[1:6].any()
    assert (row[6:] == gen.parity[0]).all()


def test_encode_length_mismatch(toy_code):
    _, gen = toy_code
    with pytest.raises(ValueError):
        encode(np.zeros(5, dtype=np.uint8), gen)


def test_bp_noiseless_is_identity(toy_code):
    pcm, gen = toy_code
    _, cws = all_codewords(gen)
    dec, conv = bp_decode_batch(cws[::7].astype(np.float64), pcm)
    assert conv.all() and (dec == cws[::7]).all()


def test_bp_uninformative_priors_do_not_converge(toy_code):
    pcm, _ = toy_code
    dec, conv = bp_decode_batch(np.full((1, 12), 0.5), pcm, max_iter=30)
    assert not conv[0]
    assert not dec.any()  # zero LLRs resolve to bit 0


def test_bp_corrects_single_flip_matches_nearest_codeword(toy_code):
    pcm, gen = toy_code
    msgs, cws = all_codewords(gen)
    w = cws.sum(axis=1)
    assert w[w > 0].min() >= 3, "toy code must have d_min >= 3"
    msg = np.array([1, 0, 1, 1, 0, 1], dtype=np.uint8)
    cw = encode(msg, gen)
    for flip in range(12):
        p1 = np.where(cw == 1, 0.99, 0.01)
        p1[flip] = 1.0 - p1[flip]
        dec, conv = bp_decode_batch(p1[None, :], pcm)
        dec, conv = dec[0], conv[0]
        # independent oracle: nearest codeword in Hamming distance
        hard = (p1 > 0.5).astype(np.uint8)
        nearest = cws[np.argmin((cws != hard).sum(axis=1))]
        assert (nearest == cw).all()
        assert conv and (dec == nearest).all()


def test_bp_batch_matches_single(toy_code):
    # Frames are decoded independently: a batch gives what its frames give
    # as batches of one.
    pcm, gen = toy_code
    rng = np.random.default_rng(8)
    msgs = rng.integers(0, 2, size=(16, 6), dtype=np.uint8)
    cws = encode(msgs, gen)
    noisy = np.clip(np.where(cws == 1, 0.9, 0.1) + rng.normal(0, 0.05, cws.shape), 0.01, 0.99)
    batch_bits, batch_conv = bp_decode_batch(noisy, pcm, max_iter=20)
    for i in range(16):
        bits, conv = bp_decode_batch(noisy[i : i + 1], pcm, max_iter=20)
        assert (bits[0] == batch_bits[i]).all()
        assert conv[0] == batch_conv[i]


def test_alist_round_trip(tmp_path, toy_code):
    pcm, _ = toy_code
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
    path.write_text("4 2\n2 2\n1 2 1\n3 2\n")
    with pytest.raises(ValueError):
        load_alist(path)


def test_linear_code_from_alist(tmp_path):
    pcm, _ = ldpc_construct(24, 12, col_weight=3, seed=1)
    path = tmp_path / "c.alist"
    save_alist(pcm, path)
    code = LinearCode.from_alist(path)
    assert code.n == 24 and code.k == 12
    H = code.pcm.to_dense()
    msgs = np.eye(12, dtype=np.uint8)
    assert not (H @ encode(msgs, code.gen).T % 2).any()
    # permutation maps systematic columns back to the loaded matrix
    perm = code.gen.col_perm
    loaded = load_alist(path).to_dense()
    assert (loaded[:, perm] == H).all()


def test_parity_check_matrix_validation():
    with pytest.raises(ValueError):
        ParityCheckMatrix(4, [[0, 1], []])
    with pytest.raises(ValueError):
        ParityCheckMatrix(4, [[0, 5]])
    with pytest.raises(ValueError):
        ParityCheckMatrix(4, [[0, 1], [0, 1]])  # column 2,3 unused
