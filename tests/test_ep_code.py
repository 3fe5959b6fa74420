import itertools

import numpy as np
import pytest

from ffma.ep_code import (
    ElementPair,
    EpSet,
    bits_to_elements,
    check_uspm,
    elements_to_bits,
    encode_user_sequence,
    f_b2q,
    f_q2b,
    ffsp,
    orthogonal_ep_set,
)
from ffma.gf2m import BasisGF2m


def test_element_pair_must_differ():
    with pytest.raises(ValueError):
        ElementPair(3, 3)


def test_orthogonal_set_structure():
    f = BasisGF2m(3)
    eps = orthogonal_ep_set(f, 3)
    assert [(p.e0, f.to_tuple(p.e1)) for p in eps.pairs] == [
        (0, (1, 0, 0)),
        (0, (0, 1, 0)),
        (0, (0, 0, 1)),
    ]
    with pytest.raises(ValueError):
        orthogonal_ep_set(f, 4)
    single = orthogonal_ep_set(BasisGF2m(2), 1)
    assert single.pairs[0] == ElementPair(0, 1)


def test_orthogonal_supports_disjoint():
    f = BasisGF2m(8)
    eps = orthogonal_ep_set(f, 8)
    for a, b in itertools.combinations(eps.pairs, 2):
        assert a.e1 & b.e1 == 0


def test_f_b2q_switching():
    pair = ElementPair(0, 4)
    assert f_b2q(0, pair) == 0
    assert f_b2q(1, pair) == 4
    assert f_b2q(0, ElementPair(5, 6)) == 5
    with pytest.raises(ValueError):
        f_b2q(2, pair)


def test_encode_user_sequence_one_hot_layout():
    f = BasisGF2m(3)
    pair = orthogonal_ep_set(f, 3).pairs[1]  # user j=2
    seq = encode_user_sequence((1, 0, 1), pair)
    assert [f.to_tuple(e) for e in seq] == [(0, 1, 0), (0, 0, 0), (0, 1, 0)]
    assert encode_user_sequence((0, 0), pair) == [0, 0]
    assert encode_user_sequence([1], orthogonal_ep_set(f, 1).pairs[0]) == [1]


def test_ffsp_juxtaposes_orthogonal_bits():
    f = BasisGF2m(3)
    eps = orthogonal_ep_set(f, 3)
    block = [f_b2q(b, p) for b, p in zip((1, 0, 1), eps.pairs)]
    assert f.to_tuple(ffsp(block)) == (1, 0, 1)
    assert ffsp([0, 0, 0]) == 0
    assert ffsp([1, 1]) == 0  # characteristic 2


def test_ffsp_linear():
    rng = np.random.default_rng(3)
    f = BasisGF2m(6)
    for _ in range(200):
        u = rng.integers(0, f.order, size=5)
        v = rng.integers(0, f.order, size=5)
        assert ffsp(u) ^ ffsp(v) == ffsp([a ^ b for a, b in zip(u, v)])


def test_f_q2b_components():
    w = 0b101  # tuple (1,0,1)
    assert f_q2b(w, 1, 3) == 1
    assert f_q2b(w, 2, 3) == 0
    assert f_q2b(0, 2, 3) == 0
    with pytest.raises(ValueError):
        f_q2b(w, 4, 3)
    with pytest.raises(ValueError):
        f_q2b(w, 0, 3)


@pytest.mark.parametrize("m", range(2, 11))
def test_uspm_round_trip_exhaustive(m):
    f = BasisGF2m(m)
    eps = orthogonal_ep_set(f, m)
    assert check_uspm(eps)
    for bits in itertools.product((0, 1), repeat=m):
        w = ffsp(f_b2q(b, p) for b, p in zip(bits, eps.pairs))
        assert tuple(f_q2b(w, j, m) for j in range(1, m + 1)) == bits


def test_uspm_detects_duplicated_pair():
    dup = EpSet(pairs=(ElementPair(0, 1), ElementPair(0, 1)))
    assert not check_uspm(dup)


def test_uspm_single_pair_trivially_unique():
    assert check_uspm(EpSet(pairs=(ElementPair(2, 3),)))


def test_uspm_user_limit():
    f = BasisGF2m(32)
    eps = orthogonal_ep_set(f, 25)
    with pytest.raises(ValueError):
        check_uspm(eps)
    assert check_uspm(eps, j_users=12)


def test_uspm_on_basis_field_large_m():
    f = BasisGF2m(300)
    eps = orthogonal_ep_set(f, 18)
    assert check_uspm(eps)


def test_element_bit_flattening_round_trip():
    f = BasisGF2m(4)
    rng = np.random.default_rng(9)
    seq = [int(e) for e in rng.integers(0, 16, size=6)]
    bits = elements_to_bits(seq, 4)
    assert bits.shape == (24,)
    assert bits_to_elements(bits, 4) == seq
    assert list(elements_to_bits([f.from_tuple((0, 1, 1, 0))], 4)) == [0, 1, 1, 0]
    with pytest.raises(ValueError):
        bits_to_elements(np.zeros(10, dtype=np.uint8), 4)
