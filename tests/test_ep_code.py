import itertools

import numpy as np
import pytest

from ffma.ep_code import (
    ElementPair,
    check_uspm,
    f_b2q,
    f_q2b,
    ffsp,
    orthogonal_ep_set,
)


def test_element_pair_must_differ():
    with pytest.raises(ValueError):
        ElementPair(3, 3)


def test_orthogonal_set_structure():
    pairs = orthogonal_ep_set(3, 3)
    assert [(p.e0, p.e1) for p in pairs] == [(0, 0b001), (0, 0b010), (0, 0b100)]
    with pytest.raises(ValueError):
        orthogonal_ep_set(3, 4)
    with pytest.raises(ValueError):
        orthogonal_ep_set(3, 0)
    assert orthogonal_ep_set(2, 1) == (ElementPair(0, 1),)
    assert orthogonal_ep_set(300, 300)[-1].e1 == 1 << 299


def test_orthogonal_supports_disjoint():
    pairs = orthogonal_ep_set(8, 8)
    for a, b in itertools.combinations(pairs, 2):
        assert a.e1 & b.e1 == 0


def test_f_b2q_switching():
    pair = ElementPair(0, 4)
    assert f_b2q(0, pair) == 0
    assert f_b2q(1, pair) == 4
    assert f_b2q(0, ElementPair(5, 6)) == 5
    with pytest.raises(ValueError):
        f_b2q(2, pair)


def test_ffsp_juxtaposes_orthogonal_bits():
    pairs = orthogonal_ep_set(3, 3)
    block = [f_b2q(b, p) for b, p in zip((1, 0, 1), pairs)]
    assert ffsp(block) == 0b101
    assert ffsp([0, 0, 0]) == 0
    assert ffsp([1, 1]) == 0  # characteristic 2


def test_ffsp_linear():
    rng = np.random.default_rng(3)
    for _ in range(200):
        u = rng.integers(0, 1 << 6, size=5)
        v = rng.integers(0, 1 << 6, size=5)
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
    pairs = orthogonal_ep_set(m, m)
    assert check_uspm(pairs)
    for bits in itertools.product((0, 1), repeat=m):
        w = ffsp(f_b2q(b, p) for b, p in zip(bits, pairs))
        assert tuple(f_q2b(w, j, m) for j in range(1, m + 1)) == bits


def test_uspm_detects_duplicated_pair():
    assert not check_uspm((ElementPair(0, 1), ElementPair(0, 1)))


def test_uspm_single_pair_trivially_unique():
    assert check_uspm((ElementPair(2, 3),))


def test_uspm_user_limit():
    pairs = orthogonal_ep_set(32, 25)
    with pytest.raises(ValueError):
        check_uspm(pairs)
    with pytest.raises(ValueError):
        check_uspm(())
    assert check_uspm(pairs[:12])


def test_uspm_on_basis_field_large_m():
    assert check_uspm(orthogonal_ep_set(300, 18))
