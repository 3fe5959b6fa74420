import pytest

from ffma.gf2m import BasisGF2m


@pytest.mark.parametrize("m", [2, 5, 16])
def test_m_range(m):
    assert BasisGF2m(m).order == 1 << m
    for bad in (0, 1):
        with pytest.raises(ValueError):
            BasisGF2m(bad)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_characteristic_two(m):
    f = BasisGF2m(m)
    for e in range(f.order):
        assert f.add(e, e) == 0
        assert f.add(e, 0) == e


def test_add_is_xor_of_tuples():
    f = BasisGF2m(3)
    assert f.add(f.from_tuple((1, 0, 1)), f.from_tuple((0, 0, 1))) == f.from_tuple((1, 0, 0))


def test_power_of_alpha_one_hot_and_range():
    f = BasisGF2m(3)
    assert f.to_tuple(f.power_of_alpha(0)) == (1, 0, 0)
    assert f.to_tuple(f.power_of_alpha(2)) == (0, 0, 1)
    f2 = BasisGF2m(2)
    with pytest.raises(ValueError):
        f2.power_of_alpha(2)
    with pytest.raises(ValueError):
        f2.power_of_alpha(-1)


@pytest.mark.parametrize("m", [2, 3, 7])
def test_tuple_round_trip(m):
    f = BasisGF2m(m)
    seen = set()
    for e in range(f.order):
        t = f.to_tuple(e)
        assert f.from_tuple(t) == e
        seen.add(t)
    assert len(seen) == f.order


def test_basis_field_large_m():
    f = BasisGF2m(300)
    a = f.power_of_alpha(0)
    b = f.power_of_alpha(299)
    assert a == 1 and b == 1 << 299
    assert f.add(a, b) == a | b
    assert f.add(b, b) == 0
    assert f.to_tuple(b)[299] == 1
    assert f.from_tuple(f.to_tuple(a ^ b)) == a ^ b
    with pytest.raises(ValueError):
        f.power_of_alpha(300)
