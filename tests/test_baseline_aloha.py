import math

import numpy as np
import pytest

from per_user_tx import aloha_transmit

from ffma.baseline_aloha import AlohaConfig, aloha_cfsp_batch, aloha_receive_batch


def test_config_derived_values():
    cfg = AlohaConfig(n=12, k=3, j_users=2)
    assert cfg.slot_len == 6 and cfg.repeat == 2
    assert AlohaConfig(n=6000, k=10, j_users=300).repeat == 2
    assert AlohaConfig(n=6000, k=10, j_users=1).repeat == 600


def test_config_divisibility_rejected():
    with pytest.raises(ValueError):
        AlohaConfig(n=10, k=3, j_users=2)
    with pytest.raises(ValueError):
        AlohaConfig(n=12, k=5, j_users=2)
    with pytest.raises(ValueError):
        AlohaConfig(n=12, k=3, j_users=0)


def test_slots_are_orthogonal():
    cfg = AlohaConfig(n=24, k=3, j_users=4)
    rng = np.random.default_rng(0)
    bits = rng.integers(0, 2, size=(4, 3), dtype=np.uint8)
    x = aloha_transmit(bits, cfg)
    for j in range(4):
        support = np.flatnonzero(x[j])
        assert support.min() >= j * 6 and support.max() < (j + 1) * 6
        assert support.size == 6
    for i in range(4):
        for j in range(i + 1, 4):
            assert not (x[i] * x[j]).any()


def test_noiseless_recovery():
    cfg = AlohaConfig(n=30, k=5, j_users=3)
    rng = np.random.default_rng(1)
    bits = rng.integers(0, 2, size=(20, 3, 5), dtype=np.uint8)
    assert (aloha_receive_batch(aloha_cfsp_batch(bits, cfg), cfg) == bits).all()


def test_single_user_unit_repeat_is_hard_bpsk():
    cfg = AlohaConfig(n=4, k=4, j_users=1)
    y = np.array([[0.3, -0.1, 2.0, -0.7], [0.0, 0.0, 1.0, -1.0]])
    rx = aloha_receive_batch(y, cfg)
    assert list(rx[0, 0]) == [1, 0, 1, 0]
    assert list(rx[1, 0]) == [0, 0, 1, 0]


def test_batch_matches_single_and_cfsp():
    cfg = AlohaConfig(n=24, k=2, j_users=4)
    rng = np.random.default_rng(2)
    bits = rng.integers(0, 2, size=(5, 4, 2), dtype=np.uint8)
    r = aloha_cfsp_batch(bits, cfg, p_avg=1.5)
    y = r + rng.normal(0.0, math.sqrt(0.8 / 2.0), size=r.shape)
    batch = aloha_receive_batch(y, cfg)
    for i in range(5):
        assert np.allclose(r[i], aloha_transmit(bits[i], cfg, p_avg=1.5).sum(axis=0))
        single = aloha_receive_batch(y[i : i + 1], cfg)[0]
        assert (single == batch[i]).all()


def test_ber_matches_q_function_quick():
    # one operating point; the acceptance suite covers the full 3-point sweep
    L, gamma_db = 4, -2.0
    gamma = 10 ** (gamma_db / 10)
    n0 = 1.0 / gamma
    cfg = AlohaConfig(n=40 * L, k=40, j_users=1)
    rng = np.random.default_rng(12)
    bits = rng.integers(0, 2, size=(60, 1, 40), dtype=np.uint8)
    r = aloha_cfsp_batch(bits, cfg)
    y = r + rng.normal(0.0, math.sqrt(n0 / 2.0), size=r.shape)
    errors = int((aloha_receive_batch(y, cfg) != bits).sum())
    total = bits.size
    expected = 0.5 * math.erfc(math.sqrt(2 * L * gamma) / math.sqrt(2))
    sigma = math.sqrt(expected * (1 - expected) / total)
    assert abs(errors / total - expected) < 4 * sigma + 1e-12
