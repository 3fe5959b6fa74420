import math

import numpy as np
import pytest

from per_user_tx import aloha_transmit
from sim_oracle import reference_aloha_receive_batch

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
    r = aloha_cfsp_batch(bits, cfg)
    y = r + rng.normal(0.0, math.sqrt(0.8 / 2.0), size=r.shape)
    batch = aloha_receive_batch(y, cfg)
    for i in range(5):
        assert np.allclose(r[i], aloha_transmit(bits[i], cfg).sum(axis=0))
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


def _order_sensitive_draw(rng, shape):
    """Samples whose sum changes sign with the order of the additions:
    2**53 + 1 rounds back to 2**53, so which copies meet first decides
    whether a small one survives."""
    big = 2.0 ** 53
    return rng.choice(np.array([big, -big, 1.0, -1.0, 0.5, -0.5, 3.0, -3.0]), size=shape)


def test_combining_is_numpys_sum():
    # Below 8 copies numpy's sum adds them in order, as the receiver's loop
    # does, and from 8 on the receiver calls it, so even sums that hinge
    # on rounding decide alike.
    rng = np.random.default_rng(21)
    for repeat in (*range(1, 8), 8, 12, 24):
        cfg = AlohaConfig(n=3 * 5 * repeat, k=5, j_users=3)
        y = _order_sensitive_draw(rng, (4000, cfg.n))
        sums = y.reshape(-1, 3, 5, repeat).sum(axis=3)
        rx = aloha_receive_batch(y, cfg)
        assert (rx == (sums > 0)).all(), repeat
        if repeat >= 3:
            # the draw tells orders apart: in reverse, some signs flip
            backwards = y.reshape(-1, 3, 5, repeat)[..., ::-1]
            flipped = np.zeros(sums.shape)
            for c in range(repeat):
                flipped += backwards[..., c]
            assert ((flipped > 0) != (sums > 0)).any(), repeat


@pytest.mark.parametrize(
    "n, k, j_users",
    [(600, 5, j) for j in (1, 2, 3, 4, 5, 6, 8, 10, 12, 15, 20, 24, 30, 40, 60, 120)]
    + [(400, 25, 2)],  # criterion 5's repeat-8 layout
)
def test_combining_decisions_match_numpy_sum(n, k, j_users):
    # Every layout the desk code allows, on both sides of the switch from
    # the copy loop to numpy's sum.
    cfg = AlohaConfig(n=n, k=k, j_users=j_users)
    rng = np.random.default_rng(j_users)
    bits = rng.integers(0, 2, size=(300, j_users, k), dtype=np.uint8)
    r = aloha_cfsp_batch(bits, cfg)
    y = r + rng.normal(0.0, math.sqrt(cfg.repeat), size=r.shape)
    assert (aloha_receive_batch(y, cfg) == reference_aloha_receive_batch(y, cfg)).all()


def test_zero_sum_decides_zero():
    cfg = AlohaConfig(n=8, k=2, j_users=1)
    y = np.array([
        [0.5, -0.5, 0.25, -0.25, 1.0, -1.0, -0.5, 0.5],
        [0.0, -0.0, 0.0, -0.0, -0.0, -0.0, -0.0, -0.0],
    ])
    assert (aloha_receive_batch(y, cfg) == 0).all()


def test_criterion_5_draws_decide_as_numpy_sum():
    # Replays criterion 5's draws (tests/test_acceptance.py): the same
    # decisions mean its report line reads the same BERs.
    rng_master = np.random.default_rng(55)
    for rep, snr_dbs in ((2, (2.0, 4.0, 6.0)), (8, (-4.0, -2.0, 0.0))):
        for snr_db in snr_dbs:
            n0 = 1.0 / 10.0 ** (snr_db / 10.0)
            j_users, k = 2, 25
            cfg = AlohaConfig(n=j_users * k * rep, k=k, j_users=j_users)
            frames = 120_000 // (j_users * k)
            bits = rng_master.integers(0, 2, size=(frames, j_users, k), dtype=np.uint8)
            r = aloha_cfsp_batch(bits, cfg)
            y = r + rng_master.normal(0.0, math.sqrt(n0 / 2.0), size=r.shape)
            rx = aloha_receive_batch(y, cfg)
            assert (rx == reference_aloha_receive_batch(y, cfg)).all(), (rep, snr_db)
