import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import expit
from scipy.stats import binom

from map_oracle import bitwise_map, codebook
from mixture_oracle import bisection_posterior, full_mixture_posterior
from per_user_tx import df_transmit, encode, pa_transmit, sf_transmit, transmit, user_parity

import ffma.ffma_system as ffma_system
from ffma.ep_code import f_b2q, f_q2b, ffsp, orthogonal_ep_set
from ffma.experiment import ExperimentSpec, per_user_frame_energy
from ffma.ffma_system import SystemConfig, cfsp_posterior, receive_batch, transmit_cfsp_batch
from ffma.linear_code import LinearCode, ParityCheckMatrix, bp_decode_batch


@pytest.fixture(scope="module")
def code96():
    return LinearCode.generate(96, 32, col_weight=3, seed=3)


@pytest.fixture(scope="module")
def code16():
    return LinearCode.generate(16, 8, col_weight=3, seed=2)


@pytest.fixture(scope="module")
def code600():
    return LinearCode.generate(600, 300, col_weight=3, seed=7)


def posterior_oracle(y, j_users, amplitude, n0):
    """Enumerate all 2^J user-bit patterns; sum Gaussian likelihoods."""
    exps, pars = [], []
    for bits in itertools.product((0, 1), repeat=j_users):
        s = amplitude * sum(2 * b - 1 for b in bits)
        exps.append(-((y - s) ** 2) / n0)
        pars.append(sum(bits) % 2)
    mx = max(exps)
    ws = [math.exp(e - mx) for e in exps]
    tot = sum(ws)
    p1 = sum(w for w, p in zip(ws, pars) if p) / tot
    return 1.0 - p1, p1


# ---------------------------------------------------------------------------
# Posteriors
# ---------------------------------------------------------------------------

def test_posterior_single_user_saturates():
    p1 = expit(-cfsp_posterior(50.0, 1, 1.0, 1.0))
    assert p1 > 1 - 1e-12
    p0 = expit(cfsp_posterior(-50.0, 1, 1.0, 1.0))
    assert p0 > 1 - 1e-12


def test_posterior_single_user_is_bpsk_sigmoid():
    rng = np.random.default_rng(2)
    for _ in range(100):
        y = rng.normal(0, 2)
        a = rng.uniform(0.3, 2.0)
        n0 = rng.uniform(0.05, 3.0)
        p1 = expit(-cfsp_posterior(y, 1, a, n0))
        assert abs(p1 - 1.0 / (1.0 + math.exp(-4 * a * y / n0))) < 1e-12


def test_posterior_normalization_and_oracle():
    rng = np.random.default_rng(7)
    for j in range(1, 7):
        for _ in range(200):
            a = rng.uniform(0.2, 2.0)
            n0 = rng.uniform(0.05, 4.0)
            y = rng.uniform(-1.5 * j * a, 1.5 * j * a)
            llr = cfsp_posterior(y, j, a, n0)
            p0, p1 = expit(llr), expit(-llr)
            assert abs(p0 + p1 - 1.0) < 1e-12
            q0, q1 = posterior_oracle(y, j, a, n0)
            assert abs(p1 - q1) < 1e-9


def test_posterior_symmetry_against_oracle():
    rng = np.random.default_rng(9)
    for j in range(1, 7):
        for _ in range(50):
            a = rng.uniform(0.3, 1.5)
            n0 = rng.uniform(0.1, 2.0)
            y = rng.uniform(0, j * a + 2)
            p1_pos = expit(-cfsp_posterior(y, j, a, n0))
            p1_neg = expit(-cfsp_posterior(-y, j, a, n0))
            _, q1_pos = posterior_oracle(y, j, a, n0)
            _, q1_neg = posterior_oracle(-y, j, a, n0)
            assert abs(p1_pos - q1_pos) < 1e-9
            assert abs(p1_neg - q1_neg) < 1e-9


def test_posterior_vectorized_matches_scalar():
    y = np.linspace(-4, 4, 17)
    llr = cfsp_posterior(y, 3, 0.8, 0.7)
    p0, p1 = expit(llr), expit(-llr)
    for i, yi in enumerate(y):
        llr_i = cfsp_posterior(float(yi), 3, 0.8, 0.7)
        s0, s1 = expit(llr_i), expit(-llr_i)
        assert abs(p0[i] - s0) < 1e-15 and abs(p1[i] - s1) < 1e-15


@pytest.mark.parametrize("j_users", [2, 30, 60, 300])
def test_posterior_one_sample_equals_array_entry_bit_for_bit(j_users):
    # A one-sample call, scalar or one-element array, must give the bits of
    # that sample's entry in an array call (a per-frame reference compared
    # bit for bit relies on it); windowed (a = 0.3) and whole-mixture cases.
    rng = np.random.default_rng(70 + j_users)
    for a, n0 in ((0.3, 0.2154), (0.3 / j_users, 3.0)):
        y = rng.uniform(-a * j_users - 1.0, a * j_users + 1.0, 300)
        whole = cfsp_posterior(y, j_users, a, n0)
        scalar = np.array([cfsp_posterior(float(v), j_users, a, n0) for v in y])
        single = np.concatenate([cfsp_posterior(y[i:i + 1], j_users, a, n0)
                                 for i in range(y.size)])
        nested = cfsp_posterior(y[:1, None], j_users, a, n0)
        assert scalar.tobytes() == whole.tobytes(), (a, n0)
        assert single.tobytes() == whole.tobytes(), (a, n0)
        assert nested.shape == (1, 1) and nested.tobytes() == whole[:1].tobytes()


@pytest.mark.parametrize("j_users", [1, 2, 30, 60, 300])
def test_windowed_llr_matches_full_mixture_at_extremes(j_users):
    # The window keeps only the levels near the likelihood's peak; against
    # every level of the full mixture the LLR must agree to 1e-9 wherever
    # the reference is finite, and in sign where it saturates.  The
    # reference saturates once its weaker probability leaves the normal
    # float range: a subnormal keeps too few bits for its log to be exact
    # (|log p0/p1| > ~708), and zero gives an infinite LLR.
    rng = np.random.default_rng(300 + j_users)
    for a in (0.3, 1.0, 2.5):
        span = 10.0 * a * j_users
        y = np.concatenate([
            a * (2.0 * np.arange(j_users + 1) - j_users),          # centres
            a * (2.0 * np.arange(j_users) + 1.0 - j_users),        # midpoints
            np.array([-span, span, -a * j_users - 3.0, a * j_users + 3.0]),
            rng.uniform(-span, span, size=200),
        ])
        for n0 in np.logspace(-4.0, 2.0, 13):
            llr = cfsp_posterior(y, j_users, a, n0)
            p0, p1 = full_mixture_posterior(y, j_users, a, n0)
            with np.errstate(divide="ignore"):
                ref = np.log(p0) - np.log(p1)
            finite = np.minimum(p0, p1) >= np.finfo(np.float64).tiny
            assert np.abs(llr - ref)[finite].max(initial=0.0) <= 1e-9, (a, n0)
            assert (np.sign(llr) == np.sign(ref))[~finite].all(), (a, n0)


@pytest.mark.parametrize("j_users", [1, 2, 3, 7, 30, 60, 61, 300])
def test_posterior_equals_bisection_window_bit_for_bit(j_users):
    # The sorted-search window centre and the J = 1 closed form against the
    # bisection detector they replace, from the windowed regime (n0 small)
    # to the whole mixture (n0 large), at the level centres and out to
    # +-1e5.
    rng = np.random.default_rng(500 + j_users)
    regimes = set()
    for a in (0.3, 1.0, 2.5):
        centres = a * (2.0 * np.arange(j_users + 1) - j_users)
        y = np.concatenate([
            centres, centres + a, np.array([0.0, -0.0]),
            np.array([-1e5, 1e5, -1e3, 1e3]), -np.logspace(-3.0, 5.0, 40),
            np.logspace(-3.0, 5.0, 40), rng.uniform(-3.0 * a * j_users, 3.0 * a * j_users, 300),
        ])
        for n0 in np.logspace(-3.0, 2.0, 16):
            kappa = 8.0 * a * a / n0
            half = min(j_users, math.floor((ffma_system._TAIL / kappa + 1.0) / 2.0) + 1)
            regimes.add(2 * half + 1 <= j_users)
            llr = cfsp_posterior(y, j_users, a, n0)
            ref = bisection_posterior(y, j_users, a, n0)
            assert np.isfinite(ref).all(), (a, n0)
            assert (llr.view(np.int64) == ref.view(np.int64)).all(), (a, n0)
            one = float(y[-1])
            assert cfsp_posterior(one, j_users, a, n0) == bisection_posterior(one, j_users, a, n0)
    # J = 1 and 2 never take the window; every larger J takes both paths.
    assert regimes == ({False} if j_users <= 2 else {False, True})


def test_window_steps_fall_strictly():
    # The sorted search counts the levels with d_i > 0 only if -step is
    # sorted; wherever the window is used it must rise at every level.
    windows = 0
    for j_users in (2, 3, 7, 30, 60, 61, 128, 255, 256, 300):
        log_comb = ffma_system._log_comb(j_users)
        for a in (0.1, 0.3, 1.0, 2.5):
            for n0 in np.logspace(-4.0, 2.0, 61):
                scale = 4.0 * a / n0
                half = min(j_users,
                           math.floor((ffma_system._TAIL / (2.0 * a * scale) + 1.0) / 2.0) + 1)
                if 2 * half + 1 > j_users:
                    continue
                windows += 1
                neg_step = -(np.append(np.diff(log_comb), -np.inf)
                             - (a * scale) * (2.0 * np.arange(j_users + 1) + 1.0 - j_users))
                assert (np.diff(neg_step) > 0).all(), (j_users, a, n0)
    assert windows > 500


def test_single_user_overflow_is_infinite_and_clamped_by_bp(code96):
    # At n0 = 1e-3, scale*(y + a) overflows for |y| = 1e305.  The whole-
    # mixture path gave NaN there (inf - inf); the closed form gives -+inf,
    # which BP clamps like any other saturated prior.
    y = np.array([1e305, -1e305, 1.0])
    with np.errstate(over="ignore", invalid="ignore"):
        old = bisection_posterior(y, 1, 1.0, 1e-3)
        new = cfsp_posterior(y, 1, 1.0, 1e-3)
    assert np.isnan(old[:2]).all() and new[0] == -np.inf and new[1] == np.inf
    assert new[2] == old[2] == -4000.0
    pcm = code96.pcm
    llr = np.full((2, pcm.n), 5.0)
    llr[0, :2] = new[:2]
    llr[1, :2] = (-40.0, 40.0)
    bits, conv = bp_decode_batch(llr, pcm, 50)
    assert (bits[0] == bits[1]).all() and conv[0] == conv[1]


def test_single_user_llr_is_textbook_at_any_distance():
    # One user: LLR = -4*a*y/n0 exactly, even where P(odd) underflows
    # (each parity class is scaled by its own maximum, so neither sum is 0).
    y = np.concatenate([-np.logspace(-3.0, 4.0, 50), np.logspace(-3.0, 4.0, 50)])
    for a in (0.3, 1.0, 2.5):
        for n0 in np.logspace(-4.0, 2.0, 7):
            llr = cfsp_posterior(y, 1, a, n0)
            assert np.allclose(llr, -4.0 * a * y / n0, rtol=1e-9, atol=1e-9), (a, n0)


def test_posterior_validation():
    with pytest.raises(ValueError):
        cfsp_posterior(0.0, 0, 1.0, 1.0)
    with pytest.raises(ValueError):
        cfsp_posterior(0.0, 1, 0.0, 1.0)
    with pytest.raises(ValueError):
        cfsp_posterior(0.0, 1, 1.0, 0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="amplitude must be positive and finite"):
            cfsp_posterior(0.0, 3, bad, 1.0)
        with pytest.raises(ValueError, match="n0 must be positive and finite"):
            cfsp_posterior(0.0, 3, 1.0, bad)
    # A subnormal n0 overflows 8 a^2 (J+1)^2 / n0, and the LLRs came out NaN.
    for j_users in (1, 3):
        with pytest.raises(ValueError, match=r"leave 8 a\^2 \(J\+1\)\^2 / n0 finite"):
            cfsp_posterior(np.array([0.5, 1.0, 3.0]), j_users, 1.0, 1e-320)


@pytest.mark.parametrize("n0", [math.nan, math.inf, 1e-320, 0.0, -1.0])
@pytest.mark.parametrize("mode", ["SF", "DF", "PA"])
def test_config_rejects_a_noise_level_the_detector_cannot_use(code96, mode, n0):
    # NaN failed in the receiver's integer window, inf divided by zero, and
    # the subnormal 1e-320 overflowed 8 a^2 (J+1)^2 / n0 into NaN LLRs.
    with pytest.raises(ValueError, match="must be positive and leave the detector"):
        SystemConfig(code=code96, k=4, j_users=2, mode=mode, mu_pas=2.0, n0=n0)
    assert ffma_system.detector_is_finite(1e-300, 1.0, 2)
    assert not ffma_system.detector_is_finite(n0, 1.0, 2)


# ---------------------------------------------------------------------------
# Power allocation
# ---------------------------------------------------------------------------

def test_pa_allocation_satisfies_power_constraint(code96):
    cfg = SystemConfig(code96, 4, 4, "PA", mu_pas=8.0)
    mu1, mu2 = cfg.a_info**2, cfg.a_par**2
    assert math.isclose(mu1 / mu2, 8.0, rel_tol=1e-12)
    assert math.isclose(cfg.n, cfg.k * mu1 + (cfg.n - cfg.m * cfg.k) * mu2, rel_tol=1e-12)


def test_pa_allocation_full_scale_values():
    # The closed form only involves (n, k, m, mu_pas), so a hand-made
    # systematic (6000, 3000) code H = [I | I], P = I stands in for PEG.
    eye = np.arange(3000)
    code = LinearCode(ParityCheckMatrix(6000, np.stack([eye, eye + 3000], axis=1)),
                      np.eye(3000, dtype=np.uint8), np.arange(6000))
    cfg = SystemConfig(code, 10, 1, "PA", mu_pas=300.0)
    assert (cfg.n, cfg.m) == (6000, 300)
    assert math.isclose(cfg.a_info**2, 300.0) and math.isclose(cfg.a_par**2, 1.0)
    cfg = SystemConfig(code, 10, 1, "PA", mu_pas=1.0)
    expect = 6000 / (6000 - 299 * 10)
    assert math.isclose(cfg.a_info**2, expect) and math.isclose(cfg.a_par**2, expect)


def test_pa_allocation_bounds(code96):
    with pytest.raises(ValueError):
        SystemConfig(code96, 4, 4, "PA", mu_pas=9.0)  # mu_pas > m
    with pytest.raises(ValueError):
        SystemConfig(code96, 4, 4, "PA", mu_pas=0.5)
    cfg_df = SystemConfig(code96, 4, 4, "DF", mu_pas=9.0)  # mu_pas is PA's alone
    assert cfg_df.a_info == cfg_df.a_par == 1.0


def test_pa_energy_conservation(code96):
    rng = np.random.default_rng(0)
    for mu in (1.0, 3.0, 8.0):
        cfg = SystemConfig(code96, 4, 5, "PA", mu_pas=mu)
        bits = rng.integers(0, 2, size=(5, 4), dtype=np.uint8)
        x = pa_transmit(bits, cfg)
        spec = ExperimentSpec(system="PA", n=96, k=4, m=8, mu_pas=mu)
        for j in range(5):
            assert abs((x[j] ** 2).sum() - cfg.n) < 1e-9
            assert abs((x[j] ** 2).sum() - per_user_frame_energy(spec, 5)) < 1e-9


def test_pa_amplitude_ratio_and_degenerate_case(code96):
    rng = np.random.default_rng(1)
    bits = rng.integers(0, 2, size=(4, 4), dtype=np.uint8)
    cfg = SystemConfig(code96, 4, 4, "PA", mu_pas=4.0)
    x = pa_transmit(bits, cfg)
    info = np.abs(x[0, :4][x[0, :4] != 0])
    par = np.abs(x[0, 32:])
    assert np.allclose(info.max() / par.max(), math.sqrt(4.0))
    # mu_pas = 1 makes both scales equal: PA = DF * sqrt(mu1)
    cfg1 = SystemConfig(code96, 4, 4, "PA", mu_pas=1.0)
    assert math.isclose(cfg1.a_info, cfg1.a_par)
    cfg_df = SystemConfig(code96, 4, 4, "DF")
    assert np.allclose(pa_transmit(bits, cfg1), cfg1.a_info * df_transmit(bits, cfg_df))


# ---------------------------------------------------------------------------
# Transmitters
# ---------------------------------------------------------------------------

def test_sf_all_zero_and_antipodal_levels(code96):
    cfg = SystemConfig(code96, 4, 3, "SF")
    x = sf_transmit(np.zeros((3, 4), dtype=np.uint8), cfg)
    assert (x == -1.0).all()
    rng = np.random.default_rng(4)
    x = sf_transmit(rng.integers(0, 2, (3, 4), dtype=np.uint8), cfg)
    assert set(np.unique(np.abs(x))) == {1.0}


def test_sf_two_user_ffsp_information_section(code16):
    # J = m = 2 users inside the m=4 field, k=2, both sending bit 1 in
    # block 0: the sum-pattern information section juxtaposes the bits.
    cfg = SystemConfig(code16, 2, 2, "SF")
    bits = np.zeros((2, 2), dtype=np.uint8)
    bits[0, 0] = 1
    bits[1, 0] = 1
    x = sf_transmit(bits, cfg)
    n_plus = (x.sum(axis=0) + 2) / 2  # number of users sending +1
    w = np.zeros(8, dtype=np.uint8)
    w[0] = 1  # user 1, block 0, tuple position 0
    w[1] = 1  # user 2, block 0, tuple position 1
    assert ((n_plus[:8].astype(int) % 2) == w).all()


@pytest.mark.parametrize("j_users", [1, 2, 5, 8])
def test_sf_information_section_is_orthogonal_ep_sum(code96, j_users):
    # The batched SF transmitter against the paper's definition: user j
    # maps bit b to f_b2q(b, (0, alpha^(j-1))) in each block, and tuple
    # position i of the sum pattern is sent as one antipodal symbol per user.
    cfg = SystemConfig(code96, 4, j_users, "SF")
    m, k = cfg.m, cfg.k
    pairs = orthogonal_ep_set(m, j_users)
    rng = np.random.default_rng(20 + j_users)
    bits = rng.integers(0, 2, size=(6, j_users, k), dtype=np.uint8)
    r = transmit_cfsp_batch(bits, cfg)
    for f, b in itertools.product(range(bits.shape[0]), range(k)):
        elements = [f_b2q(int(bits[f, j, b]), pairs[j]) for j in range(j_users)]
        w = ffsp(elements)
        for i in range(m):
            total = sum(2 * f_q2b(e, i + 1, m) - 1 for e in elements)
            assert r[f, b * m + i] == total
            assert ((total + j_users) // 2) % 2 == f_q2b(w, i + 1, m)


def test_df_support_and_shortened_length(code96):
    cfg = SystemConfig(code96, 4, 6, "DF")
    rng = np.random.default_rng(5)
    bits = rng.integers(0, 2, size=(6, 4), dtype=np.uint8)
    x = df_transmit(bits, cfg)
    shortened = cfg.n - (cfg.m - 1) * cfg.k
    for j in range(6):
        support = np.flatnonzero(x[j])
        info = support[support < 32]
        assert set(info) <= set(range(j * 4, (j + 1) * 4))
        assert (np.abs(x[j, 32:]) > 0).all()
        assert support.size <= shortened
    for i, j in itertools.combinations(range(6), 2):
        a = np.flatnonzero(x[i][:32])
        b = np.flatnonzero(x[j][:32])
        assert not set(a) & set(b)


def test_df_shortened_length_headline_numbers():
    assert 6000 - (300 - 1) * 10 == 3010


def test_df_parity_matches_padded_message_encoding(code96):
    cfg = SystemConfig(code96, 4, 3, "DF")
    rng = np.random.default_rng(6)
    bits = rng.integers(0, 2, size=(3, 4), dtype=np.uint8)
    x = df_transmit(bits, cfg)
    for j in range(3):
        padded = np.zeros(32, dtype=np.uint8)
        padded[j * 4 : (j + 1) * 4] = bits[j]
        cw = encode(padded, code96)
        assert np.allclose(x[j, 32:], 2.0 * cw[32:] - 1.0)


def test_transmit_mode_guards(code96):
    cfg_sf = SystemConfig(code96, 4, 2, "SF")
    cfg_df = SystemConfig(code96, 4, 2, "DF")
    bits = np.zeros((2, 4), dtype=np.uint8)
    with pytest.raises(ValueError):
        sf_transmit(bits, cfg_df)
    with pytest.raises(ValueError):
        df_transmit(bits, cfg_sf)
    with pytest.raises(ValueError):
        pa_transmit(bits, cfg_df)
    with pytest.raises(ValueError):
        sf_transmit(np.zeros((3, 4), dtype=np.uint8), cfg_sf)


def test_config_validation(code96):
    cfg = SystemConfig(code96, 4, 2, "SF")
    assert (cfg.n, cfg.m) == (96, 8)  # n = code.n, m = code.k / k
    assert (SystemConfig(code96, 32, 1, "DF").m, SystemConfig(code96, 1, 1, "DF").m) == (1, 32)
    with pytest.raises(ValueError):
        SystemConfig(code96, 4, 9, "SF")  # J > m
    for k in (0, -4, 5, 64):  # k < 1, or k does not divide code.k = 32
        with pytest.raises(ValueError, match="divide the code message length 32"):
            SystemConfig(code96, k, 2, "SF")
    with pytest.raises(ValueError):
        SystemConfig(code96, 4, 2, "XX")


def test_mode_layout_rejects_an_unknown_mode_and_m_below_one():
    # The layout is each mode's one home, so it checks the mode itself: a
    # lower-case "sf" is no mode, not a PA layout.  m < 1 is named before J.
    with pytest.raises(ValueError, match="mode must be one of"):
        ffma_system.mode_layout("sf", 96, 4, 8, 2, 2.0)
    for mode in ("SF", "DF", "PA"):
        with pytest.raises(ValueError, match=f"^{mode} needs an extension degree m >= 1, got m=0$"):
            ffma_system.mode_layout(mode, 96, 4, 0, 1)


# ---------------------------------------------------------------------------
# Receiver round trips
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mode", ["SF", "DF", "PA"])
@pytest.mark.parametrize("j_users", [1, 2, 8])
def test_noiseless_round_trip(code96, mode, j_users):
    cfg = SystemConfig(
        code96, 4, j_users, mode,
        mu_pas=8.0 if mode == "PA" else 1.0, n0=1e-4,
    )
    rng = np.random.default_rng(100 + j_users)
    bits = rng.integers(0, 2, size=(25, j_users, 4), dtype=np.uint8)
    rx, conv = receive_batch(transmit_cfsp_batch(bits, cfg), cfg)
    assert (rx == bits).all()
    assert conv.all()


def test_all_zero_user_round_trip(code96):
    # A user whose k bits are all 0 sends the zero element; its bits come
    # back like anyone else's.
    bits = np.array([[[1, 0, 1, 1], [0, 0, 0, 0], [1, 1, 1, 1]]], dtype=np.uint8)
    for mode in ("SF", "DF", "PA"):
        cfg = SystemConfig(code96, 4, 3, mode, mu_pas=4.0 if mode == "PA" else 1.0, n0=1e-4)
        rx, _conv = receive_batch(transmit_cfsp_batch(bits, cfg), cfg)
        assert list((rx != bits).sum(axis=2)[0]) == [0, 0, 0], mode


def test_noiseless_hard_map_equals_codeword_xor(code16):
    # exhaustive: superposed SF signals, thresholded posteriors, all J <= 4
    for j_users in (2, 4):
        cfg = SystemConfig(code16, 2, j_users, "SF", n0=1e-3)
        for flat in itertools.product((0, 1), repeat=j_users * 2):
            bits = np.array(flat, dtype=np.uint8).reshape(j_users, 2)
            x = transmit(bits, cfg)
            r = x.sum(axis=0)
            p1 = expit(-cfsp_posterior(r, j_users, 1.0, cfg.n0))
            v_hat = (p1 > 0.5).astype(np.uint8)
            cw_xor = np.zeros(16, dtype=np.uint8)
            for row in x:
                cw_xor ^= (row > 0).astype(np.uint8)
            assert (v_hat == cw_xor).all()


def test_receive_batch_matches_single(code96):
    # Frames are decoded independently: a batch gives what its frames give
    # as batches of one.
    cfg = SystemConfig(code96, 4, 4, "DF", n0=0.4)
    rng = np.random.default_rng(11)
    bits = rng.integers(0, 2, size=(6, 4, 4), dtype=np.uint8)
    r = transmit_cfsp_batch(bits, cfg)
    ys = r + rng.normal(0.0, math.sqrt(cfg.n0 / 2.0), size=r.shape)
    rx_b, conv_b = receive_batch(ys, cfg)
    for i in range(6):
        rx, conv = receive_batch(ys[i : i + 1], cfg)
        assert (rx[0] == rx_b[i]).all()
        assert conv[0] == conv_b[i]


@pytest.mark.parametrize("mode", ["SF", "DF", "PA"])
def test_bp_decodes_only_sent_coordinates(code96, mode, monkeypatch):
    # DF/PA hand BP the J*k sent message columns and the n - m*k parity
    # columns, on the code shortened to them; SF hands it all n columns.
    seen = []
    bp_decode_batch = ffma_system.bp_decode_batch

    def recording(llr, pcm, max_iter):
        seen.append((llr.shape, pcm))
        return bp_decode_batch(llr, pcm, max_iter)

    monkeypatch.setattr(ffma_system, "bp_decode_batch", recording)
    for j_users in (1, 5, 8):
        cfg = SystemConfig(code96, 4, j_users, mode, mu_pas=4.0 if mode == "PA" else 1.0)
        bits = np.zeros((3, j_users, 4), dtype=np.uint8)
        receive_batch(transmit_cfsp_batch(bits, cfg), cfg)
        shape, pcm = seen.pop()
        width = 96 if mode == "SF" else j_users * 4 + 96 - 32
        assert shape == (3, width) and pcm.n == width, j_users
        assert pcm is code96.shortened(cfg.n_info)
        assert (pcm is code96.pcm) == (mode == "SF" or j_users == 8)


@pytest.mark.parametrize("mode", ["SF", "DF", "PA"])
def test_cfsp_batch_matches_per_user_transmit(code96, mode, monkeypatch):
    # J = 1 gives SF no shift; J = m = 8 leaves DF and PA no silent slot.
    rng = np.random.default_rng(21)
    for j_users in (1, 5, 8):
        cfg = SystemConfig(code96, 4, j_users, mode, mu_pas=4.0 if mode == "PA" else 1.0)
        bits = rng.integers(0, 2, size=(7, j_users, 4), dtype=np.uint8)
        r_fast = transmit_cfsp_batch(bits, cfg)
        for i in range(7):
            assert np.allclose(r_fast[i], transmit(bits[i], cfg).sum(axis=0)), j_users
        # The receiver gets an LLR for each sent coordinate only: DF/PA
        # leave out the silent slots [J*k, m*k).
        llr = ffma_system._bit_priors(r_fast + rng.normal(0.0, 0.5, r_fast.shape), cfg)
        assert llr.shape == (7, cfg.n_info + 96 - 32) and np.isfinite(llr).all()
        # 7 frames and 64 parity columns: a budget of 900 elements takes the
        # users two at a time, and the sum must not change by a bit.
        with monkeypatch.context() as patch:
            patch.setattr(ffma_system, "_CHUNK", 900)
            assert transmit_cfsp_batch(bits, cfg).tobytes() == r_fast.tobytes(), j_users


@pytest.mark.parametrize("j_users", [1, 30, 300])
def test_posterior_chunks_over_samples_exactly(j_users, monkeypatch):
    # Every size from 1 to 40 (so, for each chunk length, one whose last
    # natural chunk would hold a single sample) and a few larger ones, on
    # the window (a = 1) and on the whole mixture (a small enough that the
    # window covers every level; J = 1 is always the whole mixture).
    rng = np.random.default_rng(40 + j_users)
    sizes = list(range(1, 41)) + [401, 1000]
    cases = []
    for a in (1.0, 0.3 if j_users < 300 else 0.1):
        for size in sizes:
            y = rng.normal(0.0, a * math.sqrt(j_users) + 0.7, size)
            cases.append((y, a, cfsp_posterior(y, j_users, a, 1.0)))
    monkeypatch.setattr(ffma_system, "_DETECTOR_CHUNK", 64)
    for y, a, whole in cases:
        assert cfsp_posterior(y, j_users, a, 1.0).tobytes() == whole.tobytes(), (a, y.size)


@pytest.mark.parametrize("k", [1, 5, 10])
@pytest.mark.parametrize("j_users", [1, 60, 256, 300])
def test_parity_ones_matches_per_user_int64_parity(j_users, k, monkeypatch):
    # Counts of users whose own parity bit is 1, against each user's int64
    # parity summed frame by frame.  Frame 0 has every bit set, and column 0
    # of P makes every user's parity bit its first bit, so that column
    # counts all J users: 256 and 300 need the uint16 sum.
    rng = np.random.default_rng(60 + j_users + k)
    width, batch = 24, 4
    P = rng.integers(0, 2, size=(j_users * k + 3, width), dtype=np.uint8)
    rows = rng.permutation(j_users * k + 3)[:j_users * k].reshape(j_users, k)
    P[:, 0] = 0
    P[rows[:, 0], 0] = 1
    bits = rng.integers(0, 2, size=(batch, j_users, k), dtype=np.uint8)
    bits[0] = 1
    ref = np.array([sum(user_parity(bits[b, j], P[rows[j]]) for j in range(j_users))
                    for b in range(batch)])
    assert ref[0, 0] == j_users
    fast = ffma_system._parity_ones(bits, P, rows)
    assert fast.dtype == np.min_scalar_type(j_users)
    assert (fast.astype(np.int64) == ref).all()
    monkeypatch.setattr(ffma_system, "_CHUNK", 500)  # a few users per chunk
    assert (ffma_system._parity_ones(bits, P, rows).astype(np.int64) == ref).all()


def _traced_peak(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_transmit_and_detector_memory_flat_in_j(code600):
    # J = 300 users (k = 1) on the desk code, 100 frames.  Unchunked, the
    # parity counts alone are a (J, 100, 300) float32 block (36 MB) and the
    # whole-mixture detector a (J+1, 30 000) float64 block (72 MB).
    # Chunked, transmit holds at most _CHUNK float32 counts plus their uint8
    # copies, and the detector one float64 levels x samples block of at most
    # 2 MiB (one L2 cache), each plus arrays the size of the batch.
    budget = ffma_system._CHUNK
    cfg = SystemConfig(code600, k=1, j_users=300, mode="SF")
    bits = np.random.default_rng(23).integers(0, 2, size=(100, 300, 1), dtype=np.uint8)
    assert _traced_peak(transmit_cfsp_batch, bits, cfg) <= 8 * budget + 64 * 100 * 600
    y = np.random.default_rng(24).normal(0.0, 2.0, size=100 * 300)
    assert 8 * 301 * y.size > 2 << 20    # so the samples span several chunks
    assert _traced_peak(cfsp_posterior, y, 300, 0.1, 1.0) <= (2 << 20) + 64 * y.size


def test_receive_rejects_wrong_length(code96):
    cfg = SystemConfig(code96, 4, 2, "SF")
    with pytest.raises(ValueError):
        receive_batch(np.zeros((1, 95)), cfg)
    with pytest.raises(ValueError):
        receive_batch(np.zeros(96), cfg)


# ---------------------------------------------------------------------------
# Analytic oracle: message section without decoding
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mode, j_users, m, k, mu_pas, esn0_db", [
    ("SF", 1, 60, 5, 1.0, 2.0), ("SF", 30, 60, 5, 1.0, 2.0), ("SF", 60, 60, 5, 1.0, 2.0),
    ("SF", 300, 300, 1, 1.0, 2.0), ("DF", 30, 60, 5, 1.0, 2.0), ("DF", 300, 300, 1, 1.0, 2.0),
    ("PA", 60, 60, 5, 60.0, -12.0), ("PA", 30, 60, 5, 4.0, -6.0),
])
def test_message_decisions_match_bpsk_q_function(code600, mode, j_users, m, k, mu_pas, esn0_db):
    # Each sent message coordinate carries one user's bit on top of known
    # zero elements (J-1 of them in SF, none in DF/PA), so with BP off
    # (max_iter=0) the detector's hard decisions are uncoded BPSK of energy
    # mu1 * Es: BER = Q(sqrt(2 mu1 Es/N0)) for every J.  mu1 is 1 in SF and
    # DF and mu_pas * n / (k mu_pas + n - m k) in PA, worked out here and
    # not read from the config.
    es_n0 = 10.0 ** (esn0_db / 10.0)
    n0 = 1.0 / es_n0
    cfg = SystemConfig(code600, k=k, j_users=j_users, mode=mode, mu_pas=mu_pas, n0=n0,
                       max_iter=0)
    assert cfg.m == m
    mu1 = mu_pas * 600 / (k * mu_pas + 600 - m * k) if mode == "PA" else 1.0
    rng = np.random.default_rng(900 + j_users)
    frames = 60_000 // (j_users * k)
    errors = 0
    for start in range(0, frames, 50):
        bits = rng.integers(0, 2, size=(min(50, frames - start), j_users, k), dtype=np.uint8)
        r = transmit_cfsp_batch(bits, cfg)
        y = r + rng.normal(0.0, math.sqrt(n0 / 2.0), size=r.shape)
        rx, _conv = receive_batch(y, cfg)
        errors += int((rx != bits).sum())
    n_bits = frames * j_users * k
    expected = 0.5 * math.erfc(math.sqrt(mu1 * es_n0))  # Q(sqrt(2 mu1 Es/N0))
    lo, hi = binom.ppf(0.5e-6, n_bits, expected), binom.isf(0.5e-6, n_bits, expected)
    assert lo <= errors <= hi, (errors / n_bits, expected)


# ---------------------------------------------------------------------------
# Bitwise-MAP oracle on a tiny code
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mode, mu_pas, esn0_db", [("SF", 1.0, 0.0), ("DF", 1.0, 0.0),
                                                   ("PA", 6.0, -6.0)])
def test_receiver_does_not_beat_bitwise_map(mode, mu_pas, esn0_db):
    # J=5 users of k=2 bits on a (24, 12) code: all 2^10 patterns are
    # enumerated and every bit of 2000 shared frames is decided by its exact
    # posterior.  Bitwise MAP minimises each bit's error probability, so of
    # the bits where exactly one of the two is right, the receiver is the
    # right one with probability at most 1/2.  Beyond the binomial 1 - 1e-6
    # bound it sees more than the channel output.
    code = LinearCode.generate(24, 12, seed=1)
    n0 = 10.0 ** (-esn0_db / 10.0)
    cfg = SystemConfig(code, k=2, j_users=5, mode=mode, mu_pas=mu_pas, n0=n0)
    patterns, sums = codebook(cfg)
    rng = np.random.default_rng(61)
    sent = rng.integers(0, len(patterns), size=2000)
    bits, clean = patterns[sent], sums[sent]
    y = clean + rng.normal(0.0, math.sqrt(n0 / 2.0), size=clean.shape)
    rx_ok = receive_batch(y, cfg)[0] == bits
    map_ok = bitwise_map(y, patterns, sums, n0) == bits
    a, b = int((rx_ok & ~map_ok).sum()), int((map_ok & ~rx_ok).sum())
    assert a <= binom.isf(1e-6, a + b, 0.5), (a, b)
