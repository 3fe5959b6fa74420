"""Acceptance suite: one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s``.  The desk-scale trend
criteria (7a-7d) share one set of Monte-Carlo sweeps collected by a
module-scoped fixture; with two workers on 2 CPUs the whole module takes
about 2 minutes (107 s measured, 85 s of it in those sweeps).
"""

import dataclasses
import itertools
import math
import time

import numpy as np
import pytest
from scipy.special import expit

from ffma.analysis import gain_figures, interpolate_snr_at_ber, repetition_gain_db
from ffma.baseline_aloha import AlohaConfig, aloha_cfsp_batch, aloha_receive_batch
from ffma.cli import main
from ffma.ep_code import check_uspm, f_b2q, f_q2b, ffsp, orthogonal_ep_set
from ffma.experiment import ExperimentSpec, run_experiment
from ffma.ffma_system import SystemConfig, cfsp_posterior, receive_batch, transmit_cfsp_batch
from ffma.gf2m import BasisGF2m
from ffma.linear_code import LinearCode, bp_decode_batch, encode

WORKERS = 2


def report(tag: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


# ---------------------------------------------------------------------------
# Criterion 1: exhaustive USPM round trip, m in 2..10
# ---------------------------------------------------------------------------

def test_criterion_1_uspm_exhaustive():
    t0 = time.perf_counter()
    for m in range(2, 11):
        field = BasisGF2m(m)
        eps = orthogonal_ep_set(field, m)
        assert check_uspm(eps)
        for bits in itertools.product((0, 1), repeat=m):
            w = ffsp(f_b2q(b, p) for b, p in zip(bits, eps.pairs))
            recovered = tuple(f_q2b(w, j, m) for j in range(1, m + 1))
            assert recovered == bits
    elapsed = time.perf_counter() - t0
    ok = elapsed < 1.0
    assert report("1 (USPM exhaustive)", ok, f"m=2..10 all 2^J blocks recovered, {elapsed:.2f} s")


# ---------------------------------------------------------------------------
# Criterion 2: orthogonal-encoding identity on a (24, 12) code, m=4
# ---------------------------------------------------------------------------

def test_criterion_2_orthogonal_encoding_identity():
    t0 = time.perf_counter()
    m, k = 4, 3
    code = LinearCode.generate(24, 12, col_weight=3, seed=1)
    rng = np.random.default_rng(2024)
    trials = 10_000
    planes = rng.integers(0, 2, size=(trials, m, k), dtype=np.uint8)
    msgs = np.zeros((trials, m * k), dtype=np.uint8)
    rhs = np.zeros((trials, 24), dtype=np.uint8)
    for j in range(m):
        plane_msg = np.zeros((trials, m * k), dtype=np.uint8)
        plane_msg[:, np.arange(k) * m + j] = planes[:, j]
        msgs ^= plane_msg
        rhs ^= encode(plane_msg, code)
    lhs = encode(msgs, code)
    ok_identity = bool((lhs == rhs).all())
    elapsed = time.perf_counter() - t0
    ok = ok_identity and elapsed < 5.0
    assert report(
        "2 (orthogonal encoding identity)", ok,
        f"{trials} random message sets, exact XOR-plane match={ok_identity}, {elapsed:.2f} s",
    )


# ---------------------------------------------------------------------------
# Criterion 3: posterior equals the 2^J enumeration oracle within 1e-9
# ---------------------------------------------------------------------------

def test_criterion_3_posterior_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(33)
    worst = 0.0
    for j in range(1, 11):
        patterns = np.array(list(itertools.product((-1, 1), repeat=j)), dtype=np.float64)
        sums = patterns.sum(axis=1)
        odd = (patterns > 0).sum(axis=1) % 2 == 1
        amp = rng.uniform(0.2, 2.0, size=1000)
        n0 = rng.uniform(0.05, 4.0, size=1000)
        y = rng.uniform(-1.5 * j, 1.5 * j, size=1000) * amp
        # oracle: enumerate every user pattern, max-subtracted exponentials
        exps = -((y[:, None] - amp[:, None] * sums[None, :]) ** 2) / n0[:, None]
        w = np.exp(exps - exps.max(axis=1, keepdims=True))
        oracle_p1 = w[:, odd].sum(axis=1) / w.sum(axis=1)
        for i in range(1000):
            p1 = expit(-cfsp_posterior(float(y[i]), j, float(amp[i]), float(n0[i])))
            worst = max(worst, abs(p1 - oracle_p1[i]))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 10.0
    assert report(
        "3 (posterior oracle equivalence)", ok,
        f"J=1..10, 1000 triples each, max |diff|={worst:.2e}, {elapsed:.1f} s",
    )


# ---------------------------------------------------------------------------
# Criterion 4: noiseless round trips for SF/DF/PA on the toy system
# ---------------------------------------------------------------------------

def test_criterion_4_noiseless_round_trip():
    t0 = time.perf_counter()
    code = LinearCode.generate(96, 32, col_weight=3, seed=3)
    rng = np.random.default_rng(44)
    trials = 1000
    failures = []
    for mode in ("SF", "DF", "PA"):
        for j_users in (1, 4, 8):
            cfg = SystemConfig(
                code, k=4, j_users=j_users, mode=mode,
                mu_pas=8.0 if mode == "PA" else 1.0, n0=1e-4,
            )
            bits = rng.integers(0, 2, size=(trials, j_users, 4), dtype=np.uint8)
            y = transmit_cfsp_batch(bits, cfg)  # noiseless channel
            rx, _conv = receive_batch(y, cfg)
            errors = int((rx != bits).sum())
            if errors:
                failures.append((mode, j_users, errors))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 30.0
    assert report(
        "4 (noiseless round trip)", ok,
        f"SF/DF/PA x J in {{1,4,8}} x {trials} frames, failures={failures}, {elapsed:.1f} s",
    )


# ---------------------------------------------------------------------------
# Criterion 5: ALOHA repetition BER matches Q(sqrt(2 L gamma))
# ---------------------------------------------------------------------------

def q_function(x: float) -> float:
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def test_criterion_5_aloha_analytic():
    t0 = time.perf_counter()
    rng_master = np.random.default_rng(55)
    details = []
    ok = True
    for rep, snr_dbs in ((2, (2.0, 4.0, 6.0)), (8, (-4.0, -2.0, 0.0))):
        for snr_db in snr_dbs:
            gamma = 10.0 ** (snr_db / 10.0)
            n0 = 1.0 / gamma
            j_users, k = 2, 25
            cfg = AlohaConfig(n=j_users * k * rep, k=k, j_users=j_users)
            bits_needed = 120_000
            frames = bits_needed // (j_users * k)
            bits = rng_master.integers(0, 2, size=(frames, j_users, k), dtype=np.uint8)
            r = aloha_cfsp_batch(bits, cfg)
            y = r + rng_master.normal(0.0, math.sqrt(n0 / 2.0), size=r.shape)
            rx = aloha_receive_batch(y, cfg)
            measured = (rx != bits).mean()
            expected = q_function(math.sqrt(2.0 * rep * gamma))
            n_bits = frames * j_users * k
            sigma = math.sqrt(expected * (1.0 - expected) / n_bits)
            point_ok = abs(measured - expected) <= 3.0 * sigma
            ok = ok and point_ok
            details.append(
                f"L={rep} {snr_db:+.0f}dB: {measured:.3e} vs {expected:.3e} "
                f"({'ok' if point_ok else 'OUT'})"
            )
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    assert report("5 (ALOHA analytic)", ok, "; ".join(details) + f", {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# Criterion 6: SF with J=1 matches a direct coded-BPSK simulation
# ---------------------------------------------------------------------------

def test_criterion_6_single_user_consistency():
    t0 = time.perf_counter()
    n, k, m = 600, 5, 60
    snr_db = -0.75  # Es/N0 where the (600,300) code sits near BER 1e-3
    n0 = 1.0 / 10.0 ** (snr_db / 10.0)
    max_frames = 50_000

    spec = ExperimentSpec(
        system="SF", n=n, k=k, m=m, j_list=(1,), snr_grid=(snr_db,),
        snr_ref="esn0", seed=7, workers=WORKERS, min_frames=500,
        min_bit_errors=150, max_frames=max_frames, output="/tmp/acc6_sf.csv",
    )
    (sf_point,) = run_experiment(spec)

    # Independent chain: plain coded BPSK with textbook LLRs, same code,
    # same decoder, errors counted on the same message positions.
    code = LinearCode.generate(n, m * k, col_weight=3, seed=7)
    user_pos = np.arange(k) * m
    rng = np.random.default_rng(606)
    errors = bits_seen = 0
    batch = 500
    frames = 0
    while frames < max_frames and (errors < 150 or frames < 500):
        msgs = rng.integers(0, 2, size=(batch, m * k), dtype=np.uint8)
        cw = encode(msgs, code)
        y = (2.0 * cw - 1.0) + rng.normal(0.0, math.sqrt(n0 / 2.0), size=cw.shape)
        llr = -4.0 * y / n0
        dec, _conv = bp_decode_batch(llr, code.pcm, max_iter=50)
        errors += int((dec[:, user_pos] != msgs[:, user_pos]).sum())
        bits_seen += batch * k
        frames += batch

    ber_direct = errors / bits_seen
    ber_sf = sf_point.ber
    n_sf_bits = sf_point.frames * k
    s_sf = math.sqrt(max(ber_sf * (1 - ber_sf), 1e-12) / n_sf_bits)
    s_dir = math.sqrt(max(ber_direct * (1 - ber_direct), 1e-12) / bits_seen)
    lo_sf, hi_sf = ber_sf - 1.96 * s_sf, ber_sf + 1.96 * s_sf
    lo_d, hi_d = ber_direct - 1.96 * s_dir, ber_direct + 1.96 * s_dir
    overlap = max(lo_sf, lo_d) <= min(hi_sf, hi_d)
    elapsed = time.perf_counter() - t0
    ok = overlap and elapsed < 300.0
    assert report(
        "6 (single-user consistency)", ok,
        f"SF ber={ber_sf:.3e} ({sf_point.bit_errors} err), "
        f"direct ber={ber_direct:.3e} ({errors} err), CI overlap={overlap}, {elapsed:.0f} s",
    )


# ---------------------------------------------------------------------------
# Criterion 7: desk-scale trend reproduction (N=600, K=5, m=60)
# ---------------------------------------------------------------------------

DESK = dict(
    n=600, k=5, m=60, snr_ref="esn0", seed=7, workers=WORKERS,
    min_frames=200, min_bit_errors=120, batch_frames=100,
)

SWEEPS = {
    ("SF", 1): dict(snr_grid=(-1.0, -0.5), max_frames=40_000),
    ("SF", 30): dict(snr_grid=(0.25, 0.5, 0.75, 1.0, 1.25), max_frames=24_000),
    ("SF", 60): dict(snr_grid=(0.5, 0.75, 1.0, 1.25), max_frames=12_000),
    ("DF", 1): dict(snr_grid=(-6.0, -5.75, -5.5, -5.25), max_frames=40_000),
    ("DF", 30): dict(snr_grid=(-0.5, -0.25, 0.0, 0.5), max_frames=24_000),
    ("DF", 60): dict(snr_grid=(0.25, 0.5, 0.75, 1.0, 1.25), max_frames=12_000),
    ("PA", 30): dict(snr_grid=(-10.0, -9.5, -9.0), max_frames=24_000),
    ("PA", 60): dict(snr_grid=(-10.0, -9.5, -9.0), max_frames=12_000),
    ("ALOHA", 30): dict(snr_grid=(1.5, 2.0, 2.5), max_frames=60_000),
    ("ALOHA", 60): dict(snr_grid=(4.5, 5.0, 5.5), max_frames=60_000),
}

# DF re-measured on the SF grids for the pointwise comparison in 7b.
SHADOW = {
    ("DF@SF", 1): dict(system="DF", j_list=(1,), snr_grid=(-1.0, -0.5), max_frames=8_000),
    ("DF@SF", 30): dict(system="DF", j_list=(30,), snr_grid=(0.25, 0.5, 0.75, 1.0, 1.25), max_frames=1_500),
    ("DF@SF", 60): dict(system="DF", j_list=(60,), snr_grid=(0.5, 0.75, 1.0, 1.25), max_frames=1_500),
}


@pytest.fixture(scope="module")
def desk_curves(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("desk")
    t0 = time.perf_counter()
    curves = {}
    for (system, j), kw in SWEEPS.items():
        spec = ExperimentSpec(
            system=system, j_list=(j,), mu_pas=60.0 if system == "PA" else 1.0,
            output=str(out_dir / f"{system}_{j}.csv"), **DESK, **kw,
        )
        curves[(system, j)] = run_experiment(spec)
    for key, kw in SHADOW.items():
        spec = ExperimentSpec(
            output=str(out_dir / f"{key[0].replace('@', '_')}_{key[1]}.csv"),
            **DESK, **kw,
        )
        curves[key] = run_experiment(spec)
    curves["_elapsed"] = time.perf_counter() - t0
    return curves


def crossing(points, target):
    return interpolate_snr_at_ber(
        [p.snr_db for p in points], [p.ber for p in points], target
    )


def test_criterion_7a_sf_user_count_insensitivity(desk_curves):
    x30 = crossing(desk_curves[("SF", 30)], 1e-4)
    x60 = crossing(desk_curves[("SF", 60)], 1e-4)
    gap = abs(x60 - x30)
    ok = gap <= 0.5
    assert report(
        "7a (SF J=30 vs J=60)", ok,
        f"1e-4 crossings {x30:.2f} / {x60:.2f} dB Es/N0, |gap|={gap:.2f} dB (<= 0.5)",
    )


def test_criterion_7b_df_dominates_sf_with_shrinking_gap(desk_curves):
    pointwise_ok = True
    details = []
    for j in (1, 30, 60):
        sf_points = desk_curves[("SF", j)]
        df_points = {p.snr_db: p for p in desk_curves[("DF@SF", j)]}
        for p in sf_points:
            q = df_points[p.snr_db]
            s_sf = math.sqrt(max(p.ber * (1 - p.ber), 1e-12) / (p.frames * j * 5))
            s_df = math.sqrt(max(q.ber * (1 - q.ber), 1e-12) / (q.frames * j * 5))
            if q.ber > p.ber + 3.0 * math.hypot(s_sf, s_df):
                pointwise_ok = False
                details.append(f"J={j}@{p.snr_db}dB: DF {q.ber:.2e} > SF {p.ber:.2e}")
    gaps = {}
    for j in (1, 30, 60):
        gaps[j] = crossing(desk_curves[("SF", j)], 1e-3) - crossing(
            desk_curves[("DF", j)], 1e-3
        )
    shrinking = gaps[30] < gaps[1] and gaps[60] < gaps[30]
    ok = pointwise_ok and shrinking
    assert report(
        "7b (DF <= SF, gap shrinks)", ok,
        f"pointwise={pointwise_ok} {details}; gap@1e-3 dB: "
        f"J=1 {gaps[1]:.2f} > J=30 {gaps[30]:.2f} > J=60 {gaps[60]:.2f} = {shrinking}",
    )


def test_criterion_7c_pa_beats_df(desk_curves):
    x_df = crossing(desk_curves[("DF", 60)], 1e-4)
    x_pa = crossing(desk_curves[("PA", 60)], 1e-4)
    gain = x_df - x_pa
    ok = gain >= 5.0
    assert report(
        "7c (PA vs DF)", ok,
        f"1e-4 crossings DF {x_df:.2f} / PA {x_pa:.2f} dB, gain {gain:.1f} dB (>= 5.0, "
        f"theoretical polarization gain {10 * math.log10(60):.1f} dB)",
    )


def test_criterion_7d_ffma_beats_aloha(desk_curves):
    # The 3 dB margin comes from the full-scale comparison against ALOHA
    # with L = n/(m*k) = 2 repetitions.  With fewer users ALOHA repeats
    # each bit more often and its curve moves left by exactly the extra
    # repetition gain (criterion 5), so the margin at J shrinks by that.
    n, k, m = DESK["n"], DESK["k"], DESK["m"]
    gaps, margins = {}, {}
    ok = True
    for j in (30, 60):
        margins[j] = 3.0 - (repetition_gain_db(n, j, k) - repetition_gain_db(n, m, k))
        x_aloha = crossing(desk_curves[("ALOHA", j)], 1e-4)
        for mode in ("SF", "DF", "PA"):
            gap = x_aloha - crossing(desk_curves[(mode, j)], 1e-4)
            gaps[(mode, j)] = gap
            ok = ok and gap >= margins[j]
    detail = ", ".join(f"{mode} J={j}: {g:+.2f} dB" for (mode, j), g in gaps.items())
    detail += "; margins " + ", ".join(f"J={j} >= {x:+.2f} dB" for j, x in margins.items())
    elapsed = desk_curves["_elapsed"]
    ok = ok and elapsed < 3600.0
    assert report(
        "7d (FFMA vs ALOHA >= 3 dB less ALOHA's extra repetition gain)", ok,
        detail + f"; sweeps took {elapsed:.0f} s (< 3600)",
    )


# ---------------------------------------------------------------------------
# Criterion 8: closed-form gain figures
# ---------------------------------------------------------------------------

def test_criterion_8_gain_figures():
    figures = gain_figures(6000, 10, 1, 300.0)
    pol = round(figures["polarization_gain_db"], 2)
    rep = round(figures["repetition_gain_db"], 2)
    ok = pol == 24.77 and rep == 27.78
    assert report("8 (gain figures)", ok, f"polarization {pol} dB, repetition {rep} dB")


# ---------------------------------------------------------------------------
# Criterion 9: byte-identical CSV on re-run
# ---------------------------------------------------------------------------

def test_criterion_9_determinism(tmp_path):
    args = [
        "-q", "run", "--system", "DF", "--n", "96", "--k", "4", "--m", "8",
        "--j", "2,8", "--snr", "2,5", "--snr-ref", "esn0", "--seed", "11",
        "--min-frames", "50", "--max-frames", "300", "--min-errors", "40",
        "--batch-frames", "50",
    ]
    rc1 = main(args + ["--out", str(tmp_path / "a.csv")])
    rc2 = main(args + ["--out", str(tmp_path / "b.csv")])
    rc3 = main(args + ["--out", str(tmp_path / "c.csv"), "--workers", "2"])
    same = (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    same_workers = (tmp_path / "a.csv").read_bytes() == (tmp_path / "c.csv").read_bytes()
    ok = rc1 == rc2 == rc3 == 0 and same and same_workers
    assert report(
        "9 (determinism)", ok,
        f"re-run identical={same}, 2-worker run identical={same_workers}",
    )
