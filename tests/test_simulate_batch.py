"""The batch simulator against its reference, and the pool workers' allocator.

``_simulate_batch`` must give the reference's counts and per-user error
arrays (``sim_oracle.py``), from the same noise samples.  Every pool
worker calls ``keep_freed_memory``; a warm 100-frame batch in a fresh
worker then takes (almost) no minor page faults.  A one-worker run leaves
the allocator alone, and its warm desk batches take none either.
"""

import math
import multiprocessing
import os
import pickle
import platform
import subprocess
import sys
import textwrap
import types

import numpy as np
import pytest

from sim_oracle import reference_simulate_batch

from ffma import experiment
from ffma.baseline_aloha import AlohaConfig, aloha_cfsp_batch
from ffma.experiment import ExperimentSpec, _point_configs, _simulate_batch
from ffma.ffma_system import SystemConfig, transmit_cfsp_batch
from ffma.linear_code import LinearCode

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

DESK = dict(n=600, k=5, m=60, snr_ref="esn0", seed=7)

# (system, J, Es/N0 dB): every FFMA mode at its benchmark point and on the
# waterfall, and ALOHA with repeat counts 120, 12, 4, 2 and 1.
POINTS = [
    ("SF", 60, 2.6), ("SF", 30, 0.5), ("SF", 1, -1.0),
    ("DF", 30, -0.5), ("DF", 60, 0.0), ("DF", 1, -6.0),
    ("PA", 60, -12.0), ("PA", 30, -9.5),
    ("ALOHA", 1, -3.0), ("ALOHA", 10, 0.0), ("ALOHA", 30, 2.0),
    ("ALOHA", 60, 5.0), ("ALOHA", 120, 7.0),
]


@pytest.fixture(scope="module")
def desk_code():
    return LinearCode.generate(600, 300, col_weight=3, seed=7)


@pytest.mark.parametrize("system, j_users, snr_db", POINTS)
def test_simulate_batch_matches_reference(desk_code, monkeypatch, system, j_users, snr_db):
    # Four copies of the point, so that point index 3 exists and draws its
    # own streams.
    spec = ExperimentSpec(
        system=system, j_list=(j_users,), snr_grid=(snr_db,) * 4,
        mu_pas=60.0 if system == "PA" else 1.0, **DESK,
    )
    code = None if system == "ALOHA" else desk_code
    configs = _point_configs(spec, code)
    n0 = spec.grid[0][2]

    # Record what the receiver is handed, to compare the channel outputs
    # themselves and not only the decisions they lead to.
    seen = []
    name = "aloha_receive_batch" if system == "ALOHA" else "receive_batch"
    receive = getattr(experiment, name)

    def recording(y, cfg):
        seen.append(y.copy())
        return receive(y, cfg)

    monkeypatch.setattr(experiment, name, recording)
    for point_index, start_frame, count in ((0, 0, 100), (3, 200, 37)):
        got = _simulate_batch(spec, configs, point_index, start_frame, count)
        want = reference_simulate_batch(spec, code, j_users, n0, point_index, start_frame,
                                        count)
        assert got[:3] == want[:3]
        assert got[3].dtype == want[3].dtype and np.array_equal(got[3], want[3])

        # The channel output is the reference's r + normal(0, sigma), bit
        # for bit.
        bits = np.random.default_rng((spec.seed, 1, point_index, start_frame)).integers(
            0, 2, size=(count, j_users, spec.k), dtype=np.uint8)
        r = _channel_sum(spec, code, bits, n0)
        noise = np.random.default_rng((spec.seed, 2, point_index, start_frame)).normal(
            0.0, math.sqrt(n0 / 2.0), size=r.shape)
        assert np.array_equal(seen[-1], r + noise)


def _channel_sum(spec, code, bits, n0):
    """The noiseless channel sum the simulator sends for ``bits``."""
    j_users = bits.shape[1]
    if spec.system == "ALOHA":
        return aloha_cfsp_batch(bits, AlohaConfig(n=spec.n, k=spec.k, j_users=j_users))
    cfg = SystemConfig(
        code=code, k=spec.k, j_users=j_users, mode=spec.system,
        mu_pas=spec.mu_pas, n0=n0, max_iter=spec.max_iter,
    )
    return transmit_cfsp_batch(bits, cfg)


# ---------------------------------------------------------------------------
# Allocator thresholds in pool workers
# ---------------------------------------------------------------------------

_FAULT_PROBE = textwrap.dedent("""
    import pickle, resource, statistics, sys
    from ffma import experiment

    with open(sys.argv[1], "rb") as fh:
        spec, configs = pickle.load(fh)
    if sys.argv[2] == "pool":
        experiment._init_worker(spec, configs)
        batch = experiment._worker_batch
    else:
        batch = lambda *task: experiment._simulate_batch(spec, configs, *task)
    faults = []
    for b in range(13):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        batch(0, 100 * b, 100)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    print(statistics.median(faults[3:]))
""")


def _warm_batch_faults(tmp_path, spec, code, pool=True):
    """The median minor-fault count of a warm batch in a fresh process.

    A fresh process unpickles its initargs and runs the spec's one point:
    3 warm-up batches, then the median of 10.  With ``pool`` it starts as a
    pool worker does (``_init_worker``, so ``keep_freed_memory``); without,
    it runs ``_simulate_batch`` on the allocator as it found it, as a
    one-worker run does.
    """
    job = tmp_path / "job.pickle"
    with open(job, "wb") as fh:
        pickle.dump((spec, _point_configs(spec, code)), fh)
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", _FAULT_PROBE, str(job), "pool" if pool else "one"],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    return float(out.stdout)


_GLIBC_ONLY = pytest.mark.skipif(
    sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
    reason="the allocator thresholds are glibc's",
)


@_GLIBC_ONLY
def test_warm_aloha_worker_batches_do_not_fault(tmp_path):
    # Without the thresholds glibc returns each batch's temporaries to the
    # OS and faults them in again, 203 times per ALOHA batch.  (DF batches
    # fault in spikes of up to ~2 000 whose place moves with the process's
    # memory layout, so no fixed count tells the two apart reliably.)
    spec = ExperimentSpec(system="ALOHA", j_list=(30,), snr_grid=(2.0,), **DESK)
    faults = _warm_batch_faults(tmp_path, spec, None)
    assert faults <= 10, faults


@_GLIBC_ONLY
@pytest.mark.parametrize("system, mu_pas, j_users, snr_db", [
    ("SF", 1.0, 1, -1.0), ("PA", 60.0, 60, -10.0),
])
def test_warm_ffma_worker_batches_do_not_fault(desk_code, tmp_path, system, mu_pas,
                                               j_users, snr_db):
    # Without the thresholds these batches take about 2 000 (SF) and
    # 2 000-4 000 (PA) minor faults each.
    spec = ExperimentSpec(system=system, j_list=(j_users,), snr_grid=(snr_db,),
                          mu_pas=mu_pas, **DESK)
    faults = _warm_batch_faults(tmp_path, spec, desk_code)
    assert faults <= 10, faults


@_GLIBC_ONLY
@pytest.mark.parametrize("system, mu_pas, snr_db", [("SF", 1.0, 2.6), ("PA", 60.0, -12.0)])
def test_warm_one_worker_batches_do_not_fault(desk_code, tmp_path, system, mu_pas, snr_db):
    # A one-worker run leaves glibc's thresholds at their defaults, so its
    # warm batches stay off mmap only because freeing transmit's parity-count
    # block (_CHUNK float32 elements, 7.2 MB at J=60) lifts glibc's dynamic
    # mmap threshold above BP's 1.4 MB buffers.  With a 1 << 18 element
    # block those buffers are mmapped on every call: about 3 400 (SF) and
    # 2 000 (PA) minor faults per batch.
    spec = ExperimentSpec(system=system, j_list=(60,), snr_grid=(snr_db,), mu_pas=mu_pas,
                          **DESK)
    faults = _warm_batch_faults(tmp_path, spec, desk_code, pool=False)
    assert faults <= 10, faults


def test_keep_freed_memory_without_mallopt(monkeypatch):
    # A C library without the symbol: the lookup raises AttributeError.
    monkeypatch.setattr(experiment.ctypes, "CDLL", lambda name: object())
    experiment.keep_freed_memory()


def _fake_libc(ok):
    """A C library whose ``mallopt`` records its calls and answers ``ok``."""
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return ok

    return types.SimpleNamespace(mallopt=mallopt), calls


@pytest.mark.parametrize("ok", [1, 0])
def test_keep_freed_memory_sets_both_thresholds_or_neither(monkeypatch, ok):
    # Where the C library refuses the mmap threshold (32 MiB is above its
    # maximum, as on 32-bit glibc), setting the trim threshold alone would
    # switch off the dynamic adjustment of the mmap threshold.
    libc, calls = _fake_libc(ok)
    monkeypatch.setattr(experiment.ctypes, "CDLL", lambda name: libc)
    experiment.keep_freed_memory()
    mmap = (experiment._M_MMAP_THRESHOLD, 32 << 20)
    trim = (experiment._M_TRIM_THRESHOLD, 32 << 20)
    assert calls == ([mmap, trim] if ok else [mmap])


@pytest.mark.parametrize("system", experiment.SYSTEMS)
def test_every_pool_worker_keeps_freed_memory(monkeypatch, system):
    calls = []
    monkeypatch.setattr(experiment, "keep_freed_memory", lambda: calls.append(1))
    monkeypatch.setattr(experiment, "_WORKER", {})
    experiment._init_worker(ExperimentSpec(system=system, **DESK), None)
    assert calls == [1]


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the patched batch reaches the workers by fork")
def test_pool_workers_inherit_numpy_random(tmp_path):
    # An ALOHA sweep builds no code, so unless run_experiment loads
    # numpy.random before it starts the pool, every worker imports it in
    # its first batch: 11.6-16.4 ms, against about 2 ms for a warm batch.
    probe = textwrap.dedent("""
        import multiprocessing, sys
        from ffma import experiment
        real = experiment._simulate_batch
        def batch(*args):
            assert "numpy.random" in sys.modules, "the worker has to import numpy.random"
            return real(*args)
        experiment._simulate_batch = batch
        multiprocessing.set_start_method("fork")
        experiment.run_experiment(experiment.ExperimentSpec(
            system="ALOHA", n=24, k=2, j_list=(2,), snr_grid=(3.0,), min_frames=40,
            max_frames=40, batch_frames=10, workers=2, output=sys.argv[1]))
        print("ok")
    """)
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", probe, str(tmp_path / "a.csv")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.stdout.strip() == "ok", out.stderr


def test_import_and_serial_run_leave_the_allocator_alone(tmp_path):
    # The thresholds are a per-process choice of the pool workers:
    # importing the package or a one-worker ``ffma run`` (which
    # calls ``run_experiment`` in its own process) must not load the C
    # library to set them.
    probe = textwrap.dedent("""
        import ctypes, sys
        loads = []
        real = ctypes.CDLL
        def spy(name, *args, **kwargs):
            if name is None:
                loads.append(name)
            return real(name, *args, **kwargs)
        ctypes.CDLL = spy
        import ffma, ffma.cli
        ffma.cli.main(["run", "--system", "ALOHA", "--n", "24", "--k", "2", "--j", "2",
                       "--min-frames", "10", "--max-frames", "10", "--out", sys.argv[1]])
        print(len(loads))
    """)
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", probe, str(tmp_path / "a.csv")],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert out.stdout.strip() == "0"
