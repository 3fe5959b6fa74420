"""The sweep's one in-order batch queue, in a pool and in one process.

A thread pool stands in for the process pool, so the test sees every
task the scheduler submits and every result it folds, in order.  The
grid's points stop all three ways: ALOHA J=8 at -4 dB passes 40 errors
in its first grouped task, long before min_frames; J=8 at 1 dB passes
them after min_frames (500 frames); J=8 at 4 dB runs to max_frames.  The
J=24 points all pass them early.
"""

import dataclasses
import logging
import math
import re
from concurrent.futures import ThreadPoolExecutor

import pytest

from ffma import experiment
from ffma.experiment import ExperimentSpec, read_csv, run_experiment

SPEC = dict(
    system="ALOHA", n=96, k=4, j_list=(8, 24), snr_grid=(-4.0, 1.0, 4.0),
    snr_ref="esn0", seed=5, min_frames=200, max_frames=600,
    min_bit_errors=40, batch_frames=20,
)
B = SPEC["batch_frames"]
MUST = math.ceil(SPEC["min_frames"] / B)   # batches every point folds


class RecordingExecutor(ThreadPoolExecutor):
    """Records each submitted task and each result read, in the order the
    scheduler does them: ("submit" | "fold", point, first batch, batches)."""

    events: list = []

    def submit(self, fn, *args):
        fut = super().submit(fn, *args)
        point, start, count = args
        task = (point, start // B, math.ceil(count / B))
        result = fut.result

        def folded(timeout=None):
            out = result(timeout)
            self.events.append(("fold", *task, [r[1] for r in out]))
            return out

        fut.result = folded
        self.events.append(("submit", *task))
        return fut


def discarded_counts(caplog) -> list[int]:
    """Each progress line's count of batches computed past the stop."""
    return [int(m.group(1)) for m in
            (re.search(r"(\d+) batches computed past the stop", r.getMessage())
             for r in caplog.records) if m]


@pytest.fixture(scope="module")
def serial_csv(tmp_path_factory):
    out = tmp_path_factory.mktemp("serial") / "w1.csv"
    run_experiment(ExperimentSpec(output=str(out), workers=1, **SPEC))
    return out


@pytest.mark.parametrize("workers", [2, 3])
def test_queue_stops_at_the_decided_batch_and_hands_over_early(
        workers, serial_csv, tmp_path, monkeypatch, caplog):
    events = []
    monkeypatch.setattr(RecordingExecutor, "events", events)
    monkeypatch.setattr(experiment, "ProcessPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(experiment, "_WORKER", {})
    monkeypatch.setattr(experiment, "keep_freed_memory", lambda: None)
    out = tmp_path / "pool.csv"
    with caplog.at_level(logging.INFO, logger="ffma.experiment"):
        run_experiment(ExperimentSpec(output=str(out), workers=workers, **SPEC))
    assert out.read_bytes() == serial_csv.read_bytes()

    rows = read_csv(out)
    stops = []
    for p, row in enumerate(rows):
        mine = [(i, e) for i, e in enumerate(events) if e[1] == p]
        submits = [e for _, e in mine if e[0] == "submit"]
        folds = [e for _, e in mine if e[0] == "fold"]
        folded = [b for e in folds for b in range(e[2], e[2] + e[3])]
        assert folded == list(range(math.ceil(row.frames / B)))

        # Every submitted batch below MUST is folded.
        below = {b for e in submits for b in range(e[2], e[2] + e[3]) if b < MUST}
        assert below <= set(folded)

        # Once the target is met, no batch at or past MUST is submitted.
        errors, met = 0, False
        for _, e in mine:
            if e[0] == "fold":
                errors += sum(e[4])
                met = errors >= SPEC["min_bit_errors"]
            elif met:
                assert e[2] + e[3] <= MUST, (p, e)

        # Grouped tasks: the MUST batches go out as 2 * workers tasks.
        groups = [e for e in submits if e[2] < MUST]
        assert len(groups) == min(MUST, 2 * workers)
        assert all(e[3] == 1 for e in submits if e[2] >= MUST)

        kind = ("early" if row.frames == SPEC["min_frames"]
                else "max" if row.frames == SPEC["max_frames"] else "after")
        stops.append(kind)
        last_fold = max(i for i, e in mine if e[0] == "fold")
        if kind != "after" and p + 1 < len(rows):
            # The stop was known before the last fold, so the next point's
            # first task went out while this point still had batches in flight.
            first_next = min(i for i, e in enumerate(events) if e[1] == p + 1)
            assert first_next < last_fold, p
    assert stops == ["early", "after", "max", "early", "early", "early"]

    # A point whose stop was decided before anything past it was submitted
    # reports no batch computed past the stop.
    discarded = discarded_counts(caplog)
    assert len(discarded) == len(rows)
    assert [d for d, kind in zip(discarded, stops) if kind != "after"] == [0] * 5


def test_one_worker_computes_only_the_batches_it_folds(tmp_path, monkeypatch, caplog):
    # One worker runs each task in this process when it is submitted and
    # keeps one in flight, so no batch past a stop is computed, at an
    # early stop, one after min_frames or one at max_frames alike.
    calls = []
    simulate = experiment._simulate_batch

    def counted(*args):
        calls.append(args[2:4])   # point index, first frame
        return simulate(*args)

    monkeypatch.setattr(experiment, "_simulate_batch", counted)
    with caplog.at_level(logging.INFO, logger="ffma.experiment"):
        points = run_experiment(ExperimentSpec(output=str(tmp_path / "w1.csv"), workers=1,
                                               **SPEC))
    assert [p.frames for p in points] == [200, 500, 600, 200, 200, 200]
    assert len(calls) == sum(math.ceil(p.frames / B) for p in points)
    assert sorted(calls) == [(q, b * B) for q, p in enumerate(points)
                             for b in range(math.ceil(p.frames / B))]
    assert discarded_counts(caplog) == [0] * len(points)


def test_worker_counts_give_identical_csvs(serial_csv, tmp_path):
    spec = ExperimentSpec(output="", **SPEC)
    for workers in (2, 3):
        out = tmp_path / f"w{workers}.csv"
        run_experiment(dataclasses.replace(spec, output=str(out), workers=workers))
        assert out.read_bytes() == serial_csv.read_bytes(), workers


def test_fixed_frame_sweep_ends_its_last_group_with_a_short_batch(tmp_path):
    # min_frames = max_frames = 250: every batch is must-fold, and the last
    # group's last batch holds 10 frames.
    spec = ExperimentSpec(output="", **dict(SPEC, min_frames=250, max_frames=250))
    csvs = []
    for workers in (1, 2, 3):
        out = tmp_path / f"w{workers}.csv"
        run_experiment(dataclasses.replace(spec, output=str(out), workers=workers))
        csvs.append(out.read_bytes())
    assert csvs[1] == csvs[0] and csvs[2] == csvs[0]
    assert all(row.frames == 250 for row in read_csv(tmp_path / "w1.csv"))


def test_worker_batch_returns_one_result_per_batch_slice(monkeypatch):
    spec = ExperimentSpec(**dict(SPEC, max_frames=250))
    configs = experiment._point_configs(spec, None)
    monkeypatch.setattr(experiment, "_WORKER", {"spec": spec, "configs": configs})
    got = experiment._worker_batch(1, 200, 50)
    want = [experiment._simulate_batch(spec, configs, 1, s, c)
            for s, c in ((200, 20), (220, 20), (240, 10))]
    assert [r[:3] for r in got] == [r[:3] for r in want]
    assert [r[3].tolist() for r in got] == [r[3].tolist() for r in want]


def test_one_worker_builds_each_points_config_once(tmp_path, monkeypatch):
    # SF at two J and two SNRs, 3 batches a point: one SystemConfig per
    # point, not one per batch.
    built = []
    config = experiment.SystemConfig

    def counted(**kwargs):
        built.append((kwargs["j_users"], kwargs["n0"]))
        return config(**kwargs)

    monkeypatch.setattr(experiment, "SystemConfig", counted)
    spec = ExperimentSpec(system="SF", n=96, k=4, m=8, j_list=(2, 8), snr_grid=(1.0, 4.0),
                          snr_ref="esn0", seed=3, min_frames=60, max_frames=60,
                          batch_frames=20, output=str(tmp_path / "sf.csv"))
    points = run_experiment(spec)
    assert [p.frames for p in points] == [60] * 4
    assert built == [(j, n0) for j, _, n0 in spec.grid]
