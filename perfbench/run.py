#!/usr/bin/env python3
"""FFMA Monte-Carlo benchmark.

    python3 perfbench/run.py --workload desk_sf60 --seed 7 --seconds 30 --trace 0

Runs one workload (see ``workloads.py``) through the public entry point
``ffma.experiment.run_experiment`` from the checkout's ``src``, repeating
it in fresh processes until ``--seconds`` have passed. Every run checks
the simulator's outputs and prints, as the last line of stdout, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics (medians over repetitions).
Its ``setup_s`` is the median of many set-ups of the workload, each in a
fresh child process, interleaved with the repetitions.
``--trace 1`` alternates untraced repetitions with traced one-worker
repetitions and reports the per-layer metrics from their spans, the
tracing overhead, and a stage table for the single-worker FFMA points.

An operation is one grid point of one repetition, one batch of timed
set-ups, or, on traced runs, one expected span per traced repetition. It
fails when its repetition raises or times out, or when it fails an output
check:

* every repetition of a seed, traced or not, with any worker count, gives
  the same frames, bit errors and frame errors as the first untraced one;
* fixed-point workloads decode exactly the frames they ask for;
* ALOHA points lie inside the exact binomial acceptance region of the
  analytic repetition-combining BER Q(sqrt(2 L Es/N0));
* PA points have no more bit errors than the uncoded information-symbol
  BER Q(sqrt(2 mu1 Es/N0)) explains;
* every span a workload should fire fired at least once.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import ALOHA_SPANS, FFMA_SPANS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"

RUN_LIMIT_S = 160.0      # start no repetition after this; exit well before 180 s
MIN_UNTRACED_REPS = 3    # an untraced run does at least this many repetitions
SETUPS_PER_CYCLE = 6     # set-ups timed after each untraced repetition
ALPHA = 1e-6             # two-sided tail mass outside an oracle's acceptance region

THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)

END_TO_END_UNITS = {
    "frames_per_s": "frames/s", "total_s": "s", "setup_s": "s",
    "peak_rss_mb": "MB", "ber": "ratio", "fer": "ratio",
}
PER_LAYER_UNITS = {
    "linear_code.construct_s": "s",
    "linear_code.bp_ms_per_frame": "ms",
    "linear_code.bp_share": "ratio",
    "linear_code.bp_conv_rate": "ratio",
    "ffma_system.detector_ms_per_frame": "ms",
    "ffma_system.detector_share": "ratio",
    "ffma_system.transmit_ms_per_frame": "ms",
    "ffma_system.receive_other_ms_per_frame": "ms",
    "baseline_aloha.ms_per_frame": "ms",
    "experiment.driver_ms_per_frame": "ms",
    "experiment.parallel_efficiency": "ratio",
    "trace.overhead_frac": "ratio",
}

# ROADMAP's baseline stage timings, ms per 100-frame batch:
# (transmit, detector, BP, whole batch).
# BP time depends on the operating point, so on desk_sf60 (2.6 dB, not
# 3.0 dB) only the transmit and detector rows are comparable.
ROADMAP_STAGES = {
    "desk_sf60": ("SF J=60 @ 3.0 dB", (15.0, 277.0, 75.0, 315.0)),
    "desk_pa60": ("PA J=60 @ -9.5 dB", (11.0, 57.0, 286.0, 355.0)),
}


def q_function(x: float) -> float:
    return 0.5 * math.erfc(x / math.sqrt(2.0))


# ---------------------------------------------------------------------------
# Repetitions
# ---------------------------------------------------------------------------

def run_rep(specs, trace: bool, workers, timeout_s: float, setups: int = 0):
    """Run one repetition (or ``setups`` set-ups) in a fresh process.

    Returns the process's result, or None when it fails or times out.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(OUT_DIR))
    job = {"specs": specs, "trace": trace, "workers": workers,
           "out_dir": str(OUT_DIR), "setups": setups}
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "rep.py")], input=json.dumps(job),
            capture_output=True, text=True, env=env, cwd=str(ROOT),
            timeout=timeout_s,
        )
    except subprocess.TimeoutExpired:
        print(f"repetition timed out after {timeout_s:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"repetition exited {proc.returncode}:\n{proc.stderr[-2000:]}",
              file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def repeat(specs, trace_mode: bool, seconds: float):
    """Run repetition cycles until ``seconds`` are used up.

    An untraced cycle is one repetition as the workload specifies it,
    then SETUPS_PER_CYCLE timed set-ups. A traced cycle is one
    repetition, a traced one-worker repetition and, for a pooled workload,
    an untraced one-worker repetition.
    """
    pooled = max(s["workers"] for s in specs) > 1
    cycle = [("run", False, None, 0)]
    if trace_mode:
        cycle.append(("traced", True, 1, 0))
        if pooled:
            cycle.append(("serial", False, 1, 0))
    else:
        cycle.append(("setup", False, None, SETUPS_PER_CYCLE))
    min_cycles = 1 if trace_mode else MIN_UNTRACED_REPS

    reps = []
    t0 = time.monotonic()
    cycles = 0
    while True:
        elapsed = time.monotonic() - t0
        per_cycle = elapsed / cycles if cycles else 0.0
        if cycles >= min_cycles and elapsed + per_cycle > seconds:
            break
        if cycles and elapsed + per_cycle > RUN_LIMIT_S:
            break
        for kind, traced, workers, setups in cycle:
            timeout_s = max(5.0, RUN_LIMIT_S + 10.0 - (time.monotonic() - t0))
            reps.append((kind, run_rep(specs, traced, workers, timeout_s, setups)))
        cycles += 1
    return reps


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def expected_points(specs):
    return [
        (s["system"], j, float(snr))
        for s in specs for j in s["j_list"] for snr in s["snr_grid"]
    ]


def point_key(point):
    return point["system"], point["j"], point["snr_db"]


def binomial_region(n_bits: int, p: float):
    """Smallest and largest error counts inside the 1 - ALPHA region."""
    from scipy.stats import binom
    return int(binom.ppf(ALPHA / 2, n_bits, p)), int(binom.isf(ALPHA / 2, n_bits, p))


def oracle_problem(spec, point) -> str | None:
    """Compare one point with its analytic oracle, if it has one."""
    n_bits = point["bits"]
    es_n0 = 10.0 ** (point["snr_db"] / 10.0)
    errors = point["bit_errors"]
    if spec["system"] == "ALOHA":
        repeat_l = spec["n"] // (point["j"] * spec["k"])
        p = q_function(math.sqrt(2.0 * repeat_l * es_n0))
        lo, hi = binomial_region(n_bits, p)
        if not lo <= errors <= hi:
            return f"ALOHA {errors} bit errors outside [{lo}, {hi}] (BER {p:.3g})"
    if spec["system"] == "PA":
        n, k, m, mu = spec["n"], spec["k"], spec["m"], spec["mu_pas"]
        mu1 = mu * n / (k * mu + n - m * k)
        p = q_function(math.sqrt(2.0 * mu1 * es_n0))
        _, hi = binomial_region(n_bits, p)
        if errors > hi:
            return f"PA {errors} bit errors above uncoded bound {hi} (BER {p:.3g})"
    return None


def check_reps(specs, reps):
    """Count the operations attempted and failed, and report each failure."""
    spec_of = {key: s for s in specs for key in expected_points([s])}
    ref: dict = {}
    for kind, rep in reps:
        if kind == "run" and rep is not None:
            for res in rep["results"]:
                for p in res["points"]:
                    ref.setdefault(point_key(p), p)
    attempted = failed = 0
    problems = []
    for kind, rep in reps:
        if kind == "setup":
            attempted += 1
            if rep is None:
                failed += 1
                problems.append("setup: a set-up raised or timed out")
            continue
        got = {}
        if rep is not None:
            for res in rep["results"]:
                for p in res["points"]:
                    got[point_key(p)] = p
        for key, spec in spec_of.items():
            attempted += 1
            p = got.get(key)
            fixed = spec["min_frames"] == spec["max_frames"]
            if p is None:
                why = "did not complete"
            elif key not in ref or any(
                p[c] != ref[key][c] for c in ("frames", "bit_errors", "frame_errors")
            ):
                why = "counts differ from the untraced reference"
            elif fixed and p["frames"] != spec["max_frames"]:
                why = f"decoded {p['frames']} frames, not {spec['max_frames']}"
            else:
                why = oracle_problem(spec, p)
            if why:
                failed += 1
                problems.append(f"{kind} {key}: {why}")
        if kind == "traced" and rep is not None:
            spans = rep["trace"]["spans"]
            for name in expected_spans(specs):
                attempted += 1
                if spans.get(name, {}).get("calls", 0) == 0:
                    failed += 1
                    problems.append(f"traced: span {name} never fired")
    for line in problems:
        print("FAILED " + line, file=sys.stderr)
    return attempted, failed


def expected_spans(specs):
    names = []
    if any(s["system"] != "ALOHA" for s in specs):
        names += FFMA_SPANS
    if any(s["system"] == "ALOHA" for s in specs):
        names += ALOHA_SPANS
    return names


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def rep_totals(rep) -> dict:
    """Frames, walls and error counts of one repetition, split by system."""
    t = {"frames": 0, "ffma_frames": 0, "aloha_frames": 0, "bits": 0,
         "bit_errors": 0, "frame_errors": 0, "wall": 0.0, "ffma_wall": 0.0,
         "total": 0.0, "peak_rss_mb": rep["peak_rss_mb"]}
    for res in rep["results"]:
        t["total"] += res["total_s"]
        for p in res["points"]:
            aloha = p["system"] == "ALOHA"
            t["frames"] += p["frames"]
            t["aloha_frames" if aloha else "ffma_frames"] += p["frames"]
            t["bits"] += p["bits"]
            t["bit_errors"] += p["bit_errors"]
            t["frame_errors"] += p["frame_errors"]
            t["wall"] += p["wall_s"]
            if not aloha:
                t["ffma_wall"] += p["wall_s"]
    return t


def end_to_end_metrics(reps) -> dict:
    runs = [rep_totals(r) for kind, r in reps if kind == "run" and r is not None]
    setups = [s for kind, r in reps if kind == "setup" and r is not None
              for s in r["setup_s"]]
    first = runs[0]
    return {
        "frames_per_s": statistics.median(t["frames"] / t["wall"] for t in runs),
        "total_s": statistics.median(t["total"] for t in runs),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(t["peak_rss_mb"] for t in runs),
        "ber": first["bit_errors"] / first["bits"],
        "fer": first["frame_errors"] / first["frames"],
    }


def layer_values(rep) -> dict:
    """Per-layer figures of one traced repetition."""
    t = rep_totals(rep)
    spans = rep["trace"]["spans"]

    def total(name):
        return spans.get(name, {}).get("total_s", 0.0)

    def per_frame_ms(seconds, frames):
        return 1e3 * seconds / frames if frames else 0.0

    ff = t["ffma_frames"]
    ffma_wall = t["ffma_wall"] or 1.0
    layer_s = sum(total(n) for n in (
        "ffma_system.transmit", "ffma_system.receive",
        "baseline_aloha.transmit", "baseline_aloha.receive"))
    return {
        "linear_code.construct_s": total("linear_code.construct"),
        "linear_code.bp_ms_per_frame": per_frame_ms(total("linear_code.bp"), ff),
        "linear_code.bp_share": total("linear_code.bp") / ffma_wall,
        "ffma_system.detector_ms_per_frame": per_frame_ms(total("ffma_system.detector"), ff),
        "ffma_system.detector_share": total("ffma_system.detector") / ffma_wall,
        "ffma_system.transmit_ms_per_frame": per_frame_ms(total("ffma_system.transmit"), ff),
        "ffma_system.receive_other_ms_per_frame": per_frame_ms(
            spans.get("ffma_system.receive", {}).get("self_s", 0.0), ff),
        "baseline_aloha.ms_per_frame": per_frame_ms(
            total("baseline_aloha.transmit") + total("baseline_aloha.receive"),
            t["aloha_frames"]),
        "experiment.driver_ms_per_frame": per_frame_ms(t["wall"] - layer_s, t["frames"]),
        # ms per 100-frame batch, for the stage table
        "_stages": tuple(
            100.0 * per_frame_ms(s, ff) for s in (
                total("ffma_system.transmit"), total("ffma_system.detector"),
                total("linear_code.bp"), t["ffma_wall"])
        ),
    }


def per_layer_metrics(reps, workers: int):
    traced = [r for kind, r in reps if kind == "traced" and r is not None]
    runs = [rep_totals(r) for kind, r in reps if kind == "run" and r is not None]
    serial = [rep_totals(r) for kind, r in reps
              if kind == ("serial" if workers > 1 else "run") and r is not None]
    per_rep = [layer_values(r) for r in traced]
    metrics = {
        name: statistics.median(v[name] for v in per_rep)
        for name in PER_LAYER_UNITS if name in per_rep[0]
    }
    bp_frames = sum(r["trace"]["bp_frames"] for r in traced)
    metrics["linear_code.bp_conv_rate"] = (
        sum(r["trace"]["bp_converged"] for r in traced) / bp_frames if bp_frames else 0.0
    )
    serial_wall = statistics.median(t["wall"] for t in serial)
    metrics["experiment.parallel_efficiency"] = (
        serial_wall / (workers * statistics.median(t["wall"] for t in runs))
    )
    traced_wall = statistics.median(rep_totals(r)["wall"] for r in traced)
    metrics["trace.overhead_frac"] = traced_wall / serial_wall - 1.0
    return metrics, [v["_stages"] for v in per_rep]


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def environment() -> dict:
    import numpy
    import scipy

    try:
        # The ceiling keeps git from taking the commit of a repository
        # that merely contains this checkout.
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "git_commit": commit,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def print_stage_table(workload: str, stages) -> None:
    label, baseline = ROADMAP_STAGES[workload]
    print(f"stage table, ms per 100-frame batch over {len(stages)} traced reps;"
          f" ROADMAP column: {label}")
    print(f"  {'stage':<12}{'median':>9}{'min':>9}{'max':>9}{'ROADMAP':>9}")
    for i, name in enumerate(("transmit", "detector", "BP", "whole batch")):
        vals = [s[i] for s in stages]
        print(f"  {name:<12}{statistics.median(vals):9.1f}{min(vals):9.1f}"
              f"{max(vals):9.1f}{baseline[i]:9.0f}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "ffma" / "__init__.py").is_file():
        print(f"no ffma package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    specs = WORKLOADS[args.workload](args.seed)
    workers = max(s["workers"] for s in specs)

    OUT_DIR.mkdir(exist_ok=True)
    reps = repeat(specs, bool(args.trace), args.seconds)
    attempted, failed = check_reps(specs, reps)

    kinds = {kind for kind, _ in reps}
    if any(all(r is None for kd, r in reps if kd == kind) for kind in kinds):
        print("no repetition of some kind completed; no metrics", file=sys.stderr)
        return 1

    print(f"workload {args.workload}, seed {args.seed}, "
          f"{sum(1 for _, r in reps if r is not None)}/{len(reps)} repetitions completed")
    print("env " + json.dumps(environment()))
    for kind, rep in reps:
        if kind == "setup" and rep is not None:
            print("  setup   " + " ".join(f"{s:.3f}" for s in rep["setup_s"]) + " s")
        elif rep is not None:
            t = rep_totals(rep)
            print(f"  {kind:<7} {t['frames'] / t['wall']:9.1f} frames/s  total {t['total']:7.3f} s"
                  f"  setup {t['total'] - t['wall']:6.3f} s  peak {t['peak_rss_mb']:6.1f} MB")
    if args.trace:
        values, stages = per_layer_metrics(reps, workers)
        units = PER_LAYER_UNITS
        if args.workload in ROADMAP_STAGES:
            print_stage_table(args.workload, stages)
    else:
        values = end_to_end_metrics(reps)
        units = END_TO_END_UNITS
    for name, unit in units.items():
        print(f"  {name:<42}{values[name]:>14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
