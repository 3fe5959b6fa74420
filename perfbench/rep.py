"""One repetition of a workload, run in a fresh process by ``run.py``.

Reads a job as JSON on stdin: ``{"specs": [...], "trace": bool,
"workers": int or null, "out_dir": str, "setups": int}``. Without
``setups``, runs ``ffma.experiment.run_experiment`` once per spec and
prints one JSON line with the per-point counts, the wall times, the peak
resident memory of this process and its pool workers, and (when traced)
the span summary. With ``setups``, it instead times the workload's set-up
that many times and prints ``{"setup_s": [...]}``. An exception ends the
process with a traceback and a nonzero status.
``ffma`` is imported from ``PYTHONPATH``, which ``run.py`` points at the
checkout's ``src``.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import resource
import sys
import time
import traceback


def _reap_pool_workers(timeout_s: float = 60.0) -> None:
    """Wait until every pool worker started by run_experiment has exited."""
    deadline = time.monotonic() + timeout_s
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            for child in multiprocessing.active_children():
                child.kill()
                child.join()
            break
        time.sleep(0.01)


def _setup_once(specs, out_dir) -> float:
    """Set-up seconds of one pass over ``specs``, one frame per point."""
    from ffma.experiment import ExperimentSpec, run_experiment

    setup_s = 0.0
    for i, kw in enumerate(specs):
        # One worker: the pool starts at the first batch, inside the
        # point's wall time, so it is not part of set-up either way.
        kw = dict(kw, min_frames=1, max_frames=1, batch_frames=1, workers=1,
                  output=os.path.join(out_dir, f"setup{os.getpid()}_{i}.csv"))
        try:
            t0 = time.perf_counter()
            points = run_experiment(ExperimentSpec(**kw))
            setup_s += time.perf_counter() - t0 - sum(p.wall_s for p in points)
        finally:
            if os.path.exists(kw["output"]):
                os.remove(kw["output"])
    return setup_s


def setup_times(specs, count: int, out_dir) -> list[float]:
    """Time the workload's set-up ``count`` times, each in a fresh child.

    Each child is forked after ``ffma`` is imported and before anything in
    it has run, so it starts where a fresh ``ffma run`` starts, without
    paying the imports again. Set-up is ``run_experiment``'s wall time
    minus its points' wall time, mostly code construction.
    """
    import ffma.experiment  # noqa: F401  (imported once, before the forks)

    times = []
    for _ in range(count):
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(read_fd)
            try:
                os.write(write_fd, repr(_setup_once(specs, out_dir)).encode())
            except BaseException:
                traceback.print_exc()
                sys.stderr.flush()
                os._exit(1)
            os._exit(0)
        os.close(write_fd)
        with os.fdopen(read_fd) as fh:
            text = fh.read()
        _, status = os.waitpid(pid, 0)
        if status != 0:
            raise RuntimeError(f"set-up child exited with status {status}")
        times.append(float(text))
    return times


def main() -> int:
    job = json.loads(sys.stdin.read())
    if job.get("setups"):
        print(json.dumps({"setup_s": setup_times(job["specs"], job["setups"], job["out_dir"])}))
        return 0
    from ffma.experiment import ExperimentSpec, run_experiment

    tracer = None
    if job["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    results = []
    for i, kw in enumerate(job["specs"]):
        kw = dict(kw, output=os.path.join(job["out_dir"], f"rep{os.getpid()}_{i}.csv"))
        if job["workers"] is not None:
            kw["workers"] = job["workers"]
        try:
            t0 = time.perf_counter()
            points = run_experiment(ExperimentSpec(**kw))
            total_s = time.perf_counter() - t0
        finally:
            if os.path.exists(kw["output"]):
                os.remove(kw["output"])
        results.append({
            "total_s": total_s,
            "points": [
                {
                    "system": p.system, "j": p.j_users, "snr_db": p.snr_db,
                    "frames": p.frames, "bits": p.frames * p.j_users * kw["k"],
                    "bit_errors": p.bit_errors, "frame_errors": p.frame_errors,
                    "wall_s": p.wall_s,
                }
                for p in points
            ],
        })
    _reap_pool_workers()

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(json.dumps({
        "results": results,
        # ru_maxrss is in KiB on Linux; the larger of this process and its
        # largest pool worker.
        "peak_rss_mb": max(own, workers) / 1024.0,
        "trace": tracer.summary() if tracer else None,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
