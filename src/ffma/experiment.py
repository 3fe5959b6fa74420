"""Monte-Carlo BER experiment driver.

Runs frame-level simulations of the FFMA modes or the slotted-ALOHA
baseline over a grid of (user count, SNR) points, with an adaptive
stopping rule (collect at least ``min_bit_errors`` bit errors or hit the
frame budget) and optional process-based parallelism.

Determinism: every batch of frames derives its message and noise streams
from (seed, stream, point index, first frame index) alone, batches have
a fixed size, and batch results are folded in index order, so the output
is byte-identical for any worker count.

Points: the spec works out each point's (J, SNR, n0) once, each point's
config is built once per process, and a task names its point by index.

Queue: the (point, batch) pairs of the whole sweep form one in-order
queue (``_run_queue``) at any worker count.  With ``workers`` above 1 a
process pool runs ``2 * workers`` tasks in flight, so the next point's
batches start while the current point's last ones still run; one worker
runs each task in this process, one at a time, so it computes only the
batches it folds.  A point's ``wall_s`` runs from the end of the
previous point (from the sweep's start for the first), and the points'
walls add up to the sweep's elapsed time.

Allocator: every pool worker calls ``keep_freed_memory``, so freed blocks
under 32 MiB stay with the process for the next batch; importing the
package or calling ``run_experiment`` does not.
"""

from __future__ import annotations

import csv
import ctypes
import functools
import importlib
import logging
import math
import operator
import time
import typing
from collections import deque
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .analysis import polarization_gain_db, repetition_gain_db
from .baseline_aloha import AlohaConfig, aloha_cfsp_batch, aloha_receive_batch
from .ffma_system import (SystemConfig, detector_is_finite, mode_layout, receive_batch,
                          transmit_cfsp_batch)
from .linear_code import LinearCode

log = logging.getLogger(__name__)

SYSTEMS = ("SF", "DF", "PA", "ALOHA")


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything needed to reproduce one BER sweep; ``grid``, worked out from
    the fields and not one of them, holds each point's (J, snr_db, n0), J-major."""

    system: str
    n: int
    k: int
    m: int = 0
    j_list: tuple = (1,)
    snr_grid: tuple = (0.0,)
    snr_ref: str = "ebn0"
    mu_pas: float = 1.0
    min_frames: int = 100
    max_frames: int = 200_000
    min_bit_errors: int = 100
    max_iter: int = 50
    seed: int = 1
    col_weight: int = 3
    code_source: str = "generated"
    output: str = "results.csv"
    workers: int = 1
    batch_frames: int = 100
    record_timing: bool = False

    def __post_init__(self) -> None:
        for key, kind in _SPEC_TYPES.items():   # every field, typed or a string
            value = _convert(kind, getattr(self, key), key)
            if kind is tuple:
                value = tuple(_convert(_ITEM_TYPES[key], x, f"{key} item") for x in value)
            object.__setattr__(self, key, value)
        if self.system not in SYSTEMS:
            raise ValueError(f"system must be one of {SYSTEMS}, got {self.system!r}")
        if not self.snr_grid:
            raise ValueError("snr_grid must not be empty")
        if self.snr_ref not in ("ebn0", "esn0"):
            raise ValueError(f"snr_ref must be 'ebn0' or 'esn0', got {self.snr_ref!r}")
        if not self.j_list:
            raise ValueError("j_list must not be empty")
        if min(self.j_list) < 1:
            raise ValueError("user counts must be >= 1")
        if self.n < 1 or self.k < 1:
            raise ValueError(f"n and k must be >= 1, got n={self.n}, k={self.k}")
        layouts = {j: _layout(self, j) for j in self.j_list}
        if self.min_frames < 1 or self.min_bit_errors < 1:
            raise ValueError("min_frames and min_bit_errors must be >= 1")
        if self.max_frames < self.min_frames:
            raise ValueError("max_frames must be >= min_frames")
        if self.batch_frames < 1 or self.workers < 1:
            raise ValueError("batch_frames and workers must be >= 1")
        for key in ("max_iter", "seed"):
            if getattr(self, key) < 0:
                raise ValueError(f"{key} must be >= 0, got {getattr(self, key)}")
        grid = []
        for j in self.j_list:
            eb = per_user_frame_energy(self, j) / self.k
            for snr_db in self.snr_grid:
                try:
                    lin = 10.0 ** (snr_db / 10.0)
                    n0 = 1.0 / lin if self.snr_ref == "esn0" else eb / lin
                    # The CSV's Eb/N0 and Es/N0, and the FFMA detector's arithmetic.
                    ok = all(0.0 < x < math.inf for x in (n0, eb / n0, 1.0 / n0)) and (
                        self.system == "ALOHA" or detector_is_finite(n0, layouts[j].a_info, j))
                except (ZeroDivisionError, OverflowError):
                    ok = False
                if not ok:
                    raise ValueError(
                        f"snr={snr_db:g} dB gives a noise level at which Eb/N0, Es/N0 "
                        f"or the detector's arithmetic is not finite (J={j})")
                grid.append((j, snr_db, n0))
        object.__setattr__(self, "grid", tuple(grid))


@dataclass
class BerPoint:
    """Aggregated result of one (system, J, SNR) grid point, and its CSV row:
    the fields, in order, are the columns (``column`` metadata renames one)."""

    system: str
    snr_db: float
    j_users: int = field(metadata={"column": "j"})
    frames: int
    bit_errors: int
    ber: float
    frame_errors: int
    wall_s: float
    ebn0_db: float
    esn0_db: float
    worst_user_ber: float


_SPEC_TYPES = typing.get_type_hints(ExperimentSpec)
_ITEM_TYPES = {"j_list": int, "snr_grid": float}
_BOOL_WORDS = {"1": True, "true": True, "yes": True, "on": True,
               "0": False, "false": False, "no": False, "off": False}
_POINT_TYPES = typing.get_type_hints(BerPoint)
_COLUMNS = {f.name: f.metadata.get("column", f.name) for f in fields(BerPoint)}
CSV_HEADER = list(_COLUMNS.values())


def _layout(spec: ExperimentSpec, j_users: int):
    """J users' layout (``AlohaConfig`` or ``mode_layout``); ValueError if none."""
    if spec.system == "ALOHA":
        return AlohaConfig(n=spec.n, k=spec.k, j_users=j_users)
    return mode_layout(spec.system, spec.n, spec.k, spec.m, j_users, spec.mu_pas)


def per_user_frame_energy(spec: ExperimentSpec, j_users: int) -> float:
    """Transmitted energy per user per frame, in unit-power symbols."""
    layout = _layout(spec, j_users)
    return layout.slot_len if spec.system == "ALOHA" else layout.energy


def _load_code(spec: ExperimentSpec) -> LinearCode | None:
    if spec.system == "ALOHA":
        return None
    if spec.code_source == "generated":
        return LinearCode.generate(
            spec.n, spec.m * spec.k, col_weight=spec.col_weight, seed=spec.seed
        )
    code = LinearCode.from_alist(spec.code_source)
    if code.n != spec.n or code.k != spec.m * spec.k:
        raise ValueError(
            f"code from {spec.code_source} is ({code.n}, {code.k}), "
            f"spec needs ({spec.n}, {spec.m * spec.k})"
        )
    return code


# ---------------------------------------------------------------------------
# Batch simulation (worker side)
# ---------------------------------------------------------------------------

_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_KEEP_FREED_BYTES = 32 << 20  # glibc's largest mmap threshold on 64-bit


def keep_freed_memory() -> None:
    """Have glibc keep freed blocks under 32 MiB for reuse by this process.

    By default glibc serves large blocks with mmap and trims the heap,
    raising both thresholds only after a block that large is freed, so a
    process whose batches never free such a block hands every stage's
    temporaries back to the OS and takes minor page faults to get them
    again.  Both thresholds are set, or neither: setting one freezes the
    other at its 128 KiB default, so the trim threshold is left alone
    when the C library refuses the mmap threshold.  A silent no-op where
    the C library has no ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, _KEEP_FREED_BYTES):
        mallopt(_M_TRIM_THRESHOLD, _KEEP_FREED_BYTES)


def _point_configs(spec: ExperimentSpec, code: LinearCode | None) -> list:
    """Each grid point's ``AlohaConfig`` or ``SystemConfig``, in grid order."""
    if spec.system == "ALOHA":
        return [AlohaConfig(n=spec.n, k=spec.k, j_users=j) for j, _, _ in spec.grid]
    return [SystemConfig(code=code, k=spec.k, j_users=j, mode=spec.system,
                         mu_pas=spec.mu_pas, n0=n0, max_iter=spec.max_iter)
            for j, _, n0 in spec.grid]


_WORKER: dict = {}


def _init_worker(spec: ExperimentSpec, configs: list) -> None:
    keep_freed_memory()
    _WORKER["spec"] = spec
    _WORKER["configs"] = configs


def _simulate_batch(spec: ExperimentSpec, configs: list, point_index: int,
                    start_frame: int, count: int):
    """Simulate frames [start_frame, start_frame+count) of one grid point."""
    j_users, _, n0 = spec.grid[point_index]
    cfg = configs[point_index]
    bit_rng = np.random.default_rng((spec.seed, 1, point_index, start_frame))
    noise_rng = np.random.default_rng((spec.seed, 2, point_index, start_frame))
    bits = bit_rng.integers(0, 2, size=(count, j_users, spec.k), dtype=np.uint8)
    sigma = math.sqrt(n0 / 2.0)
    aloha = spec.system == "ALOHA"
    r = aloha_cfsp_batch(bits, cfg) if aloha else transmit_cfsp_batch(bits, cfg)
    # Generator.normal(0.0, sigma) is 0.0 + sigma*z on this stream, so
    # scaling standard normals in place gives the same bits.
    y = noise_rng.standard_normal(r.shape)
    y *= sigma
    y += r
    rx = aloha_receive_batch(y, cfg) if aloha else receive_batch(y, cfg)[0]
    err = rx != bits
    return (
        count,
        int(err.sum()),
        int(err.any(axis=(1, 2)).sum()),
        err.sum(axis=(0, 2)).astype(np.int64),
    )


def _batches(spec, configs, point_index, start_frame, count):
    """Simulate frames [start_frame, start_frame+count) of one grid point as
    ``batch_frames`` slices, one result per slice."""
    stop = start_frame + count
    return [_simulate_batch(spec, configs, point_index, s, min(spec.batch_frames, stop - s))
            for s in range(start_frame, stop, spec.batch_frames)]


def _worker_batch(*task):
    """``_batches`` of one task, in a pool worker."""
    return _batches(_WORKER["spec"], _WORKER["configs"], *task)


def _in_process(spec, configs, *task) -> Future:
    """Run one task in this process and hand back its finished future."""
    done = Future()
    done.set_result(_batches(spec, configs, *task))
    return done


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

class _PointAccumulator:
    """Counts of one grid point, folded batch by batch in index order.

    The point folds batches [0, end).  ``end`` starts at the frame budget's
    batch count; once the bit errors reach ``min_bit_errors`` it drops to
    the first fold that also covers ``min_frames``, so the stop rule is
    decided as soon as it is known, not only when it is reached.
    """

    def __init__(self, spec: ExperimentSpec, j_users: int) -> None:
        self.frames = 0
        self.bit_errors = 0
        self.frame_errors = 0
        self.per_user = np.zeros(j_users, dtype=np.int64)
        self.min_bit_errors = spec.min_bit_errors
        self.must = math.ceil(spec.min_frames / spec.batch_frames)  # always folded
        self.end = math.ceil(spec.max_frames / spec.batch_frames)
        self.folded = 0
        self.submitted = 0   # batches handed to the task runner
        self.discarded = 0   # batches computed past the stop

    def fold(self, result) -> None:
        count, bit_err, frame_err, per_user = result
        self.frames += count
        self.bit_errors += bit_err
        self.frame_errors += frame_err
        self.per_user += per_user
        self.folded += 1
        if self.bit_errors >= self.min_bit_errors:
            self.end = min(self.end, max(self.must, self.folded))

    @property
    def done(self) -> bool:
        return self.folded >= self.end


def _run_queue(spec, run, window: int):
    """Yield each grid point's accumulator, in grid order, from one queue.

    ``run(point_index, start_frame, count)`` starts one task
    and returns its future.  The (point, batch) pairs of the whole sweep
    form one in-order queue, of which at most ``window`` tasks are in
    flight; results are folded in submission order.  A point submits
    nothing past its decided ``end``, and once it has nothing left to
    submit the next point's batches take the free slots.  The batches
    below ``must`` are always folded, so they go out as ``window``
    near-equal groups, one task each; later batches go one per task.
    In-flight batches past a stop decided later are cancelled, and those
    already running are counted in ``discarded``.
    """
    B = spec.batch_frames
    accs = [_PointAccumulator(spec, j_users) for j_users, _, _ in spec.grid]
    inflight: deque = deque()   # (point index, first batch, batches, future)
    nxt = 0                     # the first point that may still submit

    def submit(q: int) -> None:
        acc, first = accs[q], accs[q].submitted
        if first < acc.must:
            size, extra = divmod(acc.must, window)
            count = size + 1 if first < extra * (size + 1) else size
        else:
            count = 1
        start = first * B
        fut = run(q, start, min(count * B, spec.max_frames - start))
        inflight.append((q, first, count, fut))
        acc.submitted += count

    for p, acc in enumerate(accs):
        while not acc.done:
            while len(inflight) < window:
                while nxt < len(accs) and accs[nxt].submitted >= accs[nxt].end:
                    nxt += 1
                if nxt == len(accs):
                    break
                submit(nxt)
            for result in inflight.popleft()[3].result():
                acc.fold(result)
            if acc.submitted > acc.end:
                for task in [t for t in inflight if t[0] == p and t[1] >= acc.end]:
                    inflight.remove(task)
                    if not task[3].cancel():
                        acc.discarded += task[2]
                acc.submitted = acc.end
        yield acc


def run_experiment(spec: ExperimentSpec) -> list[BerPoint]:
    """Run the sweep, write the CSV, and return the per-point records."""
    if Path(spec.output).is_dir() or not Path(spec.output).parent.is_dir():
        raise ValueError(f"cannot write the CSV to {spec.output}: it is a directory, "
                         "or its directory does not exist")
    code = _load_code(spec)
    if spec.system == "PA":
        log.info("polarization gain %.2f dB", polarization_gain_db(spec.mu_pas))
    elif spec.system == "ALOHA":
        for j in spec.j_list:
            log.info("J=%d: repetition gain %.2f dB", j, repetition_gain_db(spec.n, j, spec.k))

    # The configs all hold one code object, so a pool's initargs pickle it once.
    configs = _point_configs(spec, code)
    # One worker computes each task when it is submitted, so it keeps one
    # in flight and computes only the batches it folds.
    executor = None
    run, window = functools.partial(_in_process, spec, configs), 1
    if spec.workers > 1:
        # Loaded once here, not at each worker's first batch: an ALOHA
        # sweep builds no code, so nothing else loads it before the fork.
        importlib.import_module("numpy.random")
        executor = ProcessPoolExecutor(
            max_workers=spec.workers,
            initializer=_init_worker,
            initargs=(spec, configs),
        )
        run, window = functools.partial(executor.submit, _worker_batch), 2 * spec.workers
    points: list[BerPoint] = []
    try:
        t_end = time.perf_counter()
        for (j, snr_db, n0), acc in zip(spec.grid, _run_queue(spec, run, window)):
            t_start, t_end = t_end, time.perf_counter()
            wall = t_end - t_start
            total_bits = acc.frames * j * spec.k
            point = BerPoint(
                system=spec.system,
                snr_db=snr_db,
                j_users=j,
                frames=acc.frames,
                bit_errors=acc.bit_errors,
                ber=acc.bit_errors / total_bits,
                frame_errors=acc.frame_errors,
                wall_s=wall,
                ebn0_db=10.0 * math.log10(per_user_frame_energy(spec, j) / spec.k / n0),
                esn0_db=10.0 * math.log10(1.0 / n0),
                worst_user_ber=float(acc.per_user.max() / (acc.frames * spec.k)),
            )
            points.append(point)
            log.info(
                "%s J=%d snr=%.2f dB: ber=%.3g (%d errors / %d frames, %.1f s, "
                "%d batches computed past the stop)",
                spec.system, j, snr_db, point.ber, point.bit_errors,
                point.frames, wall, acc.discarded,
            )
    finally:
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)

    write_csv(points, spec.output, record_timing=spec.record_timing)
    return points


def write_csv(points, path, record_timing: bool = False) -> None:
    """Write points as RFC-4180 CSV.

    Wall time is zeroed out unless explicitly requested, so identical
    (spec, seed) runs produce byte-identical files.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for p in points:
            writer.writerow([_cell(p, name, record_timing) for name in _COLUMNS])


def _cell(p: BerPoint, name: str, record_timing: bool):
    value = getattr(p, name)
    if name == "wall_s":
        return f"{value:.3f}" if record_timing else "0.000"
    return format(float(value), ".10g") if _POINT_TYPES[name] is float else value


def read_csv(path) -> list[BerPoint]:
    """Read a results CSV back into points, each column converted by its field's type."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise ValueError(f"{path} contains no data rows")
    for row in rows:
        missing = [c for c in CSV_HEADER if c not in row or row[c] in (None, "")]
        if missing:
            raise ValueError(f"{path} is missing columns {missing}")
    return [BerPoint(**{name: _convert(_POINT_TYPES[name], row[col],
                                       f"{path} data row {i}, column {col}")
                        for name, col in _COLUMNS.items()})
            for i, row in enumerate(rows, 1)]


def _convert(kind, value, where: str):
    """``value`` as ``kind``, or a ValueError that says where it came from.  A bool
    string is a 1/true/yes/on or 0/false/no/off word, a tuple string is split at commas
    or spaces, and an int that is not a string must be an integer (not 2.5 or 25.0)."""
    try:
        if isinstance(value, str) and kind is bool:
            return _BOOL_WORDS[value.strip().lower()]
        if isinstance(value, str) and kind is tuple:
            value = value.replace(",", " ").split()
        return operator.index(value) if kind is int and not isinstance(value, str) else kind(value)
    except (KeyError, TypeError, ValueError):
        raise ValueError(f"{where}: {value!r} is not {kind.__name__}") from None


def emit_plot_data(csv_path, out_prefix=None) -> tuple[str, str]:
    """Produce a gnuplot data file (one indexed block per system/J curve)
    and a ready-to-run script with a log-scale BER axis."""
    points = read_csv(csv_path)
    prefix = Path(out_prefix) if out_prefix else Path(csv_path).with_suffix("")
    dat_path = str(prefix) + ".dat"
    gp_path = str(prefix) + ".gp"

    groups: dict[tuple, list[BerPoint]] = {}
    for p in points:
        groups.setdefault((p.system, p.j_users), []).append(p)

    blocks = []
    titles = []
    for (system, j), grp in groups.items():
        lines = [f"# system={system} j={j}", "# snr_db ber"]
        for p in sorted(grp, key=lambda p: p.snr_db):
            lines.append(f"{p.snr_db:.6g} {p.ber:.6g}")
        blocks.append("\n".join(lines))
        # Inside gnuplot's single quotes, '' stands for one quote.
        titles.append(f"{system} J={j}".replace("'", "''"))
    with open(dat_path, "w") as fh:
        fh.write("\n\n\n".join(blocks) + "\n")

    name = Path(dat_path).name.replace("'", "''")
    plot_terms = ", \\\n    ".join(
        f"'{name}' index {i} using 1:2 with linespoints title '{t}'"
        for i, t in enumerate(titles)
    )
    script = "\n".join([
        "set logscale y",
        "set grid",
        "set xlabel 'SNR (dB)'",
        "set ylabel 'BER'",
        "set format y '10^{%T}'",
        f"plot {plot_terms}",
        "pause -1",
    ])
    with open(gp_path, "w") as fh:
        fh.write(script + "\n")
    return dat_path, gp_path
