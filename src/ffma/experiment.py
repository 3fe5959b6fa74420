"""Monte-Carlo BER experiment driver.

Runs frame-level simulations of the FFMA modes or the slotted-ALOHA
baseline over a grid of (user count, SNR) points, with an adaptive
stopping rule (collect at least ``min_bit_errors`` bit errors or hit the
frame budget) and optional process-based parallelism.

Determinism: every batch of frames derives its message and noise streams
from (seed, stream, point index, first frame index) alone, batches have
a fixed size, and batch results are folded in index order, so the output
is byte-identical for any worker count.
"""

from __future__ import annotations

import csv
import logging
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analysis import polarization_gain_db, repetition_gain_db
from .baseline_aloha import AlohaConfig, aloha_cfsp_batch, aloha_receive_batch
from .ffma_system import SystemConfig, receive_batch, transmit_cfsp_batch
from .linear_code import LinearCode

log = logging.getLogger(__name__)

SYSTEMS = ("SF", "DF", "PA", "ALOHA")

CSV_HEADER = [
    "system", "snr_db", "j", "frames", "bit_errors", "ber",
    "frame_errors", "wall_s", "ebn0_db", "esn0_db", "worst_user_ber",
]


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything needed to reproduce one BER sweep."""

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
        object.__setattr__(self, "j_list", tuple(int(j) for j in self.j_list))
        object.__setattr__(self, "snr_grid", tuple(float(s) for s in self.snr_grid))
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
        if self.system != "ALOHA":
            if self.m < 1:
                raise ValueError("FFMA systems need the extension degree m")
            if max(self.j_list) > self.m:
                raise ValueError(f"user counts {self.j_list} exceed m={self.m}")
        if self.system == "PA" and not 1 <= self.mu_pas <= self.m:
            raise ValueError(f"mu_pas={self.mu_pas} violates 1 <= mu_pas <= m={self.m}")
        if self.min_frames < 1 or self.min_bit_errors < 1:
            raise ValueError("min_frames and min_bit_errors must be >= 1")
        if self.max_frames < self.min_frames:
            raise ValueError("max_frames must be >= min_frames")
        if self.batch_frames < 1 or self.workers < 1:
            raise ValueError("batch_frames and workers must be >= 1")
        if self.max_iter < 0:
            raise ValueError(f"max_iter must be >= 0, got {self.max_iter}")


@dataclass
class BerPoint:
    """Aggregated result of one (system, J, SNR) grid point."""

    system: str
    snr_db: float
    j_users: int
    frames: int
    bit_errors: int
    ber: float
    frame_errors: int
    wall_s: float
    ebn0_db: float
    esn0_db: float
    worst_user_ber: float


def per_user_frame_energy(spec: ExperimentSpec, j_users: int) -> float:
    """Transmitted energy per user per frame, in unit-power symbols."""
    if spec.system == "SF" or spec.system == "PA":
        return spec.n
    if spec.system == "DF":
        return spec.n - (spec.m - 1) * spec.k
    return spec.n / j_users


def _noise_level(spec: ExperimentSpec, j_users: int, snr_db: float) -> float:
    lin = 10.0 ** (snr_db / 10.0)
    if spec.snr_ref == "esn0":
        return 1.0 / lin
    eb = per_user_frame_energy(spec, j_users) / spec.k
    return eb / lin


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

_WORKER: dict = {}


def _init_worker(spec: ExperimentSpec, code: LinearCode | None) -> None:
    _WORKER["spec"] = spec
    _WORKER["code"] = code


def _simulate_batch(
    spec: ExperimentSpec,
    code: LinearCode | None,
    j_users: int,
    n0: float,
    point_index: int,
    start_frame: int,
    count: int,
):
    """Simulate frames [start_frame, start_frame+count) of one grid point."""
    bit_rng = np.random.default_rng((spec.seed, 1, point_index, start_frame))
    noise_rng = np.random.default_rng((spec.seed, 2, point_index, start_frame))
    bits = bit_rng.integers(0, 2, size=(count, j_users, spec.k), dtype=np.uint8)
    sigma = math.sqrt(n0 / 2.0)

    if spec.system == "ALOHA":
        cfg = AlohaConfig(n=spec.n, k=spec.k, j_users=j_users)
        r = aloha_cfsp_batch(bits, cfg)
        y = r + noise_rng.normal(0.0, sigma, size=r.shape)
        rx = aloha_receive_batch(y, cfg)
    else:
        cfg = SystemConfig(
            code=code, k=spec.k, j_users=j_users, mode=spec.system,
            mu_pas=spec.mu_pas, n0=n0, max_iter=spec.max_iter,
        )
        r = transmit_cfsp_batch(bits, cfg)
        y = r + noise_rng.normal(0.0, sigma, size=r.shape)
        rx, _conv = receive_batch(y, cfg)

    err = rx != bits
    return (
        count,
        int(err.sum()),
        int(err.any(axis=(1, 2)).sum()),
        err.sum(axis=(0, 2)).astype(np.int64),
    )


def _worker_batch(j_users, n0, point_index, start_frame, count):
    return _simulate_batch(
        _WORKER["spec"], _WORKER["code"], j_users, n0, point_index,
        start_frame, count,
    )


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

class _PointAccumulator:
    def __init__(self, j_users: int) -> None:
        self.frames = 0
        self.bit_errors = 0
        self.frame_errors = 0
        self.per_user = np.zeros(j_users, dtype=np.int64)

    def fold(self, result) -> None:
        count, bit_err, frame_err, per_user = result
        self.frames += count
        self.bit_errors += bit_err
        self.frame_errors += frame_err
        self.per_user += per_user

    def done(self, spec: ExperimentSpec) -> bool:
        return self.frames >= spec.min_frames and (
            self.bit_errors >= spec.min_bit_errors or self.frames >= spec.max_frames
        )


def _run_point(spec, code, executor, j_users, n0, point_index):
    acc = _PointAccumulator(j_users)
    B = spec.batch_frames
    n_batches = math.ceil(spec.max_frames / B)

    def batch_args(b):
        start = b * B
        return j_users, n0, point_index, start, min(B, spec.max_frames - start)

    if executor is None:
        for b in range(n_batches):
            acc.fold(_simulate_batch(spec, code, *batch_args(b)))
            if acc.done(spec):
                break
    else:
        inflight: dict = {}
        next_submit = 0
        next_fold = 0
        while next_fold < n_batches:
            while next_submit < n_batches and len(inflight) < 2 * spec.workers:
                inflight[next_submit] = executor.submit(_worker_batch, *batch_args(next_submit))
                next_submit += 1
            acc.fold(inflight.pop(next_fold).result())
            next_fold += 1
            if acc.done(spec):
                for fut in inflight.values():
                    fut.cancel()
                inflight.clear()
                break
    return acc


def run_experiment(spec: ExperimentSpec) -> list[BerPoint]:
    """Run the sweep, write the CSV, and return the per-point records."""
    code = _load_code(spec)
    if spec.system == "PA":
        log.info("polarization gain %.2f dB", polarization_gain_db(spec.mu_pas))
    elif spec.system == "ALOHA":
        for j in spec.j_list:
            log.info("J=%d: repetition gain %.2f dB", j, repetition_gain_db(spec.n, j, spec.k))

    executor = None
    if spec.workers > 1:
        executor = ProcessPoolExecutor(
            max_workers=spec.workers,
            initializer=_init_worker,
            initargs=(spec, code),
        )
    points: list[BerPoint] = []
    try:
        point_index = 0
        for j in spec.j_list:
            for snr_db in spec.snr_grid:
                n0 = _noise_level(spec, j, snr_db)
                t0 = time.perf_counter()
                acc = _run_point(spec, code, executor, j, n0, point_index)
                wall = time.perf_counter() - t0
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
                    "%s J=%d snr=%.2f dB: ber=%.3g (%d errors / %d frames, %.1f s)",
                    spec.system, j, snr_db, point.ber, point.bit_errors,
                    point.frames, wall,
                )
                point_index += 1
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
            writer.writerow([
                p.system,
                _fmt(p.snr_db),
                p.j_users,
                p.frames,
                p.bit_errors,
                _fmt(p.ber),
                p.frame_errors,
                f"{p.wall_s:.3f}" if record_timing else "0.000",
                _fmt(p.ebn0_db),
                _fmt(p.esn0_db),
                _fmt(p.worst_user_ber),
            ])


def _fmt(x: float) -> str:
    return format(float(x), ".10g")


def read_csv(path) -> list[dict]:
    """Read a results CSV back into dictionaries with numeric fields."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise ValueError(f"{path} contains no data rows")
    for row in rows:
        missing = [c for c in CSV_HEADER if c not in row or row[c] in (None, "")]
        if missing:
            raise ValueError(f"{path} is missing columns {missing}")
        for key in ("snr_db", "ber", "wall_s", "ebn0_db", "esn0_db", "worst_user_ber"):
            row[key] = float(row[key])
        for key in ("j", "frames", "bit_errors", "frame_errors"):
            row[key] = int(row[key])
    return rows


def emit_plot_data(csv_path, out_prefix=None) -> tuple[str, str]:
    """Produce a gnuplot data file (one indexed block per system/J curve)
    and a ready-to-run script with a log-scale BER axis."""
    rows = read_csv(csv_path)
    prefix = Path(out_prefix) if out_prefix else Path(csv_path).with_suffix("")
    dat_path = str(prefix) + ".dat"
    gp_path = str(prefix) + ".gp"

    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        groups.setdefault((row["system"], row["j"]), []).append(row)

    blocks = []
    titles = []
    for (system, j), grp in groups.items():
        lines = [f"# system={system} j={j}", "# snr_db ber"]
        for row in sorted(grp, key=lambda r: r["snr_db"]):
            lines.append(f"{row['snr_db']:.6g} {row['ber']:.6g}")
        blocks.append("\n".join(lines))
        titles.append(f"{system} J={j}")
    with open(dat_path, "w") as fh:
        fh.write("\n\n\n".join(blocks) + "\n")

    plot_terms = ", \\\n    ".join(
        f"'{Path(dat_path).name}' index {i} using 1:2 with linespoints title '{t}'"
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
