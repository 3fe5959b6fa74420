"""Benchmark workloads: each one is a list of ``ExperimentSpec`` keyword sets.

Every workload is built from the benchmark's ``--seed`` alone, and the
program receives nothing but these generated specs. The seed feeds
``ExperimentSpec.seed``, so it picks both the PEG code and the message and
noise streams. All points use the Es/N0 axis on the desk code
(n=600, k=5, m=60).

Fixed-point workloads pin ``min_frames = max_frames``: the work per run
is then the same on every commit, even when a change moves the BER.
"""

from __future__ import annotations

DESK = dict(n=600, k=5, m=60, snr_ref="esn0", max_iter=50)


def _fixed_point(system: str, snr_db: float, frames: int, seed: int, **kw) -> dict:
    return dict(
        DESK, system=system, j_list=(60,), snr_grid=(snr_db,), seed=seed,
        min_frames=frames, max_frames=frames, min_bit_errors=1,
        batch_frames=100, workers=1, **kw,
    )


def desk_sf60(seed: int) -> list[dict]:
    # Detector-bound: the (J+1)-level mixture is the largest stage of each
    # batch. At 2.6 dB about 45 % of the frames fail, so 1000 frames give a
    # BER and FER that vary little across seeds; at 3.0 dB only ~3 % fail
    # and the error counts are too few to be steady.
    return [_fixed_point("SF", 2.6, 1000, seed)]


def desk_pa60(seed: int) -> list[dict]:
    # BP-bound: no frame converges, so every frame runs all 50 iterations.
    # The BER is the uncoded information-symbol BER; at -12 dB it is ~3e-3,
    # ~900 independent bit errors per 1000 frames (at -9.5 dB only ~40).
    return [_fixed_point("PA", -12.0, 1000, seed, mu_pas=60.0)]


def desk_sweep(seed: int) -> list[dict]:
    # Driver-bound: a 2-worker pool with the adaptive stop rule, on 3 ms
    # ALOHA batches and on DF batches ~70 times longer. The rule
    # (error counting, the stop test, cancelling batches in flight) runs
    # on every batch, but its thresholds are set so that each point stops
    # at min_frames or max_frames for almost every seed: ALOHA J=30 and 60
    # at 2 dB and J=60 at 5 dB pass 100 errors before 5000 frames, J=30 at
    # 5 dB hardly errs; DF passes 150 errors before 500 frames at -0.5 dB
    # and not within 1500 at 0 dB. The work per run then does not move
    # with the seed or with the BER.
    return [
        dict(
            DESK, system="ALOHA", m=0, j_list=(30, 60), snr_grid=(2.0, 5.0),
            seed=seed, min_frames=5000, max_frames=10_000, min_bit_errors=100,
            batch_frames=100, workers=2,
        ),
        dict(
            DESK, system="DF", j_list=(30,), snr_grid=(-0.5, 0.0), seed=seed,
            min_frames=500, max_frames=1500, min_bit_errors=150,
            batch_frames=100, workers=2,
        ),
    ]


WORKLOADS = {
    "desk_sf60": desk_sf60,
    "desk_pa60": desk_pa60,
    "desk_sweep": desk_sweep,
}
