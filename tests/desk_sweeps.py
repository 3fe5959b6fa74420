"""Acceptance criterion 7's desk sweeps, in one place.

``tests/test_acceptance.py`` runs them in its ``desk_curves`` fixture,
and ``scripts/gate_csvs.sh`` writes their 13 CSVs as part of the
refactor gate:

    PYTHONPATH=src python3 tests/desk_sweeps.py OUTDIR

This module imports only ``ffma``, so it runs against any checkout's
package.
"""

import sys
from pathlib import Path

from ffma.experiment import ExperimentSpec, run_experiment

WORKERS = 2

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


def desk_specs(out_dir):
    """Each sweep's key and spec, in run order, writing its CSV into ``out_dir``."""
    out_dir = Path(out_dir)
    for (system, j), kw in SWEEPS.items():
        yield (system, j), ExperimentSpec(
            system=system, j_list=(j,), mu_pas=60.0 if system == "PA" else 1.0,
            output=str(out_dir / f"{system}_{j}.csv"), **DESK, **kw,
        )
    for key, kw in SHADOW.items():
        yield key, ExperimentSpec(
            output=str(out_dir / f"{key[0].replace('@', '_')}_{key[1]}.csv"),
            **DESK, **kw,
        )


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} OUTDIR")
    for _, spec in desk_specs(sys.argv[1]):
        run_experiment(spec)
