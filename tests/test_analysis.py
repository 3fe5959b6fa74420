import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ffma
from ffma.analysis import interpolate_snr_at_ber, polarization_gain_db, repetition_gain_db


def test_gain_figures_headline_numbers():
    assert round(polarization_gain_db(300.0), 2) == 24.77
    assert round(repetition_gain_db(6000, 1, 10), 2) == 27.78
    assert polarization_gain_db(1.0) == 0.0
    assert math.isclose(repetition_gain_db(6000, 300, 10), 10 * math.log10(2))


def test_gain_figures_validation():
    with pytest.raises(ValueError):
        repetition_gain_db(6000, 7, 10)
    with pytest.raises(ValueError):
        polarization_gain_db(0.0)


def test_interpolate_snr_at_ber():
    snr = np.array([0.0, 1.0, 2.0, 3.0])
    ber = np.array([1e-2, 1e-3, 1e-4, 1e-5])
    assert math.isclose(interpolate_snr_at_ber(snr, ber, 1e-3), 1.0)
    x = interpolate_snr_at_ber(snr, ber, 10 ** -3.5)
    assert math.isclose(x, 1.5, abs_tol=1e-9)
    # zero tail counts as below target
    assert interpolate_snr_at_ber([0, 1], [1e-3, 0.0], 1e-4) <= 1.0
    with pytest.raises(ValueError):
        interpolate_snr_at_ber([0, 1], [1e-2, 1e-3], 1e-6)


def _run_python(code: str, cwd) -> str:
    src = str(Path(ffma.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd, check=True,
                         capture_output=True, text=True, timeout=120)
    return out.stdout.strip()


def test_import_does_not_load_scipy(tmp_path):
    # The simulator's runtime dependency is numpy alone: scipy.stats roughly
    # doubled the resident memory of every simulator process (each
    # `ffma run`, pool worker and bench run), and scipy.sparse added a
    # third, so nothing the package imports at load time may pull in scipy.
    code = ("import sys\nimport ffma, ffma.cli, ffma.experiment\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert _run_python(code, tmp_path) == "[]"


def test_cli_run_does_not_load_numpy_ma(tmp_path):
    # numpy 2's np.unique imports numpy.ma, which cost every process that
    # built a code 10-15 ms and 0.5 MB; nothing in the simulator needs it.
    code = (
        "import sys\nimport numpy\n"
        "if 'numpy.ma' in sys.modules:\n    print('loaded with numpy')\n    sys.exit()\n"
        "from ffma.cli import main\n"
        "assert main(['-q', 'run', '--system', 'DF', '--n', '96', '--k', '4', '--m', '8',"
        " '--j', '2', '--snr', '3', '--min-frames', '20', '--max-frames', '20',"
        " '--out', 'DF.csv']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']))")
    out = _run_python(code, tmp_path)
    if out == "loaded with numpy":
        pytest.skip("this numpy imports numpy.ma with numpy itself")
    assert out == "[]"


def test_cli_runs_every_system_without_scipy(tmp_path):
    code = (
        "import sys\nsys.modules['scipy'] = None\nfrom ffma.cli import main\n"
        "for system in ('SF', 'DF', 'PA', 'ALOHA'):\n"
        "    assert main(['-q', 'run', '--system', system, '--n', '96', '--k', '4',"
        " '--m', '8', '--j', '2', '--snr', '3', '--min-frames', '20',"
        " '--max-frames', '20', '--out', system + '.csv']) == 0\n"
        "print('ok')")
    assert _run_python(code, tmp_path) == "ok"
    for system in ("SF", "DF", "PA", "ALOHA"):
        assert len((tmp_path / f"{system}.csv").read_text().splitlines()) == 2
