import dataclasses
import math
import typing
import warnings

import numpy as np
import pytest

from ffma.cli import build_spec, main, parse_config_file
from ffma.experiment import (
    CSV_HEADER,
    BerPoint,
    ExperimentSpec,
    emit_plot_data,
    per_user_frame_energy,
    read_csv,
    run_experiment,
    write_csv,
)
from ffma.ffma_system import SystemConfig
from ffma.linear_code import LinearCode


def tiny_spec(**kw):
    base = dict(
        system="SF", n=96, k=4, m=8, j_list=(2,), snr_grid=(6.0,),
        snr_ref="esn0", seed=3, min_frames=10, max_frames=60,
        min_bit_errors=5, batch_frames=20, output="out.csv",
    )
    base.update(kw)
    return ExperimentSpec(**base)


def test_spec_validation():
    with pytest.raises(ValueError):
        tiny_spec(system="QAM")
    with pytest.raises(ValueError):
        tiny_spec(snr_grid=())
    with pytest.raises(ValueError):
        tiny_spec(j_list=(9,))  # exceeds m
    with pytest.raises(ValueError):
        tiny_spec(m=0)
    with pytest.raises(ValueError):
        tiny_spec(max_frames=5)
    with pytest.raises(ValueError):
        tiny_spec(snr_ref="snr")
    for mu_pas in (9.0, 0.5):  # PA needs 1 <= mu_pas <= m = 8
        with pytest.raises(ValueError):
            tiny_spec(system="PA", mu_pas=mu_pas)
    for system in ("SF", "ALOHA"):
        for bad in ({"n": 0}, {"n": -96}, {"k": 0}, {"k": -4}, {"n": "0"}, {"k": " -4 "}):
            with pytest.raises(ValueError, match="must be >= 1"):
                tiny_spec(system=system, **bad)
    with pytest.raises(ValueError, match="m\\*k < n"):
        tiny_spec(n=32)  # m*k = 32 leaves the code no parity
    aloha = tiny_spec(system="ALOHA", m=0, j_list=(2,))
    assert aloha.m == 0  # m unused for the baseline
    # ALOHA's slots need J | n (7 does not divide 96) and its repetition
    # J*k | n (J=16: 16*4 = 64 does not divide 96), for every J.
    for j_list in ((7,), (2, 16)):
        with pytest.raises(ValueError, match="does not divide|cannot carry"):
            tiny_spec(system="ALOHA", j_list=j_list)
    with pytest.raises(ValueError, match="cannot carry 7 equally repeated bits"):
        build_spec({}, {"system": "ALOHA", "n": 600, "k": 7, "j_list": "30", "snr_grid": "2"})
    # Every J's n0 must be finite: at -3073 dB Eb/N0, ALOHA's n0 is
    # 6e307 for J=8 but overflows for J=1, whose Eb is 8 times larger.
    with pytest.raises(ValueError, match="snr=-3073 dB"):
        tiny_spec(system="ALOHA", snr_ref="ebn0", j_list=(8, 1), snr_grid=(-3073.0,))


def test_energy_accounting():
    spec = tiny_spec()
    assert per_user_frame_energy(spec, 2) == 96
    assert per_user_frame_energy(tiny_spec(system="DF"), 2) == 96 - 7 * 4
    assert per_user_frame_energy(tiny_spec(system="PA", mu_pas=4.0), 2) == 96
    assert per_user_frame_energy(tiny_spec(system="ALOHA"), 2) == 48


def test_run_experiment_writes_csv(tmp_path):
    out = tmp_path / "r.csv"
    points = run_experiment(tiny_spec(output=str(out)))
    assert out.exists()
    rows = read_csv(out)
    assert len(rows) == len(points) == 1
    assert rows[0].system == "SF" and rows[0].j_users == 2
    header = out.read_text().splitlines()[0]
    assert header.split(",")[: len(CSV_HEADER)] == CSV_HEADER


@pytest.mark.parametrize("record_timing", [False, True])
def test_csv_round_trip(record_timing, tmp_path):
    # read_csv gives back the points run_experiment wrote, and writing them
    # again reproduces the file byte for byte.
    out = tmp_path / "r.csv"
    points = run_experiment(tiny_spec(output=str(out), snr_grid=(0.0, 4.0), j_list=(1, 8),
                                      record_timing=record_timing))
    rows = read_csv(out)
    assert all(type(row) is BerPoint for row in rows)
    exact = ("system", "j_users", "frames", "bit_errors", "frame_errors")
    assert ([[getattr(row, name) for name in exact] for row in rows]
            == [[getattr(p, name) for name in exact] for p in points])
    write_csv(rows, tmp_path / "again.csv", record_timing=record_timing)
    assert (tmp_path / "again.csv").read_bytes() == out.read_bytes()


def test_high_snr_gives_zero_ber(tmp_path):
    out = tmp_path / "clean.csv"
    points = run_experiment(tiny_spec(output=str(out), snr_grid=(30.0,), max_frames=20))
    assert all(p.ber == 0.0 for p in points)


def test_rerun_is_byte_identical(tmp_path):
    spec = tiny_spec(output=str(tmp_path / "a.csv"), snr_grid=(4.0, 8.0), j_list=(1, 8))
    run_experiment(spec)
    run_experiment(dataclasses.replace(spec, output=str(tmp_path / "b.csv")))
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_worker_count_does_not_change_results(tmp_path):
    spec = tiny_spec(output=str(tmp_path / "s.csv"), snr_grid=(4.0,), j_list=(8,))
    run_experiment(spec)
    run_experiment(dataclasses.replace(spec, output=str(tmp_path / "p.csv"), workers=2))
    assert (tmp_path / "s.csv").read_bytes() == (tmp_path / "p.csv").read_bytes()


def test_stopping_rule_reaches_error_budget(tmp_path):
    spec = tiny_spec(
        output=str(tmp_path / "stop.csv"), snr_grid=(-4.0,),
        min_frames=20, max_frames=1000, min_bit_errors=40, batch_frames=20,
    )
    (point,) = run_experiment(spec)
    assert point.bit_errors >= 40
    assert point.frames < 1000  # stopped early at this noisy point


def test_stopping_rule_bounds_confidence_width(tmp_path):
    # with >= 100 errors the binomial 95% half-width is <= 20% of the BER
    spec = tiny_spec(
        output=str(tmp_path / "ci.csv"), snr_grid=(-2.0,),
        min_frames=20, max_frames=4000, min_bit_errors=100, batch_frames=50,
    )
    (point,) = run_experiment(spec)
    assert point.bit_errors >= 100
    half_width = 1.96 / np.sqrt(point.bit_errors)
    assert half_width <= 0.20


def test_code_source_from_alist(tmp_path):
    from pcm_oracle import write_alist

    path = tmp_path / "code.alist"
    write_alist(LinearCode.generate(96, 32, col_weight=3, seed=3).pcm, path)
    spec = tiny_spec(output=str(tmp_path / "r.csv"), code_source=str(path))
    points = run_experiment(spec)
    assert points and points[0].frames > 0
    wrong = tiny_spec(output=str(tmp_path / "w.csv"), code_source=str(path), n=96, k=4, m=6)
    with pytest.raises(ValueError):
        run_experiment(wrong)


def test_aloha_experiment_runs(tmp_path):
    spec = ExperimentSpec(
        system="ALOHA", n=96, k=4, j_list=(2, 8), snr_grid=(4.0,),
        snr_ref="esn0", seed=1, min_frames=10, max_frames=40,
        min_bit_errors=10, batch_frames=20, output=str(tmp_path / "al.csv"),
    )
    points = run_experiment(spec)
    assert len(points) == 2
    with pytest.raises(ValueError):
        run_experiment(dataclasses.replace(spec, j_list=(7,)))  # 7 does not divide 96


def test_pa_experiment_runs_when_jk_does_not_divide_n(tmp_path):
    # J*k = 28 does not divide n = 96; only ALOHA's repetition needs that.
    spec = tiny_spec(
        system="PA", j_list=(7,), mu_pas=2.0, snr_grid=(8.0,),
        output=str(tmp_path / "pa.csv"),
    )
    (point,) = run_experiment(spec)
    assert point.j_users == 7 and point.frames >= spec.min_frames


def test_emit_plot_data(tmp_path):
    out = tmp_path / "r.csv"
    spec = tiny_spec(output=str(out), snr_grid=(2.0, 4.0, 6.0), j_list=(2,))
    run_experiment(spec)
    dat, gp = emit_plot_data(out)
    dat_text = (tmp_path / "r.dat").read_text()
    assert dat_text.count("# system=") == 1
    assert len([l for l in dat_text.splitlines() if l and not l.startswith("#")]) == 3
    assert "logscale y" in (tmp_path / "r.gp").read_text()


def test_emit_plot_data_quotes_names_for_gnuplot(tmp_path):
    # gnuplot reads '' as one quote inside single quotes; a lone quote in
    # the file name or a title used to end the string early.
    out = tmp_path / "it's.csv"
    run_experiment(tiny_spec(output=str(out), snr_grid=(4.0,), j_list=(2,)))
    header, row = out.read_text().splitlines()
    out.write_text(f"{header}\nS'F{row[2:]}\n")
    _, gp = emit_plot_data(out)
    assert gp == str(tmp_path / "it's.gp")
    plot = (tmp_path / "it's.gp").read_text().splitlines()[5]
    assert plot == "plot 'it''s.dat' index 0 using 1:2 with linespoints title 'S''F J=2'"


def test_emit_plot_data_multi_j_blocks(tmp_path):
    out = tmp_path / "r.csv"
    spec = tiny_spec(output=str(out), snr_grid=(4.0, 6.0), j_list=(1, 2, 8))
    run_experiment(spec)
    dat, _ = emit_plot_data(out, out_prefix=str(tmp_path / "plots"))
    assert (tmp_path / "plots.dat").read_text().count("# system=") == 3


def test_emit_plot_data_empty_csv(tmp_path):
    bad = tmp_path / "empty.csv"
    bad.write_text(",".join(CSV_HEADER) + "\n")
    with pytest.raises(ValueError):
        emit_plot_data(bad)
    malformed = tmp_path / "m.csv"
    malformed.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError):
        emit_plot_data(malformed)


def test_config_file_parse_and_overrides(tmp_path):
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text(
        "# desk-scale sweep\n"
        "system = SF\n"
        "n = 96\nk = 4\nm = 8\n"
        "j_list = 2,8\n"
        "snr_grid = 2,4\n"
        "snr_ref = esn0\n"
        "min_frames = 10\nmax_frames = 40\nmin_bit_errors = 5\n"
        "batch_frames = 20\n"
    )
    values = parse_config_file(cfgfile)
    assert values["system"] == "SF" and values["j_list"] == "2,8"
    spec = build_spec(values, {"seed": 9, "output": "x.csv"})
    assert spec.j_list == (2, 8) and spec.snr_grid == (2.0, 4.0) and spec.seed == 9
    spec2 = build_spec(values, {"j_list": "8", "output": "x.csv"})
    assert spec2.j_list == (8,)
    with pytest.raises(ValueError):
        build_spec({}, {})  # required parameters missing
    with pytest.raises(ValueError):
        parse_config_file(_write(tmp_path / "bad.cfg", "system SF\n"))


def test_config_file_sets_every_field_type(tmp_path):
    # Each value is converted by its ExperimentSpec field type, so a field
    # the file sets never reaches the spec as a raw string.
    values = parse_config_file(_write(tmp_path / "all.cfg", (
        "system = PA\nn = 96\nk = 4\nm = 8\nj_list = 2, 4\nsnr_grid = -1,0.5\n"
        "mu_pas = 2.5\nmin_frames = 10\nmax_frames = 40\nmin_bit_errors = 5\n"
        "max_iter = 7\nseed = 9\ncol_weight = 4\nworkers = 2\nbatch_frames = 20\n"
        "record_timing = yes\n"
    )))
    spec = build_spec(values, {})
    hints = typing.get_type_hints(ExperimentSpec)
    set_fields = [f.name for f in dataclasses.fields(ExperimentSpec) if hints[f.name] is not str]
    assert sorted(values) == sorted(set_fields + ["system"])
    for name in set_fields:
        assert type(getattr(spec, name)) is hints[name], name
    assert spec.j_list == (2, 4) and spec.snr_grid == (-1.0, 0.5)
    assert spec.mu_pas == 2.5 and spec.col_weight == 4 and spec.record_timing is True
    assert build_spec(dict(values, record_timing="off"), {}).record_timing is False


def test_config_file_rejects_a_key_set_twice(tmp_path, capsys):
    # The second value would silently win: exit 2 naming both lines.
    path = _write(tmp_path / "twice.cfg", "record_timing = yes\n# timings off\nrecord_timing = no\n")
    with pytest.raises(ValueError) as info:
        parse_config_file(path)
    assert str(info.value) == f"{path}:3: record_timing already set on line 1"
    out = tmp_path / "twice.csv"
    rc = main(["-q", "run", "--system", "SF", "--n", "96", "--k", "4", "--m", "8", "--j", "2",
               "--snr", "6", "--config", str(path), "--out", str(out)])
    assert rc == 2 and not out.exists()
    assert capsys.readouterr().err == f"error: {info.value}\n"


def test_config_file_names_an_unknown_key(tmp_path, capsys):
    # "j" is the CLI flag; the config key is j_list.  The spec's constructor
    # used to reject it without naming the file or the line.
    path = _write(tmp_path / "unknown.cfg", "system = SF\n\nj = 2\n")
    keys = ", ".join(f.name for f in dataclasses.fields(ExperimentSpec))
    with pytest.raises(ValueError) as info:
        parse_config_file(path)
    assert str(info.value) == f"{path}:3: unknown key 'j'; valid keys: {keys}"
    assert "j_list, snr_grid" in keys
    out = tmp_path / "unknown.csv"
    rc = main(["-q", "run", "--n", "96", "--k", "4", "--m", "8", "--snr", "6",
               "--config", str(path), "--out", str(out)])
    assert rc == 2 and not out.exists()
    assert capsys.readouterr().err == f"error: {info.value}\n"


def _write(path, text):
    path.write_text(text)
    return path


def test_cli_run_and_plot(tmp_path, capsys):
    out = tmp_path / "cli.csv"
    rc = main([
        "-q", "run", "--system", "SF", "--n", "96", "--k", "4", "--m", "8",
        "--j", "2", "--snr", "6", "--snr-ref", "esn0", "--seed", "3",
        "--min-frames", "10", "--max-frames", "40", "--min-errors", "5",
        "--batch-frames", "20", "--out", str(out),
    ])
    assert rc == 0 and out.exists()
    rc = main(["-q", "plot", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[0].endswith(".dat") and printed[1].endswith(".gp")


def test_cli_gains(capsys):
    rc = main(["-q", "gains", "--n", "6000", "--k", "10", "--j", "1", "--mu-pas", "300"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "polarization_gain_db=24.77" in out
    assert "repetition_gain_db=27.78" in out


@pytest.mark.parametrize("n, k, j", [(96, 4, 0), (96, 0, 2), (0, 4, 2), (-96, 4, 2)])
def test_cli_gains_rejects_nonpositive_layouts(n, k, j, capsys):
    # ALOHA's slot rule, positivity included, lives in AlohaConfig alone.
    rc = main(["-q", "gains", "--n", str(n), "--k", str(k), "--j", str(j)])
    captured = capsys.readouterr()
    assert rc == 2 and not captured.out
    assert captured.err == "error: n, k and j_users must be positive\n"


def test_cli_error_exit_codes(tmp_path, capsys):
    assert main(["-q", "run", "--system", "SF", "--n", "96"]) == 2  # missing k
    assert main(["-q", "plot", str(tmp_path / "nope.csv")]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


@pytest.mark.parametrize("argv, named", [
    (["run", "--system", "SF", "--snr=-inf"], "snr=-inf"),
    (["run", "--system", "SF", "--snr=-4000"], "snr=-4000"),
    (["run", "--system", "DF", "--snr=4000"], "snr=4000"),
    (["run", "--system", "ALOHA", "--snr", "nan"], "snr=nan"),
    (["run", "--system", "DF", "--snr", "nan"], "snr=nan"),
    (["gains", "--n", "96", "--k", "4", "--j", "2", "--mu-pas", "nan"], "mu_pas=nan"),
    # n0 = 1e-307: Eb/N0 and the detector's 8 a^2 (J+1)^2 / n0 overflow.
    (["run", "--system", "PA", "--snr", "3070", "--snr-ref", "esn0"], "snr=3070"),
])
def test_cli_rejects_non_finite_and_extreme_numbers(argv, named, tmp_path, capsys):
    # 10 ** (snr / 10) overflows, underflows to 0 or is nan, so no positive
    # finite n0 exists; log10 of a nan mu_pas is no gain.  Exit 2 naming
    # the value, before anything is written.
    out = tmp_path / "x.csv"
    if argv[0] == "run":
        argv = argv + ["--n", "96", "--k", "4", "--m", "8", "--j", "2", "--out", str(out)]
    rc = main(["-q", *argv])
    captured = capsys.readouterr()
    assert rc == 2 and not out.exists() and not captured.out
    assert captured.err.startswith("error:") and named in captured.err


@pytest.mark.parametrize("system", ["SF", "DF", "PA"])
def test_noiseless_extreme_snr_decodes_every_bit(system, tmp_path):
    # n0 = 1e-300, the most the spec lets through is a few dB further: every
    # CSV column is finite and the detector raises no RuntimeWarning.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        (point,) = run_experiment(tiny_spec(system=system, snr_grid=(3000.0,),
                                            output=str(tmp_path / "x.csv")))
    assert point.ber == 0.0 and point.frames == 60
    assert math.isfinite(point.ebn0_db) and point.esn0_db == 3000.0


def test_cli_rejects_nonpositive_n_and_k(tmp_path, capsys):
    # Rejected by the spec, before the ALOHA gain log divides by k or the
    # code is built: exit 2 with the offending field named.
    ffma = ["--m", "8", "--j", "2"]
    for system, extra in (("ALOHA", []), ("SF", ffma), ("PA", ffma + ["--mu-pas", "2"])):
        for field, value in (("n", "0"), ("k", "0"), ("n", "-96"), ("k", "-4")):
            args = {"n": "96", "k": "4", field: value}
            rc = main(["-q", "run", "--system", system, "--n", args["n"], "--k", args["k"],
                       "--snr", "2", *extra, "--out", str(tmp_path / "x.csv")])
            err = capsys.readouterr().err
            assert rc == 2 and f"{field}={value}" in err, (system, field, err)
    assert not (tmp_path / "x.csv").exists()


def test_negative_max_iter_rejected(tmp_path, capsys):
    # A negative iteration budget is an error, not a silent max_iter=0.
    out = tmp_path / "neg.csv"
    rc = main([
        "-q", "run", "--system", "DF", "--n", "96", "--k", "4", "--m", "8",
        "--j", "2", "--snr", "2", "--max-iter", "-3", "--min-frames", "50",
        "--max-frames", "50", "--out", str(out),
    ])
    assert rc == 2 and not out.exists()
    assert "max_iter" in capsys.readouterr().err
    for max_iter in (-1, "-1"):
        with pytest.raises(ValueError, match="max_iter must be >= 0"):
            tiny_spec(max_iter=max_iter)
    code = LinearCode.generate(96, 32, col_weight=3, seed=3)
    with pytest.raises(ValueError):
        SystemConfig(code, k=4, j_users=2, mode="DF", max_iter=-1)


@pytest.mark.parametrize("system", ["DF", "ALOHA"])
def test_cli_rejects_a_negative_seed(system, tmp_path, capsys):
    # Rejected by the spec, naming the key and the value, not by the first
    # random generator built from it (the code's, or a batch's in a worker).
    out = tmp_path / "neg.csv"
    rc = main(["-q", "run", "--system", system, "--n", "96", "--k", "4", "--m", "8",
               "--j", "2", "--snr", "3", "--seed", "-1", "--out", str(out)])
    assert rc == 2 and not out.exists()
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"


def test_cli_rejects_an_unusable_out_before_building_code(tmp_path, monkeypatch, capsys):
    # A missing directory or a directory itself: exit 2 naming the path,
    # before the code is built or a frame is simulated.
    def no_code(*args, **kwargs):
        raise AssertionError("the code was built before the output path was checked")

    monkeypatch.setattr(LinearCode, "generate", no_code)
    for out in (tmp_path / "missing" / "sf.csv", tmp_path):
        rc = main([
            "-q", "run", "--system", "SF", "--n", "96", "--k", "4", "--m", "8",
            "--j", "2", "--snr", "0", "--out", str(out),
        ])
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith("error:") and str(out) in err
    assert list(tmp_path.iterdir()) == []  # no file, no directory


def test_cli_rejects_bad_mu_pas_before_building_code(tmp_path, monkeypatch, capsys):
    def no_code(*args, **kwargs):
        raise AssertionError("the code was built before mu_pas was checked")

    monkeypatch.setattr(LinearCode, "generate", no_code)
    out = tmp_path / "pa.csv"
    for mu_pas in ("9", "0"):  # outside 1 <= mu_pas <= m = 8
        rc = main([
            "-q", "run", "--system", "PA", "--n", "96", "--k", "4", "--m", "8",
            "--j", "2", "--snr", "0", "--mu-pas", mu_pas, "--out", str(out),
        ])
        assert rc == 2 and not out.exists()
    assert "mu_pas" in capsys.readouterr().err


def test_cli_timing(tmp_path):
    argv = [
        "-q", "run", "--system", "SF", "--n", "96", "--k", "4", "--m", "8",
        "--j", "2", "--snr", "0,6", "--snr-ref", "esn0", "--seed", "3",
        "--min-frames", "40", "--max-frames", "40",
    ]
    cfgfile = _write(tmp_path / "timing.cfg", "record_timing = yes\n")
    runs = {
        "flag": argv + ["--timing"],
        "config": argv + ["--config", str(cfgfile)],
        "default": argv,
    }
    wall = {}
    for name, args in runs.items():
        out = tmp_path / f"{name}.csv"
        assert main(args + ["--out", str(out)]) == 0
        wall[name] = [row.wall_s for row in read_csv(out)]
    assert any(w > 0 for w in wall["flag"])
    assert any(w > 0 for w in wall["config"])
    assert wall["default"] == [0.0, 0.0]


def test_cli_rejects_a_boolean_typo(tmp_path, capsys):
    # `ture` is neither true nor false: exit 2 naming the key, not a
    # silent record_timing=False.
    cfgfile = _write(tmp_path / "typo.cfg", "record_timing = ture\n")
    out = tmp_path / "typo.csv"
    rc = main(["-q", "run", "--system", "SF", "--n", "96", "--k", "4", "--m", "8",
               "--j", "2", "--snr", "6", "--config", str(cfgfile), "--out", str(out)])
    assert rc == 2 and not out.exists()
    assert "record_timing" in capsys.readouterr().err
    base = {"system": "SF", "n": "96", "k": "4", "m": "8"}
    for word in ("1", "TRUE", " yes ", "on"):
        assert build_spec(dict(base, record_timing=word), {}).record_timing is True
        assert tiny_spec(record_timing=word).record_timing is True
    for word in ("0", "false", "No", "off"):
        assert build_spec(dict(base, record_timing=word), {}).record_timing is False
        assert tiny_spec(record_timing=word).record_timing is False
    with pytest.raises(ValueError, match="^record_timing: 'ture' is not bool$"):
        tiny_spec(record_timing="ture")


@pytest.mark.parametrize("source", ["flag", "config"])
def test_cli_bad_number_names_its_key(source, tmp_path, capsys):
    # A flag and a config value go through the same conversion, so both
    # name the key they set.
    argv = ["-q", "run", "--system", "SF", "--k", "4", "--m", "8", "--j", "2", "--snr", "6"]
    if source == "flag":
        argv += ["--n", "x"]
    else:
        argv += ["--config", str(_write(tmp_path / "bad.cfg", "n = x\n"))]
    out = tmp_path / "bad.csv"
    rc = main(argv + ["--out", str(out)])
    assert rc == 2 and not out.exists()
    assert capsys.readouterr().err == "error: n: 'x' is not int\n"


@pytest.mark.parametrize("flag, value, message", [
    ("--j", "a", "error: j_list item: 'a' is not int\n"),
    ("--snr", "3,abc", "error: snr_grid item: 'abc' is not float\n"),
], ids=["j_list", "snr_grid"])
def test_cli_bad_list_item_names_its_key(flag, value, message, tmp_path, capsys):
    argv = {"--j": "2", "--snr": "6", flag: value}
    out = tmp_path / "bad.csv"
    rc = main(["-q", "run", "--system", "SF", "--n", "96", "--k", "4", "--m", "8",
               "--j", argv["--j"], "--snr", argv["--snr"], "--out", str(out)])
    assert rc == 2 and not out.exists()
    assert capsys.readouterr().err == message


@pytest.mark.parametrize("system", ["SF", "DF", "PA"])
def test_cli_names_a_missing_m(system, tmp_path, capsys):
    # Without --m the FFMA layout names m, not a J range [1, m=0].
    out = tmp_path / "x.csv"
    rc = main(["-q", "run", "--system", system, "--n", "600", "--k", "5", "--j", "1",
               "--out", str(out)])
    assert rc == 2 and not out.exists()
    assert capsys.readouterr().err == f"error: {system} needs an extension degree m >= 1, got m=0\n"


def test_spec_reads_every_field_from_its_string():
    # The spec reads its own inputs: each field's value as text, as a config
    # file or a flag gives it, builds the typed spec.
    typed = tiny_spec(system="PA", j_list=(2, 4), snr_grid=(-1.0, 0.5), mu_pas=2.5,
                      max_iter=7, col_weight=4, workers=2, record_timing=True)
    text = {f.name: ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
            for f in dataclasses.fields(ExperimentSpec) for value in [getattr(typed, f.name)]}
    spec = ExperimentSpec(**text)
    assert spec == typed and spec.grid == typed.grid
    assert tiny_spec(record_timing="off").record_timing is False


@pytest.mark.parametrize("field, value", [
    ("seed", 1.5), ("batch_frames", 2.5), ("max_frames", 25.0), ("j_list", (2.5,)), ("j_list", 5),
], ids=["seed", "batch_frames", "max_frames", "j_list_item", "j_list_scalar"])
def test_spec_rejects_a_value_its_field_cannot_hold(field, value):
    # A non-integer int, a non-integer list item or a list that is no list:
    # a ValueError naming the field, not a truncated J or a later TypeError.
    with pytest.raises(ValueError, match=f"^{field}"):
        tiny_spec(**{field: value})


def test_spec_takes_numpy_integers():
    # The integer check is not a type check: numpy integers are integers.
    spec = tiny_spec(n=np.int64(600), j_list=np.array([2, 3]))
    assert spec.n == 600 and spec.j_list == (2, 3)


def test_spec_splits_a_list_string_as_the_cli_does():
    # A string is one list, split at commas or spaces, not its characters.
    spec = tiny_spec(system="DF", m=16, j_list="12", snr_grid="2.5")
    assert spec.j_list == (12,) and spec.snr_grid == (2.5,)
    spec = tiny_spec(system="DF", m=16, j_list="2, 12", snr_grid="-1 2.5,3")
    assert spec.j_list == (2, 12) and spec.snr_grid == (-1.0, 2.5, 3.0)
    # A config file's or a flag's list string reaches the spec unsplit.
    spec = build_spec({"j_list": "2 12"}, {"system": "DF", "n": "96", "k": "4", "m": "16",
                                           "snr_grid": "2.5,3"})
    assert spec.j_list == (2, 12) and spec.snr_grid == (2.5, 3.0)


def test_read_csv_names_the_cell_it_cannot_convert(tmp_path, capsys):
    out = tmp_path / "r.csv"
    run_experiment(tiny_spec(output=str(out), j_list=(1, 8)))
    header, first, second = out.read_text().splitlines()
    cells = second.split(",")
    cells[CSV_HEADER.index("j")] = "x"
    out.write_text("\n".join([header, first, ",".join(cells)]) + "\n")
    message = f"{out} data row 2, column j: 'x' is not int"
    with pytest.raises(ValueError) as info:
        read_csv(out)
    assert str(info.value) == message
    assert main(["-q", "plot", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_cli_config_file(tmp_path):
    cfgfile = tmp_path / "exp.cfg"
    out = tmp_path / "from_cfg.csv"
    cfgfile.write_text(
        "system = ALOHA\nn = 96\nk = 4\nj_list = 2\nsnr_grid = 8\n"
        "snr_ref = esn0\nmin_frames = 10\nmax_frames = 40\n"
        "min_bit_errors = 5\nbatch_frames = 20\n"
        f"output = {out}\n"
    )
    assert main(["-q", "run", "--config", str(cfgfile)]) == 0
    assert out.exists()
