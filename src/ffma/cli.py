"""Command-line front end: BER sweeps, plot-data emission, gain figures.

Run parameters come from a flat ``key=value`` config file, command-line
flags, or both (flags win).  Example:

    ffma run --system SF --n 600 --k 5 --m 60 --j 1,30,60 \\
             --snr 0,1,2,3 --snr-ref esn0 --out sf.csv
    ffma plot sf.csv
    ffma gains --n 6000 --k 10 --j 1 --mu-pas 300
"""

from __future__ import annotations

import argparse
import logging
import sys
import typing

from .analysis import gain_figures
from .experiment import ExperimentSpec, emit_plot_data, run_experiment

log = logging.getLogger(__name__)

# Each spec field's type, resolved from its annotation (a string under
# postponed evaluation); the spec itself converts a tuple's items.
_FIELD_TYPES = typing.get_type_hints(ExperimentSpec)


def parse_config_file(path) -> dict:
    """Parse a flat key=value file ('#' starts a comment)."""
    values: dict = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            values[key] = value
    return values


def _coerce(key: str, value):
    if not isinstance(value, str):
        return value
    kind = _FIELD_TYPES.get(key, str)
    if kind is tuple:
        return tuple(value.replace(",", " ").split())
    if kind is bool:
        word = value.strip().lower()
        if word not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
            raise ValueError(f"{key}={value!r} is not a boolean (1/true/yes/on or 0/false/no/off)")
        return word in ("1", "true", "yes", "on")
    return kind(value)


def build_spec(config: dict, overrides: dict) -> ExperimentSpec:
    merged = dict(config)
    merged.update({k: v for k, v in overrides.items() if v is not None})
    kwargs = {key: _coerce(key, value) for key, value in merged.items()}
    missing = [key for key in ("system", "n", "k") if key not in kwargs]
    if missing:
        raise ValueError(f"missing required parameters: {', '.join(missing)}")
    return ExperimentSpec(**kwargs)


def _add_run_parser(sub) -> None:
    p = sub.add_parser("run", help="run a Monte-Carlo BER sweep")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--system", choices=("SF", "DF", "PA", "ALOHA"))
    p.add_argument("--n", type=int, help="blocklength / degrees of freedom")
    p.add_argument("--k", type=int, help="bits per user")
    p.add_argument("--m", type=int, help="extension degree (FFMA systems)")
    p.add_argument("--j", dest="j_list", help="comma-separated user counts")
    p.add_argument("--snr", dest="snr_grid", help="comma-separated SNR grid in dB")
    p.add_argument("--snr-ref", dest="snr_ref", choices=("ebn0", "esn0"),
                   help="interpret the grid as per-user Eb/N0 or per-symbol Es/N0")
    p.add_argument("--mu-pas", dest="mu_pas", type=float, help="PA power scaling factor")
    p.add_argument("--min-frames", dest="min_frames", type=int)
    p.add_argument("--max-frames", dest="max_frames", type=int)
    p.add_argument("--min-errors", dest="min_bit_errors", type=int)
    p.add_argument("--max-iter", dest="max_iter", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--col-weight", dest="col_weight", type=int)
    p.add_argument("--code", dest="code_source",
                   help="'generated' or path to an alist parity-check file")
    p.add_argument("--out", dest="output", help="CSV output path")
    p.add_argument("--workers", type=int)
    p.add_argument("--batch-frames", dest="batch_frames", type=int)
    p.add_argument("--timing", dest="record_timing", action="store_const", const=True,
                   help="record wall time into the CSV (breaks byte-level determinism)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="ffma")
    parser.add_argument("-q", "--quiet", action="store_true", help="suppress progress logs")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_run_parser(sub)

    p_plot = sub.add_parser("plot", help="emit gnuplot data + script from a results CSV")
    p_plot.add_argument("csv_path")
    p_plot.add_argument("--out-prefix", dest="out_prefix")

    p_gains = sub.add_parser("gains", help="closed-form gain figures in dB")
    p_gains.add_argument("--n", type=int, required=True)
    p_gains.add_argument("--k", type=int, required=True)
    p_gains.add_argument("--j", type=int, required=True)
    p_gains.add_argument("--mu-pas", dest="mu_pas", type=float, default=1.0)

    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.WARNING if args.quiet else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )

    try:
        if args.command == "run":
            config = parse_config_file(args.config) if args.config else {}
            overrides = {key: value for key, value in vars(args).items()
                         if key not in ("command", "config", "quiet")}
            spec = build_spec(config, overrides)
            points = run_experiment(spec)
            log.info("wrote %d points to %s", len(points), spec.output)
        elif args.command == "plot":
            dat, gp = emit_plot_data(args.csv_path, args.out_prefix)
            print(dat)
            print(gp)
        else:
            figures = gain_figures(args.n, args.k, args.j, args.mu_pas)
            print(f"polarization_gain_db={figures['polarization_gain_db']:.2f}")
            print(f"repetition_gain_db={figures['repetition_gain_db']:.2f}")
    except (ValueError, OSError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
