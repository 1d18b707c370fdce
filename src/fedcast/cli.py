"""Command-line front end: prepare data, synthesize households, run, report.

Commands:
    fedcast prepare    clean meter/weather CSVs into a dataset cache
    fedcast synthesize generate a synthetic population in the CSV format
    fedcast run        execute a scenario sweep from a JSON config
    fedcast report     aggregate one or more run directories into tables

Every command is deterministic given its inputs and seed.  Run output lands
in out/<run-id>/ where run-id is a digest of the resolved config and the
dataset identity, so reruns of the same config land in the same directory
and reproduce results.json byte for byte.

Exit codes: 0 success, 2 usage or input error, 3 numerical failure while
training, 4 a worker process of `run --jobs N` died.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads: keeps reductions bitwise
# reproducible regardless of host core count and avoids oversubscription
# when --jobs forks worker processes.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import sys
from datetime import datetime
from pathlib import Path

from . import __version__
from .atomic import read_json, write_json
from .errors import DataError, NumericalError, ValidationError

# Each command imports the layers it runs when it runs: `prepare` and
# `synthesize` load only the data pipeline, `run` and `report` go through
# `fedcast.sweep`, and only `run --jobs N` with N > 1 loads the process pool.

def cmd_prepare(args) -> int:
    from .data import (dataset_digest, ingest_meter_csv, ingest_weather_csv,
                       prepare_datasets, write_cache)

    try:
        ks = [int(part) for part in args.k.split(",") if part]
    except ValueError:
        raise ValidationError(f"bad --k value: {args.k!r}")
    with_weather = args.weather_variant != "without"
    if with_weather and not args.weather:
        raise DataError("--weather-variant %s needs --weather" % args.weather_variant)
    readings, skipped_m = ingest_meter_csv(args.meters)
    weather = None
    if with_weather:
        weather, skipped_w = ingest_weather_csv(args.weather)
        if skipped_w:
            print(f"note: skipped {skipped_w} malformed weather rows",
                  file=sys.stderr)
    if skipped_m:
        print(f"note: skipped {skipped_m} malformed meter rows", file=sys.stderr)
    prep = prepare_datasets(readings, weather, ks, with_weather)
    manifest = write_cache(prep, args.out)
    print(f"prepared {len(prep.households)} households "
          f"({len(manifest['datasets'])} datasets) -> {args.out}")
    print(f"dataset digest {dataset_digest(manifest)}")
    return 0


def cmd_synthesize(args) -> int:
    from .data import write_meter_csv, write_weather_csv
    from .data.synthetic import generate_synthetic_households

    start = None
    if args.start:
        try:
            start = datetime.fromisoformat(args.start)
        except ValueError:
            raise ValidationError(f"bad --start date: {args.start!r}")
    pop = generate_synthetic_households(
        args.n, archetypes=args.archetypes, noise=args.noise,
        seed=args.seed, days=args.days, start=start)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_meter_csv(out / "meters.csv", pop.households)
    write_weather_csv(out / "weather.csv", pop.weather)
    write_json(out / "archetypes.json", {"names": list(pop.archetype_names),
                                         "assignment": pop.archetype_of})
    print(f"wrote {len(pop.households)} households to {out}")
    return 0


def cmd_run(args) -> int:
    from .federation.config import resolve_config
    from .sweep import run_sweep

    if args.jobs < 1:
        raise ValidationError(f"--jobs must be >= 1, got {args.jobs}")
    raw = read_json(args.config)
    seed, entries = resolve_config(raw)

    data_dir = Path(raw["data"])
    if not data_dir.is_absolute():
        data_dir = (Path(args.config).parent / data_dir).resolve()
    run_dir = run_sweep(seed, entries, data_dir, args.out, args.jobs)
    print(f"run {run_dir.name}: {len(entries)} entries -> {run_dir}")
    print((run_dir / "tables.txt").read_text(encoding="utf-8"), end="")
    return 0


def cmd_report(args) -> int:
    from .reporting import build_comparison, render_tables
    from .sweep import aggregate_runs

    reports = aggregate_runs(args.dirs, args.out)
    if args.out:
        print(f"aggregated {len(reports)} entries -> {args.out}")
    print(render_tables(build_comparison(reports)), end="")
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedcast",
        description="Energy-demand forecasting under six training regimes.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="clean CSVs into a dataset cache")
    p.add_argument("--meters", required=True, help="meter readings CSV")
    p.add_argument("--weather", help="weather CSV (hourly)")
    p.add_argument("--out", required=True, help="cache directory to write")
    p.add_argument("--k", default="6,12,24",
                   help="comma-separated window lengths (default 6,12,24)")
    p.add_argument("--weather-variant", choices=("both", "without"),
                   default="both", help="which feature variants to prepare")
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("synthesize", help="generate a synthetic population")
    p.add_argument("--n", type=int, required=True, help="number of households")
    p.add_argument("--archetypes", type=int, default=3)
    p.add_argument("--noise", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--days", type=int, default=90)
    p.add_argument("--start", help="first day, ISO date (default 2013-01-01)")
    p.add_argument("--out", required=True, help="directory for the CSVs")
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("run", help="execute a scenario sweep")
    p.add_argument("--config", required=True, help="JSON run config")
    p.add_argument("--out", required=True, help="parent directory for runs")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="worker processes, one per group of entries at "
                        "most; 1 (the default) runs in this process")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("report", help="aggregate run directories")
    p.add_argument("dirs", nargs="+", help="run directories to aggregate")
    p.add_argument("--out", help="directory for the combined report")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, DataError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except NumericalError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3
    except RuntimeError as err:
        # BrokenProcessPool is a RuntimeError.  Only `run --jobs N` loads the
        # pool, so without it loaded no error can be a dead worker's.
        pool = sys.modules.get("concurrent.futures.process")
        if pool is None or not isinstance(err, pool.BrokenProcessPool):
            raise
        print(f"error: a worker process died: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
