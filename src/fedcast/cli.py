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
import hashlib
import json
import shutil
import sys
import time
from datetime import datetime
from pathlib import Path

import numpy as np

from . import __version__
from .atomic import atomic_write, write_json
from .errors import DataError, FedcastError, NumericalError, ValidationError

# Each command imports the layers it runs when it runs: `prepare` and
# `synthesize` load only the data pipeline, and only `run --jobs N` with N > 1
# loads the process pool.

def run_identity(seed: int, entries, data_digest: str) -> str:
    blob = json.dumps(
        {"seed": seed, "data": data_digest,
         "entries": [cfg.to_dict() for cfg in entries]},
        sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


# (K, weather) -> the households' datasets of the run in progress.
_DATASETS: dict = {}


def _build_datasets(prep, variants) -> None:
    """Build each (K, weather) variant not yet in `_DATASETS`.  The pool runs
    it as each worker's initializer: forked workers find the table full."""
    from .data import household_datasets

    for k, weather in variants:
        if (k, weather) not in _DATASETS:
            _DATASETS[k, weather] = household_datasets(prep, k, weather)


def _run_group(group: list):
    """Run one group of related entries in order, sharing one memo.

    Returns (done, failure): (entry_id, report, models) for each entry that
    finished, and (entry_id, error) for the entry whose FedcastError ended
    the group, or None.
    """
    from .federation import run_scenario

    memo = {}
    done = []
    for cfg in group:
        try:
            report, models = run_scenario(
                _DATASETS[cfg.k, cfg.with_weather], cfg, memo)
        except FedcastError as err:
            return done, (cfg.entry_id, err)
        done.append((cfg.entry_id, report, models))
    return done, None


def _write_entry_outputs(out: Path, entry_id: str, report: dict,
                         models: dict) -> None:
    (out / "logs").mkdir(exist_ok=True)
    write_json(out / "logs" / f"{entry_id}.json", report)
    for name in sorted(models):
        path = out / "models" / entry_id / f"{name}.npy"
        path.parent.mkdir(parents=True, exist_ok=True)
        # a file handle, so np.save adds no ".npy" to the temporary name
        with atomic_write(path, "wb") as fh:
            np.save(fh, np.asarray(models[name], dtype=np.float64))


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
    if not Path(args.meters).is_file():
        raise DataError(f"meter file not found: {args.meters}")
    readings, skipped_m = ingest_meter_csv(args.meters)
    weather = None
    if with_weather:
        if not Path(args.weather).is_file():
            raise DataError(f"weather file not found: {args.weather}")
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
    from .data import dataset_digest, load_cache
    from .federation import group_entries
    from .federation.config import resolve_config
    from .reporting import emit_report

    if args.jobs < 1:
        raise ValidationError(f"--jobs must be >= 1, got {args.jobs}")
    config_path = Path(args.config)
    if not config_path.is_file():
        raise DataError(f"config file not found: {config_path}")
    try:
        raw = json.loads(config_path.read_text())
    except json.JSONDecodeError as err:
        raise ValidationError(f"{config_path}: not valid JSON ({err})")
    seed, entries = resolve_config(raw)

    data_dir = Path(raw["data"])
    if not data_dir.is_absolute():
        data_dir = (config_path.parent / data_dir).resolve()
    prep, cache_manifest = load_cache(data_dir)
    digest = dataset_digest(cache_manifest)
    # A variant the cache lacks is refused here, before anything trains.
    variants = sorted({(cfg.k, cfg.with_weather) for cfg in entries})
    _DATASETS.clear()
    _build_datasets(prep, variants)
    # An --out that cannot hold run directories is refused before training.
    Path(args.out).mkdir(parents=True, exist_ok=True)

    run_id = run_identity(seed, entries, digest)
    started = time.time()

    # Entries that share a base or a warm-up run as one group in one worker,
    # and no more workers start than there are groups.
    groups = group_entries(entries)
    jobs = min(args.jobs, len(groups))
    outcomes = []
    if jobs > 1:
        from concurrent.futures.process import (BrokenProcessPool,
                                                ProcessPoolExecutor)

        with ProcessPoolExecutor(max_workers=jobs, initializer=_build_datasets,
                                 initargs=(prep, variants)) as pool:
            submitted = [(group, pool.submit(_run_group, group))
                         for group in sorted(groups, key=len, reverse=True)]
            for group, future in submitted:
                try:
                    outcomes.append(future.result())
                except BrokenProcessPool as err:
                    # A worker died: no entry of an unfinished group counts
                    # as done, so the failure is the group's first entry.
                    outcomes.append(([], (group[0].entry_id, err)))
    else:
        for group in groups:
            # Outputs stop at the first failed entry in entry_id order, so a
            # group starting after a failed entry could not add any.
            if any(failure and failure[0] < group[0].entry_id
                   for _, failure in outcomes):
                break
            outcomes.append(_run_group(group))
    failure = min((f for _, f in outcomes if f), key=lambda f: f[0], default=None)
    done = sorted((item for items, _ in outcomes for item in items
                   if failure is None or item[0] < failure[0]),
                  key=lambda item: item[0])

    # One outcome per run directory: an earlier run's files go first.
    out = Path(args.out) / run_id
    if out.exists():
        shutil.rmtree(out)
    out.mkdir()
    for entry_id, report, models in done:
        _write_entry_outputs(out, entry_id, report, models)
    if failure:
        err = failure[1]
        write_json(out / "failure.json", {
            "error": str(err), "error_class": type(err).__name__,
            "param_index": getattr(err, "param_index", None),
            "completed": [entry_id for entry_id, _, _ in done]})
        raise err

    emit_report([report for _, report, _ in done], out, run_meta={
        "seed": seed, "run_id": run_id, "data_digest": digest})

    manifest = {
        "tool_version": __version__,
        "run_id": run_id,
        "seed": seed,
        "data_digest": digest,
        "config": {"data": str(data_dir),
                   "entries": [cfg.to_dict() for cfg in entries]},
        "files": sorted(path.relative_to(out).as_posix()
                        for path in out.rglob("*") if path.is_file())
                 + ["manifest.json"],
        "wall_clock_seconds": round(time.time() - started, 3),
    }
    write_json(out / "manifest.json", manifest)
    print(f"run {run_id}: {len(entries)} entries -> {out}")
    print((out / "tables.txt").read_text(), end="")
    return 0


def _read_json(path: Path):
    try:
        return json.loads(path.read_text())
    except ValueError as err:  # not JSON, or not UTF-8 text
        raise DataError(f"{path}: not JSON ({err})")


def cmd_report(args) -> int:
    from .reporting import build_comparison, emit_report, entry_problem, render_tables

    if args.out and any((Path(args.out) / name).exists()
                        for name in ("manifest.json", "failure.json")):
        raise DataError(f"--out {args.out} is a run directory")
    reports = []
    digests = {}
    seen = {}
    for run_dir in args.dirs:
        run = Path(run_dir)
        results = run / "results.json"
        manifest = run / "manifest.json"
        if not results.is_file() or not manifest.is_file():
            raise DataError(f"{run}: not a run directory")
        payload, meta = _read_json(results), _read_json(manifest)
        if not isinstance(payload, dict) or not isinstance(payload.get("entries"), list):
            raise DataError(f"{results}: no list of entries")
        if not isinstance(meta, dict) or not isinstance(meta.get("data_digest"), str):
            raise DataError(f"{manifest}: no data digest")
        digests[str(run)] = meta["data_digest"]
        for report in payload["entries"]:
            problem = entry_problem(report)
            if problem:
                raise DataError(f"{results}: {problem}")
            entry_id = report["entry_id"]
            if entry_id in seen:
                raise DataError(
                    f"duplicate entry {entry_id!r} in {run} and {seen[entry_id]}")
            seen[entry_id] = str(run)
            reports.append(report)
    if len(set(digests.values())) > 1:
        detail = ", ".join(f"{d}: {g[:12]}" for d, g in sorted(digests.items()))
        raise DataError(f"runs were made from different datasets ({detail})")

    meta = {"data_digest": next(iter(digests.values())),
            "source_runs": sorted(digests),
            "seeds": sorted({r["seed"] for r in reports})}
    if args.out:
        emit_report(reports, args.out, run_meta=meta)
        print(f"aggregated {len(reports)} entries -> {args.out}")
        print((Path(args.out) / "tables.txt").read_text(), end="")
    else:
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
    p.add_argument("--jobs", type=int, default=1,
                   help="concurrent sweep entries (default 1)")
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
