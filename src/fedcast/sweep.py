"""The sweep engine: train a run's entries and write its run directory.

`run_sweep` is the one entry point.  It takes the entries that
`fedcast.federation.config.resolve_config` expands a run config into, and
in this order it:

1. loads the dataset cache and checks it against its digests;
2. refuses a (K, weather) variant the cache lacks, and an `out` that cannot
   hold run directories, before anything trains;
3. trains the entries in this process, or on a process pool when `jobs` is
   above 1.  A run in this process drops the loaded cache once the datasets
   are built, so it trains without the raw cache beside them; the pool's
   workers are handed it, since forkserver and spawn workers build their
   datasets from it;
4. rewrites out/<run-id>/ from empty and returns that directory.

The run-id is a digest of the seed, the entries and the dataset identity,
so a rerun lands in the same directory with the same bytes.  `fedcast.cli`
pins BLAS to one thread before numpy loads, so that those bytes do not
depend on the host's core count; another caller should do the same.  A
failed entry ends the sweep: the entries sorted before it are written with
failure.json, and then its error is raised.

`aggregate_runs` reads run directories back for `fedcast report`.  The
layers load when a function here runs them, and the process pool only
when a sweep runs on more than one worker.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import time
from pathlib import Path

import numpy as np

from . import __version__
from .atomic import atomic_write, read_json, write_json
from .errors import DataError, FedcastError


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


def run_sweep(seed: int, entries, cache_dir, out, jobs: int) -> Path:
    """Train `entries` on the cache at `cache_dir`; return out/<run-id>/."""
    from .data import dataset_digest, load_cache
    from .federation import group_entries
    from .numerics import numerics_fingerprint
    from .reporting import emit_report

    prep, cache_manifest = load_cache(cache_dir)
    digest = dataset_digest(cache_manifest)
    # A variant the cache lacks is refused here, before anything trains.
    variants = sorted({(cfg.k, cfg.with_weather) for cfg in entries})
    _DATASETS.clear()
    _build_datasets(prep, variants)
    # An `out` that cannot hold run directories is refused before training.
    Path(out).mkdir(parents=True, exist_ok=True)

    run_id = run_identity(seed, entries, digest)
    started = time.time()

    # Entries that share a base or a warm-up run as one group in one worker,
    # and no more workers start than there are groups.
    groups = group_entries(entries)
    jobs = min(jobs, len(groups))
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
        del prep  # the datasets are built: train without the raw cache
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
    run_dir = Path(out) / run_id
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir()
    for entry_id, report, models in done:
        _write_entry_outputs(run_dir, entry_id, report, models)
    if failure:
        err = failure[1]
        write_json(run_dir / "failure.json", {
            "error": str(err), "error_class": type(err).__name__,
            "param_index": getattr(err, "param_index", None),
            "completed": [entry_id for entry_id, _, _ in done]})
        raise err

    emit_report([report for _, report, _ in done], run_dir, run_meta={
        "seed": seed, "run_id": run_id, "data_digest": digest})

    manifest = {
        "tool_version": __version__,
        "run_id": run_id,
        "seed": seed,
        "data_digest": digest,
        "numerics": numerics_fingerprint(),
        "config": {"data": str(cache_dir),
                   "entries": [cfg.to_dict() for cfg in entries]},
        "files": sorted(path.relative_to(run_dir).as_posix()
                        for path in run_dir.rglob("*") if path.is_file())
                 + ["manifest.json"],
        "wall_clock_seconds": round(time.time() - started, 3),
    }
    write_json(run_dir / "manifest.json", manifest)
    return run_dir


def aggregate_runs(dirs, out) -> list:
    """The entries of run directories made from one dataset; with an `out`,
    their combined report is written there too."""
    from .reporting import emit_report, entry_problem

    if out and any((Path(out) / name).exists()
                   for name in ("manifest.json", "failure.json")):
        raise DataError(f"--out {out} is a run directory")
    reports = []
    digests = {}
    seen = {}
    for run in map(Path, dirs):
        results = run / "results.json"
        manifest = run / "manifest.json"
        if not results.exists() and not manifest.exists():
            raise DataError(f"{run}: not a run directory")
        payload, meta = read_json(results), read_json(manifest)
        if not isinstance(payload.get("entries"), list):
            raise DataError(f"{results}: no list of entries")
        if not isinstance(meta.get("data_digest"), str):
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

    if out:
        emit_report(reports, out, run_meta={
            "data_digest": next(iter(digests.values())),
            "source_runs": sorted(digests),
            "seeds": sorted({r["seed"] for r in reports})})
    return reports
