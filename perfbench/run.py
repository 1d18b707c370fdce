"""fedcast benchmark: named workloads run through the real CLI.

Usage, from the root of a fedcast checkout:

    python3 perfbench/run.py --workload fl_desk [--seed 11] [--seconds 35]
                             [--trace 0|1] [--smoke]

Each invocation generates one synthetic population from --seed, then:

* --trace 0 repeats `fedcast prepare` then `fedcast run` for --seconds and
  reports the medians over the repeats;
* --trace 1 runs `fedcast run` once untraced and once under
  perfbench/layertrace.py, which wraps the package's public functions with
  spans, and reports the per-layer metrics.

Every `fedcast run` must pass the output check: one entry per expected sweep
point, sample totals that recount from the round logs, finite RMSEs, and a
results.json digest equal across all runs of the invocation (serial against
--jobs 2 for sweep_hc in the traced run).  The last stdout line is one JSON
object with keys correct, attempted, failed and metrics; the exit code is 1
when the output check fails and 2 when the program cannot be run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "work"

DEFAULT_SEED = 11
# The run config's own seed (initialisation, client sampling, shuffling).  It
# stays fixed so that --seed varies only the generated households and the
# figures of different seeds measure the same training work.
RUN_SEED = 11


@dataclass(frozen=True)
class Workload:
    households: int
    days: int
    k: int
    weather: bool
    jobs: int
    scenarios: tuple
    overrides: dict
    entries: int          # sweep points the config expands to


FL = {"kind": "fl", "client_fraction": 0.1, "local_epochs": 3}

WORKLOADS = {
    # Flat federation at desk scale: large-batch gradients plus per-round
    # validation of every client; a single entry, so nothing is shared.
    "fl_desk": Workload(
        households=20, days=90, k=12, weather=False, jobs=1,
        scenarios=(FL,), overrides={"fl_rounds_cap": 4}, entries=1),
    # The same population trained per household at B=8: per-call overhead
    # in the nn layer dominates instead of per-element math.
    "local_b8": Workload(
        households=20, days=45, k=6, weather=False, jobs=1,
        scenarios=({"kind": "localised"},),
        overrides={"batch_size": 8, "epochs_cap": 1}, entries=1),
    # A seven-entry sweep over every regime at --jobs 2: process pool,
    # clustering, fine-tuning, reporting, and bases that other entries
    # recompute.
    "sweep_hc": Workload(
        households=12, days=20, k=12, weather=True, jobs=2,
        scenarios=(
            {"kind": "centralised"},
            {"kind": "localised"},
            FL,
            dict(FL, kind="fl_lft"),
            {"kind": "fl_hc", "hc_threshold": [1.4, 3.0], "hc_linkage": "ward",
             "hc_rounds": 2},
            {"kind": "fl_hc_lft", "hc_threshold": 1.4, "hc_linkage": "ward",
             "hc_rounds": 2},
        ),
        overrides={"batch_size": 32, "epochs_cap": 1, "fl_rounds_cap": 3,
                   "flhc_rounds_cap": 3, "lft_epochs_cap": 1, "patience": 3},
        entries=7),
}


def smoke(workload: Workload) -> Workload:
    """The same shape shrunk to seconds: 4 households, caps of 1.

    Six days is the shortest span whose 10% test split still holds a K=12
    window; hc_rounds drops to 1 so the clustered cap can be 2.
    """
    scenarios = tuple(dict(s, hc_rounds=1) if "hc_rounds" in s else s
                      for s in workload.scenarios)
    overrides = {key: 1 if key.endswith("_cap") else value
                 for key, value in workload.overrides.items()}
    if "flhc_rounds_cap" in overrides:
        overrides["flhc_rounds_cap"] = 2
    return replace(workload, households=4, days=6, scenarios=scenarios,
                   overrides=overrides)


# ---------------------------------------------------------------- host record

def _proc_stat_cpu() -> list:
    with open("/proc/stat") as fh:
        return [int(v) for v in fh.readline().split()[1:]]


def _steal_share(before: list, after: list) -> float:
    """Share of CPU time stolen by the hypervisor between two /proc/stat reads."""
    delta = [a - b for a, b in zip(after[:8], before[:8])]
    total = sum(delta)
    return delta[7] / total if total > 0 else 0.0


def _cpu_model() -> str:
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return "unknown"


def host_record(np_version: str) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np_version,
        "blas_pins": {k: v for k, v in sorted(os.environ.items())
                      if k.endswith(("_NUM_THREADS", "_MAXIMUM_THREADS"))},
    }


# ------------------------------------------------------------------ processes

@dataclass
class Proc:
    returncode: int
    wall_s: float
    cpu_s: float
    max_rss_mib: float
    log: Path


def _env() -> dict:
    env = dict(os.environ)
    env.pop("FEDCAST_SEED", None)   # the config seed must stand
    env["PYTHONPATH"] = str(SRC)
    return env


def run_process(argv: list, log: Path, cwd: Path) -> Proc:
    """Run argv to completion; wall time, CPU and peak RSS of it and its children.

    os.wait4 reports the process's own usage plus that of every descendant it
    waited for, which covers the worker processes of `--jobs`.  The child
    leads its own process group; if this process is interrupted or
    terminated, the whole group is killed and reaped before the exception
    propagates.
    """
    with log.open("w") as out:
        start = time.perf_counter()
        child = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT,
                                 cwd=cwd, env=_env(), start_new_session=True)
        try:
            _, status, usage = os.wait4(child.pid, 0)
        except BaseException:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
            raise
        wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    return Proc(child.returncode, wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0, log)


def run_cli(argv: list, log: Path, cwd: Path) -> Proc:
    return run_process([sys.executable, "-m", "fedcast.cli", *argv], log, cwd)


def _fail(message: str, proc: Proc | None = None) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    if proc is not None:
        print(proc.log.read_text()[-4000:], file=sys.stderr)


# ---------------------------------------------------------------- output check

def _rmse_values(node, key=""):
    """Every number stored under a key that names an RMSE, at any depth."""
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _rmse_values(v, k if "rmse" in k else key)
    elif isinstance(node, list):
        for v in node:
            yield from _rmse_values(v, key)
    elif "rmse" in key and node is not None:
        yield node


def run_dir_of(out: Path) -> Path | None:
    """The one run directory `fedcast run --out out` writes, if it is there."""
    dirs = [p for p in out.glob("*") if p.is_dir()]
    return dirs[0] if len(dirs) == 1 else None


def check_results(run_dir: Path | None, workload: Workload,
                  recount) -> tuple[list, list]:
    """Entries of results.json and the problems found in them."""
    if run_dir is None or not (run_dir / "results.json").is_file():
        return [], ["no run directory with a results.json"]
    entries = json.loads((run_dir / "results.json").read_text())["entries"]
    problems = []
    if len(entries) != workload.entries:
        problems.append(f"{len(entries)} entries, expected {workload.entries}")
    for entry in entries:
        name = entry.get("entry_id")
        if recount(entry) != entry["total_samples"]:
            problems.append(f"{name}: total_samples {entry['total_samples']} "
                            f"!= recount {recount(entry)}")
        bad = [v for v in _rmse_values(entry)
               if not isinstance(v, (int, float)) or not math.isfinite(v)]
        if bad:
            problems.append(f"{name}: non-finite RMSE values {bad[:3]}")
    return entries, problems


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def output_bytes(run_dir: Path) -> int:
    """Bytes the run wrote, except manifest.json (it holds the wall clock)."""
    return sum(p.stat().st_size for p in run_dir.rglob("*")
               if p.is_file() and p.name != "manifest.json")


# ------------------------------------------------------------------ workloads

def write_inputs(workload: Workload, seed: int, work: Path) -> dict:
    from fedcast.data import (generate_synthetic_households, write_meter_csv,
                              write_weather_csv)
    pop = generate_synthetic_households(
        workload.households, archetypes=3, seed=seed, days=workload.days)
    paths = {"meters": work / "meters.csv", "weather": work / "weather.csv",
             "config": work / "config.json"}
    write_meter_csv(paths["meters"], pop.households)
    write_weather_csv(paths["weather"], pop.weather)
    config = {"data": "cache", "seed": RUN_SEED, "k": workload.k,
              "weather": workload.weather, "scenarios": list(workload.scenarios),
              "overrides": workload.overrides}
    paths["config"].write_text(json.dumps(config, indent=2) + "\n")
    return paths


def prepare_argv(workload: Workload, paths: dict, cache: Path) -> list:
    argv = ["prepare", "--meters", str(paths["meters"]), "--out", str(cache),
            "--k", str(workload.k)]
    if workload.weather:
        return argv + ["--weather", str(paths["weather"]),
                       "--weather-variant", "both"]
    return argv + ["--weather-variant", "without"]


def run_argv(paths: dict, out: Path, jobs: int) -> list:
    return ["run", "--config", str(paths["config"]), "--out", str(out),
            "--jobs", str(jobs)]


class Checker:
    """Applies the output check to each run and keeps the tallies."""

    def __init__(self, workload: Workload, recount):
        self.workload = workload
        self.recount = recount
        self.attempted = 0
        self.failed = 0
        self.digests = set()
        self.problems = []

    def check(self, proc: Proc, out: Path, label: str) -> list:
        """Entries of a passing run; [] for a failed one (counted as failed)."""
        self.attempted += self.workload.entries
        if proc.returncode != 0:
            _fail(f"{label}: fedcast exited {proc.returncode}", proc)
            entries, problems = [], [f"{label}: exit code {proc.returncode}"]
        else:
            run_dir = run_dir_of(out)
            entries, problems = check_results(run_dir, self.workload, self.recount)
            problems = [f"{label}: {p}" for p in problems]
            if not problems:
                self.digests.add(digest(run_dir / "results.json"))
                if len(self.digests) > 1:
                    problems.append(f"{label}: results.json digest differs "
                                    "from an earlier run")
        if problems:
            self.failed += self.workload.entries
            self.problems += problems
            for problem in problems:
                print(f"perfbench: output check: {problem}", file=sys.stderr)
            return []
        return entries


def prepare(workload: Workload, paths: dict, work: Path, cache: Path,
            log: Path) -> Proc:
    proc = run_cli(prepare_argv(workload, paths, cache), log, work)
    if proc.returncode != 0:
        _fail("fedcast prepare failed", proc)
        raise SystemExit(2)
    return proc


def measure(workload: Workload, paths: dict, work: Path, seconds: float,
            checker: Checker) -> tuple:
    """Untraced (prepare, run) repeats within --seconds; their medians.

    A repeat starts only if one of median length would still end within
    --seconds; there is always at least one.  Set-up and run alternate, so
    both sample the same stretches of machine time.  The first cache is the
    input of every run; each later prepare must write the same cache and is
    then removed.
    """
    setup, runs, took = [], [], []
    start = time.perf_counter()
    while not took or (time.perf_counter() - start + statistics.median(took)
                       <= seconds):
        i = len(runs)
        began = time.perf_counter()
        cache = work / ("cache" if i == 0 else f"cache{i}")
        setup.append(prepare(workload, paths, work, cache,
                             work / f"prepare{i}.log").wall_s)
        if i:
            manifests = (cache / "manifest.json", work / "cache" / "manifest.json")
            if digest(manifests[0]) != digest(manifests[1]):
                checker.problems.append(f"prepare {i} wrote a different cache")
            shutil.rmtree(cache)
        out = work / f"runs{i}"
        proc = run_cli(run_argv(paths, out, workload.jobs), work / f"run{i}.log",
                       work)
        entries = checker.check(proc, out, f"run {i}")
        samples = sum(e["total_samples"] for e in entries)
        kwh = statistics.fmean(e["kwh_rmse"] for e in entries) if entries else 0.0
        runs.append((proc, samples, kwh))
        if i:
            shutil.rmtree(out)
        took.append(time.perf_counter() - began)

    def med(values):
        return statistics.median(list(values))

    return {
        "setup_s": (med(setup), "s"),
        "run_s": (med(p.wall_s for p, _, _ in runs), "s"),
        "samples_per_s": (med(s / p.wall_s for p, s, _ in runs), "samples/s"),
        "cpu_s": (med(p.cpu_s for p, _, _ in runs), "s"),
        "peak_rss_mb": (med(p.max_rss_mib for p, _, _ in runs), "MiB"),
        "kwh_rmse": (med(k for _, _, k in runs), "kWh"),
    }, {"repeats": len(runs), "setup_s_all": setup,
        "run_s_all": [p.wall_s for p, _, _ in runs]}


def traced(workload: Workload, paths: dict, work: Path, checker: Checker) -> tuple:
    """One untraced run, then the same run under spans; per-layer metrics."""
    from layertrace import layer_metrics, load_spans

    prepare(workload, paths, work, work / "cache", work / "prepare.log")
    untraced = {}
    for jobs in sorted({workload.jobs, 1}, reverse=True):
        out = work / f"untraced_j{jobs}"
        untraced[jobs] = run_cli(run_argv(paths, out, jobs),
                                 work / f"untraced_j{jobs}.log", work)
        checker.check(untraced[jobs], out, f"untraced run, --jobs {jobs}")

    tracer = [sys.executable, str(BENCH_DIR / "layertrace.py")]
    span_files, procs = [], {}
    for name, argv in (("prepare", prepare_argv(workload, paths, work / "tcache")),
                       ("run", run_argv(paths, work / "traced", 1))):
        span_files.append(work / f"spans_{name}.json")
        procs[name] = run_process([*tracer, str(span_files[-1]), *argv],
                                  work / f"traced_{name}.log", work)
    if procs["prepare"].returncode != 0:
        _fail("traced prepare failed", procs["prepare"])
        raise SystemExit(2)
    entries = checker.check(procs["run"], work / "traced", "traced run")
    if not entries:
        return {}, {}
    spans, counts = load_spans(span_files)
    run_dir = run_dir_of(work / "traced")
    metrics = layer_metrics(
        spans, counts,
        reported_samples=sum(e["total_samples"] for e in entries),
        traced_run_s=procs["run"].wall_s, untraced_run_s=untraced[1].wall_s,
        output_bytes=output_bytes(run_dir))
    return metrics, {"untraced_run_s": {f"jobs{j}": p.wall_s
                                        for j, p in untraced.items()},
                     "span_files": [str(p.relative_to(ROOT)) for p in span_files]}


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrink the workload to seconds (for the self-test)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not (SRC / "fedcast" / "cli.py").is_file():
        print(f"perfbench: no fedcast sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import fedcast.cli  # noqa: F401  (pins BLAS threads in os.environ first)
    import numpy as np
    from fedcast.federation import recount_samples

    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = smoke(workload)
    work = WORK / f"{args.workload}{'-smoke' if args.smoke else ''}-s{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    stat_before, load_before = _proc_stat_cpu(), os.getloadavg()
    began = time.perf_counter()
    paths = write_inputs(workload, args.seed, work)
    generate_s = time.perf_counter() - began
    # Compile and import the package once so no timed process pays for it.
    warm = run_cli(["--version"], work / "warmup.log", work)
    if warm.returncode != 0:
        _fail("fedcast does not start", warm)
        return 2
    checker = Checker(workload, recount_samples)
    if args.trace:
        metrics, detail = traced(workload, paths, work, checker)
    else:
        metrics, detail = measure(workload, paths, work, args.seconds, checker)
    stat_after, load_after = _proc_stat_cpu(), os.getloadavg()

    correct = checker.failed == 0 and not checker.problems
    record = {
        "workload": args.workload, "seed": args.seed, "smoke": args.smoke,
        "trace": args.trace, "seconds": args.seconds, "generate_s": generate_s,
        "digest": sorted(checker.digests),
        "failed_share": checker.failed / max(checker.attempted, 1),
        "host": host_record(np.__version__),
        "loadavg_before": load_before, "loadavg_after": load_after,
        "steal_share": _steal_share(stat_before, stat_after),
        **detail,
        "metrics": {name: {"value": v, "unit": u}
                    for name, (v, u) in metrics.items()},
    }
    (work / "record.json").write_text(json.dumps(record, indent=2) + "\n")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} failed_share = {record['failed_share']:.6g} ratio")
    print(f"{args.workload} seed {args.seed} results.json sha256 "
          f"{' '.join(sorted(checker.digests)) or '(none)'}")
    print("host " + json.dumps({k: record[k] for k in (
        "host", "loadavg_before", "loadavg_after", "steal_share", "seed")}))
    print(json.dumps({
        "correct": correct,
        "attempted": max(checker.attempted, 1),
        "failed": checker.failed if correct else max(checker.failed, 1),
        "metrics": record["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
