"""Traced fedcast command: spans around calls into each layer, kept in memory.

    python3 perfbench/layertrace.py SPANS.json COMMAND [ARGS...]

runs `fedcast COMMAND ARGS...` in this process after replacing the public
functions listed in TARGETS, at every fedcast module attribute that refers
to them, with wrappers that record a span: [name, start, end, parent], where
parent is the index of the enclosing span or -1.  The whole command is the
root span `cli.COMMAND`.  Spans and work counters are written to SPANS.json
when the command ends.  Nothing inside the package changes.

A span's self time is its duration minus the union of its child spans'
intervals; `layer_metrics` turns spans into the benchmark's per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path


def _windows(args, result):
    return {"windows": len(args[0])}


# (span name, defining module, function, counters from (args, result))
TARGETS = (
    ("nn.compute_gradients", "fedcast.nn.lstm", "compute_gradients", _windows),
    ("nn.forward_batch", "fedcast.nn.lstm", "forward_batch", _windows),
    ("nn.adam_step", "fedcast.nn.adam", "adam_step", None),
    ("federation.evaluate_rmse", "fedcast.federation.training", "evaluate_rmse",
     lambda args, result: {"windows": len(args[1].labels)}),
    ("federation.fit_epochs", "fedcast.federation.training", "fit_epochs", None),
    ("federation.train_session", "fedcast.federation.training", "train_session",
     lambda args, result: {"epochs": result.epochs_run}),
    ("federation.fedavg_round", "fedcast.federation.scenarios", "fedavg_round",
     lambda args, result: {"clients": len(args[1])}),
    ("federation.fedavg_aggregate", "fedcast.federation.scenarios",
     "fedavg_aggregate", None),
    ("federation.run_scenario", "fedcast.federation.scenarios", "run_scenario",
     None),
    ("clustering.pairwise_euclidean", "fedcast.clustering", "pairwise_euclidean",
     None),
    ("clustering.agglomerate", "fedcast.clustering", "agglomerate",
     lambda args, result: {"clients": len(args[0])}),
    ("data.ingest_meter_csv", "fedcast.data.ingest", "ingest_meter_csv",
     lambda args, result: {"rows": sum(map(len, result[0].values()))}),
    ("data.ingest_weather_csv", "fedcast.data.ingest", "ingest_weather_csv", None),
    ("data.clean_readings", "fedcast.data.cleaning", "clean_readings", None),
    ("data.build_design_matrix", "fedcast.data.features", "build_design_matrix",
     None),
    ("data.fit_normalizer", "fedcast.data.normalize", "fit_normalizer", None),
    ("data.write_cache", "fedcast.data.cache", "write_cache", None),
    ("data.load_cache", "fedcast.data.cache", "load_cache", None),
    ("data.household_datasets", "fedcast.data.cache", "household_datasets", None),
    ("reporting.emit_report", "fedcast.reporting", "emit_report", None),
)
# Called too often and too cheaply for a span: counted only.
COUNTED = (("seeding.stream", "fedcast.seeding", "stream"),)


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index]
        self.counts = Counter()
        self._stack = [-1]

    def span(self, name, fn, counters=None):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if counters is not None:
                for key, n in counters(args, result).items():
                    counts[f"{name}.{key}"] += n
            return result
        return traced

    def count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[f"{name}.calls"] += 1
            return fn(*args, **kwargs)
        return counted


def _patch_everywhere(original, replacement) -> int:
    """Rebind every fedcast module attribute that refers to `original`."""
    patched = 0
    for mod_name, module in list(sys.modules.items()):
        if not mod_name.startswith("fedcast") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                patched += 1
    return patched


def instrument(tracer: Tracer) -> None:
    import fedcast.cli  # noqa: F401  (loads every module that holds a target)
    for name, mod_name, func, counters in TARGETS:
        original = getattr(importlib.import_module(mod_name), func)
        if not _patch_everywhere(original, tracer.span(name, original, counters)):
            raise RuntimeError(f"{mod_name}.{func} is not referenced anywhere")
    for name, mod_name, func in COUNTED:
        original = getattr(importlib.import_module(mod_name), func)
        _patch_everywhere(original, tracer.count(name, original))


def main(argv) -> int:
    spans_path, *cli_argv = argv
    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    tracer = Tracer()
    instrument(tracer)
    import fedcast.cli
    root = tracer.span(f"cli.{cli_argv[0]}", fedcast.cli.main)
    try:
        code = root(cli_argv)
    finally:
        Path(spans_path).write_text(json.dumps(
            {"spans": tracer.spans, "counts": dict(tracer.counts)}))
    return code


# ------------------------------------------------------------------ analysis

def load_spans(paths) -> tuple[list, Counter]:
    """Spans of several span files, parent indices rebased; summed counters."""
    spans, counts = [], Counter()
    for path in paths:
        data = json.loads(Path(path).read_text())
        base = len(spans)
        spans += [[n, s, e, p + base if p >= 0 else -1]
                  for n, s, e, p in data["spans"]]
        counts.update(data["counts"])
    return spans, counts


def _union_length(intervals) -> float:
    total, reach = 0.0, -float("inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans) -> list:
    """Per span: duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [end - start - _union_length(children[i])
            for i, (_, start, end, _) in enumerate(spans)]


LAYER_STATS = {
    # span name: counters reported besides calls and self_s
    "nn.compute_gradients": ("windows", "us_per_window"),
    "nn.forward_batch": ("windows", "us_per_window"),
    "nn.adam_step": (),
    "federation.evaluate_rmse": ("windows",),
    "federation.fit_epochs": (),
    "federation.train_session": ("epochs",),
    "federation.fedavg_round": ("clients",),
    "federation.fedavg_aggregate": (),
    "clustering.pairwise_euclidean": (),
    "clustering.agglomerate": ("clients",),
    "data.clean_readings": (),
    "data.build_design_matrix": (),
}
SELF_ONLY = ("data.ingest_weather_csv", "data.fit_normalizer", "data.write_cache",
             "data.load_cache", "data.household_datasets", "reporting.emit_report")


def layer_metrics(spans, counts, reported_samples: int, traced_run_s: float,
                  untraced_run_s: float, output_bytes: int) -> dict:
    """The benchmark's per-layer metrics as {name: (value, unit)}.

    The two run times are wall times of whole `fedcast run` processes, one
    traced and one not, both serial; their difference is the tracing cost.
    """
    selfs = self_times(spans)
    calls, self_s, total_s = Counter(), defaultdict(float), defaultdict(float)
    for (name, start, end, _), own in zip(spans, selfs):
        calls[name] += 1
        self_s[name] += own
        total_s[name] += end - start

    out = {}
    for name, extra in LAYER_STATS.items():
        out[f"{name}.calls"] = (calls[name], "count")
        for key in extra:
            if key == "us_per_window":
                windows = counts[f"{name}.windows"]
                value = 1e6 * self_s[name] / windows if windows else 0.0
                out[f"{name}.us_per_window"] = (value, "us")
            else:
                out[f"{name}.{key}"] = (counts[f"{name}.{key}"], "count")
        out[f"{name}.self_s"] = (self_s[name], "s")
    out["federation.run_scenario.calls"] = (calls["federation.run_scenario"], "count")
    out["federation.run_scenario.s"] = (total_s["federation.run_scenario"], "s")
    run_s = total_s["cli.run"]
    out["federation.eval_share"] = (total_s["nn.forward_batch"] / run_s, "ratio")
    out["federation.grad_windows_per_reported_sample"] = (
        counts["nn.compute_gradients.windows"] / reported_samples, "ratio")
    out["data.ingest_meter_csv.rows"] = (counts["data.ingest_meter_csv.rows"], "count")
    out["data.ingest_meter_csv.self_s"] = (self_s["data.ingest_meter_csv"], "s")
    for name in SELF_ONLY:
        out[f"{name}.self_s"] = (self_s[name], "s")
    out["cli.self_s"] = (self_s["cli.run"], "s")
    out["cli.output_bytes"] = (output_bytes, "bytes")
    out["seeding.stream.calls"] = (counts["seeding.stream.calls"], "count")
    out["trace.overhead_share"] = (
        (traced_run_s - untraced_run_s) / untraced_run_s, "ratio")
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
