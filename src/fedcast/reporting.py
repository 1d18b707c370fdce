"""Error and cost metrics plus the rendered result tables.

Conventions:
  * pct_difference(scenario, baseline) is positive when the scenario beats
    the baseline (lower RMSE) and negative when it is worse.
  * savings_factor(baseline_samples, scenario_samples) is how many times
    cheaper the scenario is than the baseline; values below 1 mean it is
    more expensive.
  * the per-household ("localised") regime is the baseline for both.

`emit_report` writes results.csv (one row per scenario and data variant,
keeping the sweep entry with the best validation score), results.json (the
full run log), and a text rendering with one RMSE table and one sample-count
table: scenarios as rows, (K, weather) variants as columns, plus row mean
and row best with annotations against the localised baseline.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .atomic import atomic_write, write_json
from .errors import ValidationError

SCENARIO_ORDER = ("centralised", "localised", "fl", "fl_hc", "fl_lft", "fl_hc_lft")
SCENARIO_TITLES = {
    "centralised": "Centralised",
    "localised": "Localised",
    "fl": "FL",
    "fl_hc": "FL+HC",
    "fl_lft": "FL+LFT",
    "fl_hc_lft": "FL+HC+LFT",
}
VARIANT_ORDER = ((6, True), (12, True), (24, True), (6, False), (12, False), (24, False))

RESULTS_CSV_HEADER = "scenario,variant,k,weather,mean_rmse,best_rmse,total_samples,seed"


def pct_difference(scenario_metric: float, baseline_metric: float) -> float:
    """Signed improvement of `scenario_metric` over the baseline, in percent."""
    if not baseline_metric > 0:
        raise ValidationError("baseline metric must be positive")
    if scenario_metric < 0:
        raise ValidationError("scenario metric must be non-negative")
    return (baseline_metric - scenario_metric) / baseline_metric * 100.0


def savings_factor(baseline_samples: float, scenario_samples: float) -> float:
    """How many times fewer samples the scenario consumed than the baseline."""
    if not scenario_samples > 0:
        raise ValidationError("scenario sample count must be positive")
    if baseline_samples < 0:
        raise ValidationError("baseline sample count must be non-negative")
    return baseline_samples / scenario_samples


def variant_label(k: int, with_weather: bool) -> str:
    return f"k{k}{'+w' if with_weather else '-w'}"


def _variant_key(variant):
    """Canonical column order; unknown K values sort after the usual six."""
    if variant in VARIANT_ORDER:
        return (0, VARIANT_ORDER.index(variant))
    k, with_weather = variant
    return (1, not with_weather, k)


def _entry_sort_key(report: dict):
    return report["entry_id"]


def _integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _finite(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _val_score(value) -> bool:
    if isinstance(value, dict):
        return bool(value) and all(map(_finite, value.values()))
    return value is None or _finite(value)


# What the tables read of each entry, and what each field must hold.  Only
# best_val_rmse, the validation score that picks a sweep's winner, may be
# absent.  A bool counts as neither an integer nor a number.
_ENTRY_FIELDS = (
    ("entry_id", "a string", lambda v: isinstance(v, str)),
    ("seed", "an integer >= 0", lambda v: _integer(v) and v >= 0),
    ("scenario", f"one of {SCENARIO_ORDER}", lambda v: v in SCENARIO_ORDER),
    ("k", "an integer >= 1", lambda v: _integer(v) and v >= 1),
    ("weather", "true or false", lambda v: isinstance(v, bool)),
    ("mean_rmse", "a finite number >= 0", lambda v: _finite(v) and v >= 0),
    ("best_client_rmse", "a finite number >= 0", lambda v: _finite(v) and v >= 0),
    ("total_samples", "an integer >= 0", lambda v: _integer(v) and v >= 0),
    ("best_val_rmse", "null, a finite number, or a non-empty object of them",
     _val_score),
)


def entry_problem(report) -> str | None:
    """What makes `report` unfit for the tables, or None if it is fit."""
    if not isinstance(report, dict):
        return "an entry is not an object"
    missing = [name for name, _, _ in _ENTRY_FIELDS
               if name not in report and name != "best_val_rmse"]
    if missing:
        return f"an entry has no {', '.join(missing)}"
    for name, noun, fits in _ENTRY_FIELDS:
        value = report.get(name)
        if not fits(value):
            return f"an entry's {name} is {value!r}, not {noun}"
    return None


def _best_metric(report: dict) -> float:
    """Validation score used to pick the winner among sweep entries."""
    best = report.get("best_val_rmse")
    if isinstance(best, dict):  # localised: one best per client
        return float(np.mean([best[h] for h in sorted(best)]))
    if best is None:
        return float(report["mean_rmse"])
    return float(best)


def select_best_entries(reports) -> dict:
    """Winning sweep entry per (scenario, k, weather): lowest validation
    score, ties broken by fewer samples, then entry id."""
    winners: dict = {}
    for rep in reports:
        key = (rep["scenario"], rep["k"], rep["weather"])
        rank = (_best_metric(rep), rep["total_samples"], rep["entry_id"])
        if key not in winners or rank < winners[key][0]:
            winners[key] = (rank, rep)
    return {key: rep for key, (rank, rep) in winners.items()}


def results_csv_lines(table: dict) -> list:
    """One line per (scenario, variant): the winning entries of a
    `build_comparison` table, in its row and column order."""
    lines = [RESULTS_CSV_HEADER]
    for row in table["rows"]:
        for (k, weather), rep in zip(table["variants"], row["winners"]):
            if rep is None:
                continue
            lines.append(",".join([
                row["scenario"],
                variant_label(k, weather),
                str(k),
                str(weather).lower(),
                f"{rep['mean_rmse']:.6g}",
                f"{rep['best_client_rmse']:.6g}",
                str(rep["total_samples"]),
                str(rep["seed"]),
            ]))
    return lines


class _Metric(NamedTuple):
    """What the RMSE table and the samples table differ in."""

    name: str           # row-key prefix: {name}, {name}_mean, {name}_best, ...
    field: str          # the report field a cell shows
    cast: type
    cell_format: str    # a cell and the row best
    mean_format: str
    vs_baseline: Callable[[float, float], float]  # (row value, localised value)
    note: str           # the comparison's annotation on the mean and the best
    title: str


_METRICS = (
    _Metric("rmse", "mean_rmse", float, ".4f", ".4f", pct_difference, " ({:+.1f}%)",
            "Test RMSE (normalised), best sweep entry per variant; "
            "* marks the row best; % vs localised:"),
    _Metric("samples", "total_samples", int, "d", ".0f",
            lambda value, base: savings_factor(float(base), float(value)), " ({:.1f}x)",
            "Optimizer-visited samples; * marks the row best; "
            "savings factor vs localised:"),
)
_STATS = ("mean", "best")  # the summary columns, compared against localised


def build_comparison(reports) -> dict:
    """Each row's winning entry per variant (None where it has none), and
    the cells, row means/bests and baseline annotations of both tables."""
    best = select_best_entries(reports)
    variants = sorted({key[1:] for key in best}, key=_variant_key)
    scenarios = [s for s in SCENARIO_ORDER
                 if any(key[0] == s for key in best)]
    rows = []
    for scenario in scenarios:
        reps = [best.get((scenario, k, weather)) for k, weather in variants]
        row = {"scenario": scenario, "winners": reps}
        for m in _METRICS:
            cells = [None if rep is None else m.cast(rep[m.field]) for rep in reps]
            present = [c for c in cells if c is not None]
            row[m.name] = cells
            row[f"{m.name}_mean"] = float(np.mean(present))
            row[f"{m.name}_best"] = m.cast(np.min(present))
            row[f"{m.name}_best_variant"] = cells.index(np.min(present))
        rows.append(row)
    baseline = next((r for r in rows if r["scenario"] == "localised"), None)
    if baseline is not None:
        for row in rows:
            for m in _METRICS:
                for stat in _STATS:
                    key = f"{m.name}_{stat}"
                    row[f"{key}_vs_localised"] = m.vs_baseline(row[key], baseline[key])
    return {"variants": variants, "rows": rows}


def verify_comparison(table: dict) -> None:
    """Recompute row means and bests from the cells; raise on any mismatch."""
    for row in table["rows"]:
        for m in _METRICS:
            present = [c for c in row[m.name] if c is not None]
            if abs(float(np.mean(present)) - row[f"{m.name}_mean"]) > 1e-12 \
                    or m.cast(np.min(present)) != row[f"{m.name}_best"]:
                raise ValidationError(f"inconsistent {m.name} row for {row['scenario']}")


def _fmt_cell(value, best_index, index, fmt):
    if value is None:
        return "-"
    mark = "*" if index == best_index else ""
    return f"{value:{fmt}}{mark}"


def render_tables(table: dict) -> str:
    """Plain-text RMSE and sample-count tables with baseline annotations."""
    variants = table["variants"]
    headers = ["scenario"] + [variant_label(k, w) for k, w in variants] + ["mean", "best"]
    widths = [max(len(h), 12) for h in headers]
    out = []
    for m in _METRICS:
        out.append(m.title)
        lines = [headers]
        for row in table["rows"]:
            cells = [SCENARIO_TITLES[row["scenario"]]]
            cells += [_fmt_cell(v, row[f"{m.name}_best_variant"], i, m.cell_format)
                      for i, v in enumerate(row[m.name])]
            for stat, fmt in zip(_STATS, (m.mean_format, m.cell_format)):
                key = f"{m.name}_{stat}"
                text = f"{row[key]:{fmt}}"
                if f"{key}_vs_localised" in row and row["scenario"] != "localised":
                    text += m.note.format(row[f"{key}_vs_localised"])
                cells.append(text)
            lines.append(cells)
        out += ["  ".join(c.ljust(w) for c, w in zip(line, widths)) for line in lines]
        out.append("")
    return "\n".join(out)


def emit_report(reports, out_dir, run_meta: dict | None = None) -> dict:
    """Write results.csv, results.json, and tables.txt for one run.

    Returns the results.json payload.  The payload dumps with sorted keys and
    no timestamps, so identical runs serialise byte-identically.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    reports = sorted(reports, key=_entry_sort_key)
    payload = {"entries": reports}
    if run_meta:
        payload.update(run_meta)
    write_json(out / "results.json", payload)
    table = build_comparison(reports)
    with atomic_write(out / "results.csv") as fh:
        fh.write("\n".join(results_csv_lines(table)) + "\n")
    verify_comparison(table)
    with atomic_write(out / "tables.txt") as fh:
        fh.write(render_tables(table))
    return payload
