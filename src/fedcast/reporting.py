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

import json
from pathlib import Path

import numpy as np

from .atomic import atomic_write
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


def rmse(predictions, targets) -> float:
    """Root mean squared error between two equally sized nonempty vectors."""
    p = np.asarray(predictions, dtype=np.float64).ravel()
    t = np.asarray(targets, dtype=np.float64).ravel()
    if p.size == 0 or p.size != t.size:
        raise ValidationError("predictions and targets must have equal nonzero length")
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(t))):
        raise ValidationError("rmse inputs must be finite")
    diff = p - t
    return float(np.sqrt(np.mean(diff * diff)))


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


def results_csv_lines(reports) -> list:
    """One line per (scenario, variant) using each sweep's winning entry."""
    best = select_best_entries(reports)
    variants = sorted({key[1:] for key in best}, key=_variant_key)
    lines = [RESULTS_CSV_HEADER]
    for scenario in SCENARIO_ORDER:
        for k, weather in variants:
            rep = best.get((scenario, k, weather))
            if rep is None:
                continue
            lines.append(",".join([
                scenario,
                variant_label(k, weather),
                str(k),
                str(weather).lower(),
                f"{rep['mean_rmse']:.6g}",
                f"{rep['best_client_rmse']:.6g}",
                str(rep["total_samples"]),
                str(rep["seed"]),
            ]))
    return lines


def build_comparison(reports) -> dict:
    """Cells, row means/bests, and baseline annotations for both tables."""
    best = select_best_entries(reports)
    variants = sorted({key[1:] for key in best}, key=_variant_key)
    scenarios = [s for s in SCENARIO_ORDER
                 if any(key[0] == s for key in best)]
    rows = []
    for scenario in scenarios:
        rmse_cells = []
        sample_cells = []
        for k, weather in variants:
            rep = best.get((scenario, k, weather))
            rmse_cells.append(None if rep is None else float(rep["mean_rmse"]))
            sample_cells.append(None if rep is None else int(rep["total_samples"]))
        present_rmse = [c for c in rmse_cells if c is not None]
        present_samples = [c for c in sample_cells if c is not None]
        if not present_rmse:
            continue
        rows.append({
            "scenario": scenario,
            "rmse": rmse_cells,
            "rmse_mean": float(np.mean(present_rmse)),
            "rmse_best": float(np.min(present_rmse)),
            "rmse_best_variant": rmse_cells.index(np.min(present_rmse)),
            "samples": sample_cells,
            "samples_total_mean": float(np.mean(present_samples)),
            "samples_best": int(np.min(present_samples)),
            "samples_best_variant": sample_cells.index(np.min(present_samples)),
        })
    table = {"variants": variants, "rows": rows}
    baseline = next((r for r in rows if r["scenario"] == "localised"), None)
    if baseline is not None:
        for row in rows:
            row["rmse_mean_pct"] = pct_difference(row["rmse_mean"], baseline["rmse_mean"])
            row["rmse_best_pct"] = pct_difference(row["rmse_best"], baseline["rmse_best"])
            row["savings_mean"] = savings_factor(
                baseline["samples_total_mean"], row["samples_total_mean"])
            row["savings_best"] = savings_factor(
                float(baseline["samples_best"]), float(row["samples_best"]))
    return table


def verify_comparison(table: dict) -> None:
    """Recompute row means and bests from the cells; raise on any mismatch."""
    for row in table["rows"]:
        present = [c for c in row["rmse"] if c is not None]
        if abs(float(np.mean(present)) - row["rmse_mean"]) > 1e-12 \
                or float(np.min(present)) != row["rmse_best"]:
            raise ValidationError(f"inconsistent RMSE row for {row['scenario']}")
        samples = [c for c in row["samples"] if c is not None]
        if int(np.min(samples)) != row["samples_best"]:
            raise ValidationError(f"inconsistent sample row for {row['scenario']}")


def _fmt_cell(value, best_index, index, fmt):
    if value is None:
        return "-"
    mark = "*" if index == best_index else ""
    return f"{value:{fmt}}{mark}"


def render_tables(table: dict) -> str:
    """Plain-text RMSE and sample-count tables with baseline annotations."""
    variants = table["variants"]
    headers = ["scenario"] + [variant_label(k, w) for k, w in variants] + ["mean", "best"]
    out = []

    def emit(title, rows):
        widths = [max(len(h), 12) for h in headers]
        out.append(title)
        out.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
        for cells in rows:
            out.append("  ".join(c.ljust(w) for c, w in zip(cells, widths)))
        out.append("")

    rmse_rows = []
    sample_rows = []
    for row in table["rows"]:
        title = SCENARIO_TITLES[row["scenario"]]
        cells = [title]
        cells += [_fmt_cell(v, row["rmse_best_variant"], i, ".4f")
                  for i, v in enumerate(row["rmse"])]
        mean_txt = f"{row['rmse_mean']:.4f}"
        best_txt = f"{row['rmse_best']:.4f}"
        if "rmse_mean_pct" in row and row["scenario"] != "localised":
            mean_txt += f" ({row['rmse_mean_pct']:+.1f}%)"
            best_txt += f" ({row['rmse_best_pct']:+.1f}%)"
        rmse_rows.append(cells + [mean_txt, best_txt])

        cells = [title]
        cells += [_fmt_cell(v, row["samples_best_variant"], i, "d")
                  for i, v in enumerate(row["samples"])]
        mean_txt = f"{row['samples_total_mean']:.0f}"
        best_txt = f"{row['samples_best']:d}"
        if "savings_mean" in row and row["scenario"] != "localised":
            mean_txt += f" ({row['savings_mean']:.1f}x)"
            best_txt += f" ({row['savings_best']:.1f}x)"
        sample_rows.append(cells + [mean_txt, best_txt])

    emit("Test RMSE (normalised), best sweep entry per variant; "
         "* marks the row best; % vs localised:", rmse_rows)
    emit("Optimizer-visited samples; * marks the row best; "
         "savings factor vs localised:", sample_rows)
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
    with atomic_write(out / "results.json") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    with atomic_write(out / "results.csv") as fh:
        fh.write("\n".join(results_csv_lines(reports)) + "\n")
    table = build_comparison(reports)
    verify_comparison(table)
    with atomic_write(out / "tables.txt") as fh:
        fh.write(render_tables(table))
    return payload
