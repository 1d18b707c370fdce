"""Metrics, winner selection, and the emitted result files."""

import json
import math

import numpy as np
import pytest

from fedcast.errors import ValidationError
from fedcast.reporting import (
    RESULTS_CSV_HEADER,
    VARIANT_ORDER,
    build_comparison,
    emit_report,
    pct_difference,
    render_tables,
    results_csv_lines,
    savings_factor,
    select_best_entries,
    variant_label,
    verify_comparison,
)
from nn_oracle import mse_loss


def make_report(scenario, k=6, weather=False, mean_rmse=0.02, best_val=None,
                samples=1000, entry_id=None, best_client=None, seed=11):
    return {
        "entry_id": entry_id or f"{scenario}__k{k}{'+w' if weather else '-w'}",
        "scenario": scenario,
        "k": k,
        "weather": weather,
        "seed": seed,
        "mean_rmse": mean_rmse,
        "best_client_rmse": best_client if best_client is not None else mean_rmse,
        "best_val_rmse": best_val,
        "total_samples": samples,
    }


# -------------------------------------------------------------------- metrics

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


def test_rmse_hand_values():
    assert rmse([1.0, 2.0, 3.0], [2.0, 2.0, 5.0]) == pytest.approx(
        1.2909944487358056, abs=1e-15)
    assert rmse([1.5], [1.5]) == 0.0
    assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(math.sqrt(12.5))


def test_rmse_is_root_of_training_loss(rng):
    preds = rng.normal(size=40)
    targets = rng.normal(size=40)
    assert rmse(preds, targets) == pytest.approx(
        math.sqrt(mse_loss(preds, targets)), rel=1e-12)


def test_rmse_rejects_bad_shapes():
    with pytest.raises(ValidationError):
        rmse([], [])
    with pytest.raises(ValidationError):
        rmse([1.0], [1.0, 2.0])
    with pytest.raises(ValidationError):
        rmse([float("nan")], [0.0])


def test_pct_difference_frozen_values():
    assert pct_difference(0.0187, 0.0196) == pytest.approx(
        4.591836734693867, abs=1e-12)
    assert pct_difference(0.0198, 0.0183) == pytest.approx(
        -8.196721311475418, abs=1e-12)
    assert pct_difference(0.02, 0.02) == 0.0
    assert pct_difference(0.0, 1.0) == 100.0


def test_pct_difference_rejects_degenerate_baselines():
    with pytest.raises(ValidationError):
        pct_difference(0.01, 0.0)
    with pytest.raises(ValidationError):
        pct_difference(-0.01, 1.0)


def test_savings_factor_frozen_values():
    assert savings_factor(71.0e6, 5.6e6) == pytest.approx(
        12.678571428571429, rel=1e-12)
    assert savings_factor(100, 100) == 1.0
    assert savings_factor(50, 100) == 0.5  # scenario costlier than baseline
    with pytest.raises(ValidationError):
        savings_factor(100, 0)


def test_variant_labels():
    assert variant_label(12, True) == "k12+w"
    assert variant_label(6, False) == "k6-w"


# ----------------------------------------------------------- winner selection

def test_select_prefers_lower_validation_score():
    a = make_report("fl", best_val=0.020, samples=500, entry_id="fl__a")
    b = make_report("fl", best_val=0.018, samples=900, entry_id="fl__b")
    winners = select_best_entries([a, b])
    assert winners[("fl", 6, False)]["entry_id"] == "fl__b"


def test_select_breaks_ties_on_samples_then_id():
    a = make_report("fl", best_val=0.02, samples=900, entry_id="fl__a")
    b = make_report("fl", best_val=0.02, samples=500, entry_id="fl__b")
    c = make_report("fl", best_val=0.02, samples=500, entry_id="fl__c")
    winners = select_best_entries([c, a, b])
    assert winners[("fl", 6, False)]["entry_id"] == "fl__b"


def test_select_handles_per_client_scores_and_fallback():
    # dict scores average; entries without a validation score fall back
    # to their test metric
    a = make_report("localised", best_val={"h1": 0.02, "h2": 0.04},
                    entry_id="loc__a")
    b = make_report("localised", best_val={"h1": 0.05, "h2": 0.05},
                    entry_id="loc__b")
    winners = select_best_entries([a, b])
    assert winners[("localised", 6, False)]["entry_id"] == "loc__a"
    c = make_report("centralised", mean_rmse=0.03, entry_id="cen__a")
    winners = select_best_entries([c])
    assert winners[("centralised", 6, False)]["entry_id"] == "cen__a"


def test_select_keeps_variants_apart():
    a = make_report("fl", k=6, best_val=0.02, entry_id="fl__k6")
    b = make_report("fl", k=12, best_val=0.01, entry_id="fl__k12")
    winners = select_best_entries([a, b])
    assert len(winners) == 2


# ------------------------------------------------------------------ csv lines

def test_csv_header_is_stable():
    assert RESULTS_CSV_HEADER == \
        "scenario,variant,k,weather,mean_rmse,best_rmse,total_samples,seed"


def test_csv_lines_one_row_per_winner():
    reports = [
        make_report("localised", mean_rmse=0.0196, samples=71, seed=3),
        make_report("fl", mean_rmse=0.0187, best_val=0.021, samples=12, seed=3),
        make_report("fl", mean_rmse=0.0191, best_val=0.019, samples=14,
                    entry_id="fl__other", seed=3),
    ]
    lines = results_csv_lines(build_comparison(reports))
    assert lines[0] == RESULTS_CSV_HEADER
    assert len(lines) == 3  # header + one winner per scenario
    loc, fl = lines[1], lines[2]
    assert loc.startswith("localised,k6-w,6,false,0.0196,")
    # the sweep winner is the entry with the better validation score
    assert fl == "fl,k6-w,6,false,0.0191,0.0191,14,3"


def test_csv_scenario_order_is_canonical():
    reports = [make_report(s) for s in
               ("fl_hc_lft", "fl", "centralised", "localised")]
    lines = results_csv_lines(build_comparison(reports))
    names = [line.split(",")[0] for line in lines[1:]]
    assert names == ["centralised", "localised", "fl", "fl_hc_lft"]


# ----------------------------------------------------------------- comparison

def two_scenario_reports():
    return [
        make_report("localised", k=6, mean_rmse=0.0196, samples=710),
        make_report("localised", k=12, mean_rmse=0.0204, samples=730),
        make_report("fl", k=6, mean_rmse=0.0187, samples=56),
        make_report("fl", k=12, mean_rmse=0.0198, samples=64),
    ]


def test_comparison_rows_and_annotations():
    table = build_comparison(two_scenario_reports())
    assert table["variants"] == [(6, False), (12, False)]
    by_name = {row["scenario"]: row for row in table["rows"]}
    loc, fl = by_name["localised"], by_name["fl"]
    assert loc["rmse_mean"] == pytest.approx(0.02)
    assert fl["rmse_best"] == 0.0187
    assert fl["rmse_best_variant"] == 0
    assert fl["samples_best"] == 56
    assert fl["rmse_mean_vs_localised"] == pytest.approx(
        pct_difference(fl["rmse_mean"], 0.02))
    assert fl["samples_mean_vs_localised"] == pytest.approx(720 / 60)
    assert loc["samples_mean_vs_localised"] == 1.0


def test_an_unusual_k_sorts_after_the_canonical_variants():
    variants = [(8, False), (8, True), *VARIANT_ORDER]
    table = build_comparison([make_report("fl", k=k, weather=w)
                              for k, w in variants])
    assert table["variants"] == [*VARIANT_ORDER, (8, True), (8, False)]
    lines = results_csv_lines(table)
    assert [line.split(",")[1] for line in lines[1:]] == [
        "k6+w", "k12+w", "k24+w", "k6-w", "k12-w", "k24-w", "k8+w", "k8-w"]
    header = render_tables(table).splitlines()[1].split()
    assert header[-4:] == ["k8+w", "k8-w", "mean", "best"]


def test_verify_comparison_catches_tampering():
    table = build_comparison(two_scenario_reports())
    verify_comparison(table)  # sane table passes
    table["rows"][0]["rmse_mean"] += 1e-6
    with pytest.raises(ValidationError):
        verify_comparison(table)


@pytest.mark.parametrize("key,delta", [
    ("rmse_best", 1e-6), ("samples_mean", 1.0), ("samples_best", 1)])
def test_verify_comparison_checks_both_tables(key, delta):
    table = build_comparison(two_scenario_reports())
    table["rows"][1][key] += delta
    with pytest.raises(ValidationError, match=f"inconsistent {key.split('_')[0]} row for fl"):
        verify_comparison(table)


def test_render_tables_marks_bests_and_baseline():
    text = render_tables(build_comparison(two_scenario_reports()))
    assert "Localised" in text and "FL" in text
    assert "k6-w" in text and "k12-w" in text
    assert "0.0187*" in text        # row-best RMSE cell
    assert "56*" in text            # row-best sample cell
    assert "(12.0x)" in text        # savings vs localised
    assert "(x)" not in text
    # localised row itself carries no annotation against itself
    loc_line = next(line for line in text.splitlines()
                    if line.startswith("Localised") and "." in line)
    assert "%" not in loc_line


def test_missing_variants_render_as_dashes():
    reports = [
        make_report("localised", k=6, mean_rmse=0.02, samples=700),
        make_report("fl", k=6, mean_rmse=0.019, samples=60),
        make_report("fl", k=12, mean_rmse=0.021, samples=80),
    ]
    table = build_comparison(reports)
    loc = next(r for r in table["rows"] if r["scenario"] == "localised")
    assert loc["rmse"] == [0.02, None]
    text = render_tables(table)
    assert "-" in text
    verify_comparison(table)


# -------------------------------------------------------------------- emitted

def test_emit_report_writes_the_three_files(tmp_path):
    payload = emit_report(two_scenario_reports(), tmp_path,
                          run_meta={"seed": 11, "run_id": "abc"})
    assert (tmp_path / "results.json").exists()
    assert (tmp_path / "results.csv").exists()
    assert (tmp_path / "tables.txt").exists()
    on_disk = json.loads((tmp_path / "results.json").read_text())
    assert on_disk == payload
    assert on_disk["run_id"] == "abc"
    ids = [e["entry_id"] for e in on_disk["entries"]]
    assert ids == sorted(ids)
    csv = (tmp_path / "results.csv").read_text().splitlines()
    assert csv[0] == RESULTS_CSV_HEADER
    assert len(csv) == 5


def test_emit_report_is_deterministic(tmp_path):
    emit_report(two_scenario_reports(), tmp_path / "a", run_meta={"seed": 1})
    emit_report(two_scenario_reports(), tmp_path / "b", run_meta={"seed": 1})
    for name in ("results.json", "results.csv", "tables.txt"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_emit_report_with_no_entries(tmp_path):
    payload = emit_report([], tmp_path)
    assert payload == {"entries": []}
    assert (tmp_path / "results.csv").read_text() == RESULTS_CSV_HEADER + "\n"


def test_emit_report_single_entry_mean_equals_best(tmp_path):
    emit_report([make_report("fl", mean_rmse=0.025, samples=40)], tmp_path)
    table_text = (tmp_path / "tables.txt").read_text()
    line = next(l for l in table_text.splitlines() if l.startswith("FL"))
    assert line.count("0.0250") == 3  # cell, mean, best

    on_disk = json.loads((tmp_path / "results.json").read_text())
    assert len(on_disk["entries"]) == 1


def test_emit_report_refuses_nan(tmp_path):
    bad = make_report("fl", mean_rmse=float("nan"))
    with pytest.raises(ValueError):
        emit_report([bad], tmp_path)
