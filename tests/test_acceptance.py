"""Acceptance suite: the numbered exit criteria, one test per criterion.

Each test prints a PASS/FAIL line with the measured numbers (visible with
-s, and in the captured output when a criterion fails).  Criterion 6c is
red at this population scale; the test states the claim faithfully and the
docstring on test_criterion_6c explains what was measured.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from fedcast.cli import main
from fedcast.clustering import agglomerate, cluster_quality, pairwise_euclidean
from fedcast.data import household_datasets, prepare_datasets
from fedcast.data.normalize import normalize
from fedcast.data.synthetic import generate_synthetic_households
from fedcast.federation import ScenarioConfig, recount_samples, run_scenario
from fedcast.federation.scenarios import fedavg_aggregate
from fedcast.nn import compute_gradients, forward_batch, init_model
from fedcast.reporting import pct_difference, savings_factor
from clustering_oracle import agglomerate_bruteforce, n_clusters

DESK_SEED = 11


def _line(criterion: str, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")


# criterion 1 -------------------------------------------------------------

@pytest.mark.slow
def test_criterion_1_gradients_match_finite_differences():
    """Every gradient coordinate of 20 random instances agrees with central
    finite differences at the production model width (hidden 20), the only
    finite-difference oracle at that width.

    The sweep is ~218k sequential tiny forward passes, so its duration
    tracks the host's per-call speed, not the gradient's correctness; the
    elapsed time is reported, not bounded.
    """
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    h = 1e-5
    worst = 0.0
    for dim in (5, 7):
        for _ in range(10):
            vec = init_model(dim, rng)
            batch = int(rng.integers(2, 5))
            windows = rng.normal(0.0, 1.0, size=(batch, 6, dim))
            targets = rng.normal(0.0, 1.0, size=batch)
            grads, _ = compute_gradients(windows, targets, vec[None])
            grad = grads[0]

            def loss_at(vec):
                preds = forward_batch(windows, vec)
                diff = preds - targets
                return float(np.mean(diff * diff))

            for i in range(len(vec)):
                keep = vec[i]
                vec[i] = keep + h
                up = loss_at(vec)
                vec[i] = keep - h
                down = loss_at(vec)
                vec[i] = keep
                fd = (up - down) / (2.0 * h)
                err = abs(grad[i] - fd)
                tol = max(1e-8, 1e-4 * max(abs(grad[i]), abs(fd)))
                worst = max(worst, err / tol)
                assert err <= tol, (
                    f"dim {dim} coord {i}: analytic {grad[i]!r} vs fd {fd!r}")
    elapsed = time.perf_counter() - started
    _line("1", True, f"20 instances, worst error at {worst:.3f} of tolerance, "
          f"{elapsed:.1f}s")


# criterion 2 -------------------------------------------------------------

def test_criterion_2_fedavg_matches_weighted_mean_oracle():
    """Aggregation equals a plain-python weighted mean on 50 random
    instances; a single client comes back exactly."""
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(50):
        m = int(rng.integers(2, 11))
        length = int(rng.integers(1, 51))
        updates = [(int(rng.integers(1, 1000)), rng.normal(size=length))
                   for _ in range(m)]
        got = fedavg_aggregate(updates)
        total = sum(n for n, _ in updates)
        for i in range(length):
            expected = math.fsum(n * float(w[i]) for n, w in updates) / total
            worst = max(worst, abs(float(got[i]) - expected))
        assert worst <= 1e-12, f"coordinate off by {worst}"
    single = rng.normal(size=9)
    assert np.array_equal(fedavg_aggregate([(7, single)]), single)
    _line("2", True, f"50 instances within 1e-12 (worst {worst:.2e}); "
          "single client exact")


# criterion 3 -------------------------------------------------------------

def test_criterion_3_clustering_matches_bruteforce_oracle():
    """All four linkages agree exactly with the from-scratch reference on
    200 random instances, plus both threshold extremes."""
    linkages = ("single", "complete", "average", "ward")
    for seed in range(200):
        gen = np.random.default_rng(seed)
        n = 2 + seed % 11
        vectors = gen.normal(0.0, 1.0, size=(n, 3))
        threshold = float(gen.uniform(0.3, 5.0))
        distances = pairwise_euclidean(vectors)
        for linkage in linkages:
            fast = agglomerate(distances, linkage, threshold)
            slow = agglomerate_bruteforce(vectors, linkage, threshold)
            assert fast.labels == slow, (seed, linkage)
        if seed % 40 == 0:
            off_diag = distances[np.triu_indices(n, k=1)]
            for linkage in linkages:
                assert n_clusters(agglomerate(distances, linkage, float("inf"))) == 1
                tiny = float(off_diag.min()) * 0.5
                if tiny > 0:
                    assert n_clusters(agglomerate(distances, linkage, tiny)) == n
    _line("3", True, "200 instances x 4 linkages exact; threshold extremes hold")


# criterion 4 -------------------------------------------------------------

def test_criterion_4_reporting_arithmetic_anchors():
    """The published-table arithmetic: a 71.0M-vs-5.6M sample contrast is a
    12.7x saving, and 0.0187 vs a 0.0196 baseline is a +4.6% improvement."""
    saving = savings_factor(71.0e6, 5.6e6)
    improvement = pct_difference(0.0187, 0.0196)
    ok_saving = abs(saving - 12.7) <= 0.05
    ok_improvement = abs(improvement - 4.6) <= 0.5
    _line("4", ok_saving and ok_improvement,
          f"savings 71.0M/5.6M = {saving:.4f}x; improvement {improvement:+.2f}%")
    assert ok_saving, saving
    assert ok_improvement, improvement


# criterion 5 -------------------------------------------------------------

def test_criterion_5_pipeline_counts_on_180_days():
    """A 180-day hourly fixture splits 3024/864/432 and yields rows-K
    windows per split, with strictly ordered hours and every label inside
    its own split."""
    pop = generate_synthetic_households(3, archetypes=3, noise=0.05,
                                        seed=5, days=180)
    prep = prepare_datasets(pop.households, None, [6, 12, 24], with_weather=False)
    energy = {}
    for hid in prep.household_ids:
        house = prep.households[hid]
        assert house.n_rows == 4320
        assert house.train_end == 3024
        assert house.val_end == 3024 + 864
        # rows are strictly increasing hours, so the splits cut at train_end
        # and val_end follow one another in time
        assert np.all(np.diff(house.hours) > 0)
        energy[hid] = normalize(house.matrices["base"],
                                prep.normalizers["base"])[:, 0]
    for k in (6, 12, 24):
        for ds in household_datasets(prep, k, False):
            assert len(ds.train) == 3024 - k
            assert len(ds.val) == 864 - k
            assert len(ds.test) == 432 - k
            rows = energy[ds.household_id]
            assert np.array_equal(ds.train.labels, rows[k:3024])
            assert np.array_equal(ds.val.labels, rows[3024 + k:3024 + 864])
            assert np.array_equal(ds.test.labels, rows[3024 + 864 + k:])
    _line("5", True, "3 households: splits 3024/864/432, "
          "windows rows-K for K in {6,12,24}, splits ordered")


# criterion 6 -------------------------------------------------------------
# One 20-household population, three behaviour archetypes, 90 days, K=12.
# The flat-federation run is set to 10% of clients per round and 3 local
# epochs; the clustered kinds take neither key and run every phase at these.

@pytest.fixture(scope="module")
def desk_runs():
    pop = generate_synthetic_households(20, archetypes=3, noise=0.05,
                                        seed=DESK_SEED, days=90)
    prep = prepare_datasets(pop.households, pop.weather, [12], with_weather=False)
    datasets = household_datasets(prep, 12, False)
    started = time.time()
    fl_cfg = ScenarioConfig(kind="fl", k=12, with_weather=False,
                            seed=DESK_SEED, client_fraction=0.1, local_epochs=3)
    fl_report, _ = run_scenario(datasets, fl_cfg)
    lft_cfg = ScenarioConfig(kind="fl_hc_lft", k=12, with_weather=False,
                             seed=DESK_SEED, hc_threshold=1.4,
                             hc_linkage="ward", hc_rounds=5)
    lft_report, _ = run_scenario(datasets, lft_cfg)
    elapsed = time.time() - started
    assert elapsed < 1800.0, f"desk-scale budget blown: {elapsed:.0f}s"
    return pop, fl_report, lft_report


@pytest.mark.slow
def test_criterion_6a_clustered_fine_tuned_beats_flat_federation(desk_runs):
    _, fl_report, lft_report = desk_runs
    ok = lft_report["mean_rmse"] <= fl_report["mean_rmse"]
    _line("6a", ok, f"clustered+fine-tuned mean RMSE {lft_report['mean_rmse']:.4f} "
          f"<= flat federation {fl_report['mean_rmse']:.4f}")
    assert ok


@pytest.mark.slow
def test_criterion_6b_fine_tuning_never_worsens_validation(desk_runs):
    _, _, lft_report = desk_runs
    before = lft_report["val_rmse_base"]
    after = lft_report["val_rmse_fine_tuned"]
    ok = all(after[h] <= before[h] for h in before)
    worst = max(after[h] - before[h] for h in before)
    _line("6b", ok, f"20 clients, worst validation change {worst:+.2e}")
    assert ok


@pytest.mark.slow
def test_criterion_6c_clustered_federation_halves_sample_cost(desk_runs):
    """Red at this scale, and left red deliberately.

    The claim: clustering should make federated training at least twice as
    cheap in optimizer-visited samples.  Measured honestly it does not hold
    for 20 households.  One client-round costs 4,500 samples (1,500 training
    windows x 3 epochs).  The flat run samples 2 clients a round and
    early-stops after 72 rounds (648,000 samples; half is 324,000).  The
    clustered run pays 5 warm-up rounds plus a full-participation burst
    (135,000) and then trains 3 clusters whose rounds sample
    max(1, round(0.1 * m)) = 1 client each, so three cluster round-tiers
    cost 1.5x a flat round.  The floors are not the cause: if every cluster
    stopped at patience 10 (10-11 rounds) the total would be
    135,000 + 3 x (10 to 11) x 4,500 = 270,000-283,500, below half the flat
    cost.  The cause is the measured cluster runs, 55-86 rounds each, as
    slow per-round single-client descent keeps producing small validation
    records; they put the total at 1,057,500.  On this fixture's own inputs
    (seed 11, noise 0.05) the ratio is 1,057,500 / 648,000 = 1.63, far from
    0.5.  More households do not close the gap: at 50 households (90 days,
    K=12, seed 11) the measured ratio rose to 2,929,500 / 1,642,500 = 1.78.
    """
    _, fl_report, lft_report = desk_runs
    hc_total = lft_report["base"]["total_samples"]
    fl_total = fl_report["total_samples"]
    ok = hc_total <= 0.5 * fl_total
    _line("6c", ok, f"clustered federation used {hc_total} samples vs "
          f"flat {fl_total} (bound {0.5 * fl_total:.0f})")
    assert ok, (f"clustered federation cost {hc_total} samples, "
                f"more than half the flat run's {fl_total}")


@pytest.mark.slow
def test_criterion_6d_clustering_recovers_archetypes(desk_runs):
    pop, _, lft_report = desk_runs
    assignment = lft_report["base"]["cluster_assignment"]
    ids = sorted(assignment)
    quality = cluster_quality([assignment[h] for h in ids],
                              [pop.archetype_of[h] for h in ids])
    ok = quality >= 0.9
    _line("6d", ok, f"pair agreement with the 3 archetypes: {quality:.4f}")
    assert ok


# criterion 7 -------------------------------------------------------------

def test_criterion_7_runs_are_byte_identical(tmp_path):
    """Two serial executions and a 4-worker execution of the same config
    produce byte-identical results.json."""
    root = tmp_path
    assert main(["synthesize", "--n", "4", "--days", "15", "--seed", "3",
                 "--out", str(root / "synth")]) == 0
    assert main(["prepare", "--meters", str(root / "synth" / "meters.csv"),
                 "--out", str(root / "cache"), "--k", "6",
                 "--weather-variant", "without"]) == 0
    config = {
        "data": "cache",
        "seed": 17,
        "k": 6,
        "weather": False,
        "scenarios": [
            {"kind": "centralised"},
            {"kind": "localised"},
            {"kind": "fl", "client_fraction": 0.5, "local_epochs": 1},
            {"kind": "fl_hc", "hc_threshold": 1.4, "hc_linkage": "ward",
             "hc_rounds": 2},
        ],
        "overrides": {"epochs_cap": 3, "fl_rounds_cap": 3,
                      "flhc_rounds_cap": 5, "lft_epochs_cap": 2,
                      "patience": 2},
    }
    (root / "config.json").write_text(json.dumps(config))
    blobs = []
    for out_name, jobs in (("runs_a", 1), ("runs_b", 1), ("runs_c", 4)):
        assert main(["run", "--config", str(root / "config.json"),
                     "--out", str(root / out_name), "--jobs", str(jobs)]) == 0
        run_dirs = list((root / out_name).iterdir())
        assert len(run_dirs) == 1
        blobs.append((run_dirs[0] / "results.json").read_bytes())
    ok = blobs[0] == blobs[1] == blobs[2]
    _line("7", ok, f"serial rerun and --jobs 4 all reproduce "
          f"{len(blobs[0])} bytes of results.json")
    assert ok


# criterion 8 -------------------------------------------------------------

@pytest.mark.slow
def test_criterion_8_sample_accounting_recomputes(desk_runs):
    """Counters recomputed from the round logs equal the live totals for
    every desk-scale scenario, including the nested base run."""
    _, fl_report, lft_report = desk_runs
    checks = {
        "flat federation": fl_report,
        "clustered base": lft_report["base"],
        "clustered + fine-tuned": lft_report,
    }
    for name, report in checks.items():
        assert recount_samples(report) == report["total_samples"], name
    _line("8", True, "round-log recounts equal live totals for "
          + ", ".join(checks))


# criterion 9 -------------------------------------------------------------

@pytest.mark.skipif("FEDCAST_LCL_METERS" not in os.environ,
                    reason="no external meter extract supplied")
def test_criterion_9_external_extract_ordering():
    """On a user-supplied meter extract the six regimes complete and the
    flat federated model ranks worst while the fine-tuned ones rank best."""
    meters = os.environ["FEDCAST_LCL_METERS"]
    from fedcast.data import ingest_meter_csv
    readings, _ = ingest_meter_csv(meters)
    prep = prepare_datasets(readings, None, [12], with_weather=False)
    datasets = household_datasets(prep, 12, False)
    kinds = ("centralised", "localised", "fl", "fl_hc", "fl_lft", "fl_hc_lft")
    hc = {"hc_threshold": 1.4, "hc_linkage": "ward", "hc_rounds": 5}
    means = {}
    for kind in kinds:
        extra = hc if kind in ("fl_hc", "fl_hc_lft") else {}
        cfg = ScenarioConfig(kind=kind, k=12, with_weather=False,
                             seed=DESK_SEED, **extra)
        report, _ = run_scenario(datasets, cfg)
        means[kind] = report["mean_rmse"]
    ranked = sorted(means, key=means.get)
    ok = ranked[-1] == "fl" and set(ranked[:2]) == {"fl_lft", "fl_hc_lft"}
    _line("9", ok, "; ".join(f"{k}={means[k]:.4f}" for k in ranked))
    assert ok, means
