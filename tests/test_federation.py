"""Training regimes: aggregation math, early stopping, cross-regime
consistency and the memo shared by related entries, on a small synthetic
population."""

import json
from dataclasses import replace

import numpy as np
import pytest

from conftest import small_config
from fedcast.data import household_datasets, prepare_datasets
from fedcast.data.sequences import SequenceSet
from fedcast.errors import NumericalError, ValidationError
from fedcast.federation import recount_samples, run_scenario, scenarios, training
from fedcast.federation.scenarios import (
    _init_flat,
    fedavg_aggregate,
    fedavg_round,
    sample_clients,
)
from fedcast.federation.training import EarlyStopper, Session, fit_epochs
from fedcast.nn import init_model
from fedcast.seeding import ROUND, TRAIN, key_int, stream
from nn_oracle import train_serially


# ---------------------------------------------------------------- aggregation

def test_aggregate_is_the_weighted_coordinate_mean(rng):
    updates = [(int(n), rng.normal(size=7)) for n in rng.integers(1, 50, size=5)]
    total = sum(n for n, _ in updates)
    expected = sum((n / total) * w for n, w in updates)
    got = fedavg_aggregate(updates)
    np.testing.assert_allclose(got, expected, rtol=1e-12)


def test_aggregate_scalar_example():
    got = fedavg_aggregate([(1, np.array([0.0])), (3, np.array([4.0]))])
    assert got[0] == pytest.approx(3.0)


def test_aggregate_single_client_is_identity():
    w = np.array([1.5, -2.5, 0.25])
    out = fedavg_aggregate([(17, w)])
    assert np.array_equal(out, w)
    assert out is not w  # caller keeps ownership


def test_aggregate_identical_updates_is_exact():
    # irrational-ish coordinates: a naive weighted sum would round
    w = np.array([1 / 3, np.pi, np.sqrt(2)])
    out = fedavg_aggregate([(1, w.copy()), (7, w.copy()), (2, w.copy())])
    assert np.array_equal(out, w)


def test_aggregate_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        fedavg_aggregate([])
    with pytest.raises(ValidationError):
        fedavg_aggregate([(0, np.zeros(3))])
    with pytest.raises(ValidationError):
        fedavg_aggregate([(1, np.zeros(3)), (1, np.zeros(4))])


# ------------------------------------------------------------ client sampling

def test_sample_size_is_rounded_fraction():
    ids = [f"h{i:03d}" for i in range(100)]
    gen = np.random.default_rng(0)
    assert len(sample_clients(ids, 0.1, gen)) == 10
    assert len(sample_clients(ids, 0.25, gen)) == 25
    # rounding, not flooring
    assert len(sample_clients(ids[:6], 0.25, gen)) == 2
    # never empty
    assert len(sample_clients(ids[:3], 0.01, gen)) == 1
    assert sample_clients(["only"], 1.0, gen) == ["only"]


def test_sampling_is_sorted_and_without_replacement():
    ids = [f"h{i}" for i in range(20)]
    for trial in range(10):
        picked = sample_clients(ids, 0.5, np.random.default_rng(trial))
        assert picked == sorted(picked)
        assert len(set(picked)) == len(picked)
        assert set(picked) <= set(ids)


def test_sampling_ignores_input_order():
    ids = [f"h{i}" for i in range(9)]
    a = sample_clients(ids, 0.4, np.random.default_rng(5))
    b = sample_clients(ids[::-1], 0.4, np.random.default_rng(5))
    assert a == b


# ------------------------------------------------------------- early stopping

def test_stopper_counts_the_starting_point():
    stopper = EarlyStopper(patience=2)
    p0 = np.array([1.0, 2.0])
    assert stopper.update(0.5, p0) is True
    assert stopper.best_step == 0
    assert stopper.update(0.6, np.array([9.0, 9.0])) is False
    assert stopper.update(0.55, np.array([8.0, 8.0])) is False
    assert stopper.should_stop
    # snapshot is a bitwise copy, immune to later mutation
    p0[:] = 0.0
    assert np.array_equal(stopper.best_params, [1.0, 2.0])


def test_stopper_ties_do_not_count_as_improvement():
    stopper = EarlyStopper(patience=1)
    stopper.update(0.5, np.zeros(1))
    stopper.update(0.5, np.ones(1))
    assert stopper.should_stop
    assert stopper.best_params[0] == 0.0


def test_stopper_improvement_resets_patience():
    stopper = EarlyStopper(patience=2)
    for metric in (1.0, 1.1, 0.9, 1.2):
        stopper.update(metric, np.zeros(1))
    assert not stopper.should_stop
    assert stopper.best_metric == 0.9
    assert stopper.best_step == 2


def test_zero_epochs_is_a_no_op(tiny_datasets):
    ds = tiny_datasets[0]
    cfg = small_config("localised")
    before = init_model(ds.feature_dim, np.random.default_rng(3))
    [after] = fit_epochs(
        [Session(before, ds.train.windows, ds.train.labels,
                 np.random.default_rng(0))],
        0, cfg.batch_size, cfg.learning_rate)
    assert np.array_equal(after.params, before)
    assert after.records == [] and after.samples == 0


# --------------------------------------------------------- regime consistency

def test_centralised_on_one_household_equals_localised(tiny_datasets):
    # with a single client the pooled and the per-client regimes describe
    # the same computation, down to the RNG streams
    one = [tiny_datasets[0]]
    cen_report, cen_models = run_scenario(one, small_config("centralised"))
    loc_report, loc_models = run_scenario(one, small_config("localised"))
    hid = one[0].household_id
    assert np.array_equal(cen_models["global"], loc_models[hid])
    assert cen_report["client_rmse"] == loc_report["client_rmse"]
    assert cen_report["mean_rmse"] == pytest.approx(loc_report["mean_rmse"], rel=1e-12)
    assert cen_report["total_samples"] == loc_report["total_samples"]


def test_localised_clients_do_not_interact(tiny_datasets):
    pair = tiny_datasets[:2]
    _, both = run_scenario(pair, small_config("localised"))
    _, alone = run_scenario(pair[:1], small_config("localised"))
    hid = pair[0].household_id
    assert np.array_equal(both[hid], alone[hid])
    # list order is irrelevant as well
    _, swapped = run_scenario(pair[::-1], small_config("localised"))
    for h in both:
        assert np.array_equal(both[h], swapped[h])


def test_single_client_round_is_plain_local_training(tiny_datasets):
    ds = tiny_datasets[0]
    cfg = small_config("fl", client_fraction=1.0)
    start = _init_flat(cfg, ds.feature_dim)
    new_params, stats, samples = fedavg_round(start, [ds], cfg, round_index=2)
    # replay the client's session by hand
    gen = stream(cfg.seed, TRAIN, key_int(ds.household_id), ROUND, 2)
    params, records = train_serially(
        Session(start, ds.train.windows, ds.train.labels, gen),
        cfg.local_epochs, cfg.batch_size, cfg.learning_rate)
    assert np.array_equal(new_params, params)
    assert stats[ds.household_id] == records[-1]["train_loss"]
    assert samples == sum(r["samples"] for r in records) \
        == ds.n_train * cfg.local_epochs


def test_fl_validates_each_global_model_once(tiny_datasets, monkeypatch):
    # every client's validation set once per global model (the initial one
    # and one per round), then every client's test set once
    calls = []
    for module in (scenarios, training):
        real = module.evaluate_rmse
        monkeypatch.setattr(module, "evaluate_rmse",
                            lambda p, s, real=real: calls.append(s) or real(p, s))
    cfg = small_config("fl", client_fraction=0.5, fl_rounds_cap=3)
    report, _ = run_scenario(tiny_datasets, cfg)
    n = len(tiny_datasets)
    assert sum(any(s is ds.val for ds in tiny_datasets) for s in calls) \
        == n * (report["rounds_run"] + 1)
    assert sum(any(s is ds.test for ds in tiny_datasets) for s in calls) == n
    assert len(calls) == n * (report["rounds_run"] + 2)


def test_full_participation_when_fraction_is_one(tiny_datasets):
    cfg = small_config("fl", client_fraction=1.0, fl_rounds_cap=2)
    report, _ = run_scenario(tiny_datasets, cfg)
    all_ids = sorted(ds.household_id for ds in tiny_datasets)
    for rec in report["rounds"]:
        assert rec["participants"] == all_ids


def test_fl_run_shapes_and_bookkeeping(tiny_datasets):
    cfg = small_config("fl", client_fraction=0.5, fl_rounds_cap=3)
    report, models = run_scenario(tiny_datasets, cfg)
    assert set(models) == {"global"}
    assert report["rounds_run"] <= cfg.fl_rounds_cap
    assert len(report["rounds"]) == report["rounds_run"]
    for rec in report["rounds"]:
        assert len(rec["participants"]) == 2  # 0.5 of 4
        assert rec["samples"] == sum(
            ds.n_train * cfg.local_epochs for ds in tiny_datasets
            if ds.household_id in rec["participants"])
    assert report["best_val_rmse"] <= report["initial_val_rmse"]
    assert sorted(report["client_rmse"]) == sorted(
        ds.household_id for ds in tiny_datasets)


def test_clustered_run_with_huge_threshold_is_one_cluster(tiny_datasets):
    cfg = small_config("fl_hc", hc_threshold=1e9, hc_linkage="average",
                       hc_rounds=1)
    report, models = run_scenario(tiny_datasets, cfg)
    assert report["n_clusters"] == 1
    assert set(models) == {"cluster0"}
    assert set(report["cluster_assignment"].values()) == {0}


def test_clustered_run_with_tiny_threshold_is_all_singletons(tiny_datasets):
    cfg = small_config("fl_hc", hc_threshold=1e-12, hc_linkage="average",
                       hc_rounds=1)
    report, models = run_scenario(tiny_datasets, cfg)
    assert report["n_clusters"] == len(tiny_datasets)
    assert len(models) == len(tiny_datasets)
    # every cluster then trains independently on its lone member
    for info in report["clusters"]:
        assert len(info["members"]) == 1


def test_cluster_assignment_covers_every_client(tiny_datasets):
    cfg = small_config("fl_hc", hc_threshold=2.0, hc_linkage="ward",
                       hc_rounds=2)
    report, _ = run_scenario(tiny_datasets, cfg)
    assert sorted(report["cluster_assignment"]) == sorted(
        ds.household_id for ds in tiny_datasets)
    members = [h for info in report["clusters"] for h in info["members"]]
    assert sorted(members) == sorted(report["cluster_assignment"])


def test_the_fl_hc_warm_up_is_plain_federated_averaging(tiny_datasets):
    # fl and the warm-up draw the same INIT, SELECT and TRAIN streams, so fl's
    # first hc_rounds rounds are phase 1 as long as fl does not stop early
    hc_rounds = 2
    shared = {"client_fraction": 0.1, "local_epochs": 3}
    fl, _ = run_scenario(tiny_datasets, small_config(
        "fl", fl_rounds_cap=hc_rounds, patience=hc_rounds, **shared))
    hc, _ = run_scenario(tiny_datasets, small_config(
        "fl_hc", hc_threshold=2.0, hc_linkage="ward", hc_rounds=hc_rounds,
        **shared))
    phase_1 = [{key: v for key, v in rec.items() if key != "phase"}
               for rec in hc["rounds"] if rec["phase"] == 1]
    assert len(phase_1) == hc_rounds
    assert fl["rounds"] == phase_1
    assert fl["initial_val_rmse"] == hc["initial_val_rmse"]


@pytest.mark.parametrize("failure", ["raises", "non-finite"])
def test_a_clustering_burst_failure_names_its_client(tiny_datasets, monkeypatch,
                                                     failure):
    # phase 1 trains one of the four clients per round, the burst all four;
    # the third client fails in the burst
    cfg = small_config("fl_hc", hc_threshold=2.0, hc_linkage="ward",
                       hc_rounds=1)
    hid = sorted(ds.household_id for ds in tiny_datasets)[2]
    real = scenarios.fit_epochs

    def burst_fails(sessions, *args, **kwargs):
        if len(sessions) < len(tiny_datasets):
            return real(sessions, *args, **kwargs)
        if failure == "raises":
            raise NumericalError("non-finite gradient at parameter index 7",
                                 param_index=7, session=2)
        results = real(sessions, *args, **kwargs)
        params = results[2].params.copy()
        params[7] = np.inf
        results[2] = replace(results[2], params=params)
        return results

    monkeypatch.setattr(scenarios, "fit_epochs", burst_fails)
    with pytest.raises(NumericalError) as err:
        run_scenario(tiny_datasets, cfg)
    assert str(err.value) == {
        "raises": f"clustering burst: client {hid} failed: "
                  "non-finite gradient at parameter index 7",
        "non-finite": f"clustering burst: client {hid} returned non-finite "
                      "parameters (index 7)",
    }[failure]
    assert err.value.param_index == 7


def test_fine_tuning_never_worsens_validation(tiny_datasets):
    cfg = small_config("fl_lft", client_fraction=0.5)
    report, models = run_scenario(tiny_datasets, cfg)
    for hid, after in report["val_rmse_fine_tuned"].items():
        assert after <= report["val_rmse_base"][hid]
    assert set(models) == set(report["val_rmse_fine_tuned"])
    assert report["base"]["scenario"] == "fl"


def test_fine_tuning_respects_the_epoch_cap(tiny_datasets):
    cfg = small_config("fl_hc_lft", hc_threshold=2.0, hc_linkage="ward",
                       hc_rounds=1, lft_epochs_cap=2, patience=10)
    report, _ = run_scenario(tiny_datasets, cfg)
    per_client = {}
    for rec in report["rounds"]:
        assert rec["phase"] == "fine_tune"
        per_client.setdefault(rec["client"], []).append(rec["epoch"])
    for epochs in per_client.values():
        assert len(epochs) <= 2


@pytest.mark.parametrize("kind,extra", [
    ("centralised", {}),
    ("localised", {}),
    ("fl", {"client_fraction": 0.5}),
    ("fl_hc", {"hc_threshold": 2.0, "hc_linkage": "ward", "hc_rounds": 1}),
    ("fl_lft", {"client_fraction": 0.5}),
    ("fl_hc_lft", {"hc_threshold": 2.0, "hc_linkage": "ward", "hc_rounds": 1}),
])
def test_sample_totals_are_recomputable(tiny_datasets, kind, extra):
    report, _ = run_scenario(tiny_datasets, small_config(kind, **extra))
    assert recount_samples(report) == report["total_samples"]
    assert report["total_samples"] > 0


def test_reports_reproduce_bitwise(tiny_datasets):
    cfg = small_config("fl", client_fraction=0.5)
    first, models_a = run_scenario(tiny_datasets, cfg)
    second, models_b = run_scenario(tiny_datasets, cfg)
    assert first == second
    assert np.array_equal(models_a["global"], models_b["global"])


def test_different_seeds_differ(tiny_datasets):
    _, a = run_scenario(tiny_datasets, small_config("localised"))
    _, b = run_scenario(tiny_datasets, small_config("localised", seed=12))
    hid = tiny_datasets[0].household_id
    assert not np.array_equal(a[hid], b[hid])


def test_variant_mismatch_is_rejected(tiny_datasets):
    cfg = small_config("localised", k=12)
    with pytest.raises(ValidationError):
        run_scenario(tiny_datasets, cfg)


def test_an_empty_validation_split_is_rejected(tiny_datasets):
    first = tiny_datasets[0]
    empty = SequenceSet(first.val.windows[:0], first.val.labels[:0])
    datasets = [replace(first, val=empty)] + tiny_datasets[1:]
    with pytest.raises(ValidationError, match=f"{first.household_id}: the val split"):
        run_scenario(datasets, small_config("localised"))


def test_duplicated_training_data_matches_single_client(tiny_datasets):
    # one household's data under two different ids: with full batches every
    # gradient is the mean over duplicated samples, so the pooled model must
    # track the single-household model closely; samples count double
    import dataclasses
    ds = tiny_datasets[0]
    twin = dataclasses.replace(ds, household_id="zz_twin")
    cfg = small_config("centralised", batch_size=4096, epochs_cap=2,
                       patience=10)
    single, _ = run_scenario([ds], cfg)
    doubled, _ = run_scenario([ds, twin], cfg)
    assert doubled["total_samples"] == 2 * single["total_samples"]
    assert doubled["pooled_rmse"] == pytest.approx(single["pooled_rmse"], rel=1e-9)


# ---------------------------------------------------- memo of related entries

@pytest.fixture(scope="module")
def variants(tiny_population, tiny_prepared):
    """Client datasets per (K, weather) variant of the tiny population."""
    k4 = prepare_datasets(tiny_population.households, None, [4], with_weather=False)
    return {(6, False): household_datasets(tiny_prepared, 6, False),
            (6, True): household_datasets(tiny_prepared, 6, True),
            (4, False): household_datasets(k4, 4, False)}


def _federated_fits(variants, monkeypatch, cfg, memo):
    """Client trainings (federated rounds and the burst) run for cfg.

    Each is a session without a validation set; fine-tuning's sessions
    validate and are not counted.
    """
    calls = []
    real = scenarios.fit_epochs

    def counted(sessions, *args, **kwargs):
        calls.extend(1 for s in sessions if s.val is None)
        return real(sessions, *args, **kwargs)
    monkeypatch.setattr(scenarios, "fit_epochs", counted)
    run_scenario(variants[cfg.k, cfg.with_weather], cfg, memo)
    monkeypatch.setattr(scenarios, "fit_epochs", real)
    return len(calls)


FL = small_config("fl", client_fraction=0.5, local_epochs=1)
FL_HC = small_config("fl_hc", hc_threshold=2.0, hc_linkage="ward", hc_rounds=1)


def _after(variants, monkeypatch, first, second):
    """Trainings of `second` after `first` filled the memo, and on its own."""
    memo = {}
    run_scenario(variants[first.k, first.with_weather], first, memo)
    return (_federated_fits(variants, monkeypatch, second, memo),
            _federated_fits(variants, monkeypatch, second, {}))


def test_memo_hits_skip_shared_training(variants, monkeypatch):
    shared, alone = _after(variants, monkeypatch, FL, replace(FL, kind="fl_lft"))
    assert shared == 0 < alone
    shared, alone = _after(variants, monkeypatch, FL_HC,
                           replace(FL_HC, kind="fl_hc_lft"))
    assert shared == 0 < alone
    # another threshold or linkage reuses the warm-up and reruns phase 3
    shared, alone = _after(variants, monkeypatch, FL_HC,
                           replace(FL_HC, hc_threshold=1e9, hc_linkage="single"))
    assert 0 < shared < alone


@pytest.mark.parametrize("change", [
    {"seed": 12}, {"batch_size": 32}, {"learning_rate": 0.002},
    {"local_epochs": 2}, {"patience": 3}, {"fl_rounds_cap": 2},
    {"k": 4}, {"with_weather": True},
])
def test_fl_base_memo_misses_on_any_changed_field(variants, monkeypatch, change):
    second = replace(FL, kind="fl_lft", **change)
    shared, alone = _after(variants, monkeypatch, FL, second)
    assert shared == alone > 0


@pytest.mark.parametrize("change", [
    {"seed": 12}, {"hc_rounds": 2}, {"batch_size": 32},
    {"learning_rate": 0.002}, {"k": 4}, {"with_weather": True},
])
def test_warmup_memo_misses_on_any_field_it_reads(variants, monkeypatch, change):
    second = replace(FL_HC, hc_threshold=1e9, **change)
    shared, alone = _after(variants, monkeypatch, FL_HC, second)
    assert shared == alone > 0


@pytest.mark.parametrize("change", [{"patience": 3}, {"flhc_rounds_cap": 5}])
def test_fl_hc_base_memo_misses_on_phase_3_fields(variants, monkeypatch, change):
    # the warm-up may still hit; the clusters must train again
    second = replace(FL_HC, kind="fl_hc_lft", **change)
    shared, _ = _after(variants, monkeypatch, FL_HC, second)
    assert shared > 0


@pytest.mark.parametrize("first,second", [
    (FL, FL),
    (FL, replace(FL, kind="fl_lft")),
    (FL_HC, FL_HC),
    (FL_HC, replace(FL_HC, kind="fl_hc_lft")),
    (FL_HC, replace(FL_HC, hc_threshold=1e9)),
])
def test_memo_hits_are_private_copies(tiny_datasets, first, second):
    fresh_report, fresh_models = run_scenario(tiny_datasets, second)
    memo = {}
    for cfg in (first, second, second):
        report, models = run_scenario(tiny_datasets, cfg, memo)
        if cfg == second:
            assert report == fresh_report
            assert models.keys() == fresh_models.keys()
            for name, vec in models.items():
                assert np.array_equal(vec, fresh_models[name])
        # vandalise everything the caller got back
        report["rounds"][0]["samples"] = -1
        report["rounds"].clear()
        report.get("base", {}).clear()
        for vec in models.values():
            vec[:] = np.nan


def test_memo_hit_still_charges_its_base(tiny_datasets):
    memo = {}
    fl_report, _ = run_scenario(tiny_datasets, FL, memo)
    lft_cfg = replace(FL, kind="fl_lft")
    shared, _ = run_scenario(tiny_datasets, lft_cfg, memo)
    alone, _ = run_scenario(tiny_datasets, lft_cfg)
    assert shared == alone
    assert shared["base_samples"] == fl_report["total_samples"] > 0
    assert recount_samples(shared) == shared["total_samples"]
    assert shared["total_samples"] == shared["base_samples"] + sum(
        rec["samples"] for rec in shared["rounds"])


# Clustered entries sharing FL_HC's warm-up.  On the tiny population ward at
# t=0.03 and single at 0.05 give one partition, {h000, h003} {h001} {h002};
# ward at 0.1 gives {h000, h002, h003} {h001}, sharing cluster 1 with it;
# FL_HC's t=2.0 gives one cluster.  Patience 1 and cap 6 change how many
# rounds some of those clusters run.
THREE = replace(FL_HC, hc_threshold=0.05, hc_linkage="single")
HC_GROUP = [
    THREE,
    replace(FL_HC, hc_threshold=0.03),
    replace(FL_HC, hc_threshold=0.1),
    FL_HC,
    replace(THREE, patience=1),
    replace(THREE, flhc_rounds_cap=6),
    replace(THREE, kind="fl_hc_lft"),
    replace(FL_HC, kind="fl_hc_lft", hc_threshold=0.1, patience=1),
]


def _as_bytes(report, models):
    return (json.dumps(report, sort_keys=True),
            {name: vec.tobytes() for name, vec in models.items()})


def test_each_clustered_entry_sharing_a_memo_matches_it_run_alone(variants):
    datasets = variants[FL_HC.k, FL_HC.with_weather]
    memo = {}
    for cfg in HC_GROUP:
        assert _as_bytes(*run_scenario(datasets, cfg, memo)) == \
            _as_bytes(*run_scenario(datasets, cfg))
