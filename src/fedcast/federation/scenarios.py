"""The six training regimes and their run reports.

Every entry point returns (report, models): a JSON-ready report dict whose
"rounds" list carries one record per optimisation step (round, epoch, or
fine-tuning epoch) with its sample increment, and a dict of named flat
parameter vectors (the trained models).  Sample totals are recomputable from
the records alone; `recount_samples` does exactly that.

Regimes:
    centralised  one model on all households' pooled training data
    localised    one independent model per household
    fl           federated averaging over sampled clients
    fl_hc        federated averaging, then clustering of client updates,
                 then independent federated training per cluster
    fl_lft       fl followed by per-client fine-tuning of the global model
    fl_hc_lft    fl_hc followed by per-client fine-tuning of cluster models

All training goes through `training.fit_epochs`, which steps a list of
independent sessions in lockstep: the households of a localised run, the
clients of one federated round, the clustering burst, and the clients
being fine-tuned each form one list; centralised training is one session.

Entries of one sweep that train the same thing share a memo (a plain dict,
one per group from `group_entries`): an fl or fl_hc run is trained once and
reused as the base of the fine-tuning entries, and the fl_hc warm-up is
trained once for every threshold and linkage.  A hit returns exactly what a
fresh run would, and its samples are still charged to every entry using it.
"""

from __future__ import annotations

import copy
from dataclasses import replace

import numpy as np

from ..clustering import agglomerate, pairwise_euclidean
from ..data.sequences import SequenceSet
from ..errors import NumericalError, ValidationError
from ..nn import init_model, release_arena
from ..seeding import CLUSTERING, FINE_TUNE, INIT, ROUND, SELECT, TRAIN, key_int, stream
from .config import ScenarioConfig
from .training import (
    EarlyStopper,
    Session,
    evaluate_rmse,
    fit_epochs,
    predict,
    train_session,
)

__all__ = [
    "fedavg_aggregate",
    "fedavg_round",
    "fine_tune",
    "group_entries",
    "recount_samples",
    "run_fl",
    "run_flhc",
    "run_scenario",
    "sample_clients",
    "train_centralised",
    "train_localised",
]


def sample_clients(client_ids, fraction: float, gen: np.random.Generator) -> list:
    """Uniform sample without replacement of max(1, round(fraction*m)) ids."""
    ids = sorted(client_ids)
    if not ids:
        raise ValidationError("no clients to sample from")
    if not 0.0 < fraction <= 1.0:
        raise ValidationError("fraction must lie in (0, 1]")
    count = max(1, round(fraction * len(ids)))
    picked = gen.permutation(len(ids))[:count]
    return sorted(ids[i] for i in picked)


def fedavg_aggregate(updates) -> np.ndarray:
    """Data-weighted coordinate mean of client parameter vectors.

    `updates` is a list of (n_k, w_k) in ascending client-id order; the
    summation follows that order so aggregation is bitwise reproducible.
    With a single client, or when all clients returned identical vectors,
    the result is exactly that vector.
    """
    updates = list(updates)
    if not updates:
        raise ValidationError("nothing to aggregate")
    first = np.asarray(updates[0][1], dtype=np.float64)
    total = 0
    for n_k, w_k in updates:
        if n_k <= 0:
            raise ValidationError("client weights must be positive")
        if np.asarray(w_k).shape != first.shape:
            raise ValidationError("parameter vectors must have equal length")
        total += n_k
    if all(np.array_equal(w_k, first) for _, w_k in updates[1:]):
        return first.copy()
    acc = np.zeros_like(first)
    for n_k, w_k in updates:
        acc += (n_k / total) * np.asarray(w_k, dtype=np.float64)
    return acc


def _check_datasets(datasets, cfg: ScenarioConfig):
    """Sort, verify variant consistency, and split off unusable clients."""
    if not datasets:
        raise ValidationError("no client datasets")
    by_id = {}
    for ds in datasets:
        if ds.household_id in by_id:
            raise ValidationError(f"duplicate client id {ds.household_id!r}")
        by_id[ds.household_id] = ds
    usable, excluded = [], []
    feature_dim = None
    for hid in sorted(by_id):
        ds = by_id[hid]
        if ds.k != cfg.k or ds.with_weather != cfg.with_weather:
            raise ValidationError(
                f"{hid}: dataset variant {ds.k}/{ds.with_weather} does not match "
                f"the configured {cfg.k}/{cfg.with_weather}")
        if feature_dim is None:
            feature_dim = ds.feature_dim
        elif ds.feature_dim != feature_dim:
            raise ValidationError("clients disagree on feature width")
        if min(len(ds.train), len(ds.val), len(ds.test)) == 0:
            excluded.append(hid)
        else:
            usable.append(ds)
    if not usable:
        raise ValidationError("every client was excluded for missing data")
    return usable, excluded


def _session_stream(cfg: ScenarioConfig, client_ids, *extra):
    return stream(cfg.seed, TRAIN, *[key_int(c) for c in sorted(client_ids)], *extra)


def _init_flat(cfg: ScenarioConfig, feature_dim: int) -> np.ndarray:
    return init_model(feature_dim, stream(cfg.seed, INIT))


def _mean(values) -> float:
    return float(np.mean(np.asarray(list(values), dtype=np.float64)))


def _client_rmse(params, datasets) -> dict:
    return {ds.household_id: evaluate_rmse(params, ds.test) for ds in datasets}


def _base_report(cfg: ScenarioConfig, datasets, excluded) -> dict:
    return {
        "entry_id": cfg.entry_id,
        "scenario": cfg.kind,
        "k": cfg.k,
        "weather": cfg.with_weather,
        "seed": cfg.seed,
        "config": cfg.to_dict(),
        "clients": [ds.household_id for ds in datasets],
        "excluded": list(excluded),
        "rounds": [],
        "total_samples": 0,
    }


def _finish(report: dict, client_rmse: dict, energy_range: float) -> dict:
    ordered = {hid: float(client_rmse[hid]) for hid in sorted(client_rmse)}
    report["client_rmse"] = ordered
    report["mean_rmse"] = report.get("pooled_rmse", _mean(ordered.values()))
    report["best_client_rmse"] = min(ordered.values())
    report["kwh_rmse"] = float(report["mean_rmse"] * energy_range)
    running = 0
    for rec in report["rounds"]:
        running += rec["samples"]
        rec["cumulative_samples"] = running
    report["total_samples"] = report.get("base_samples", 0) + running
    return report


def train_centralised(datasets, cfg: ScenarioConfig):
    """One model over the pooled training data of every household.

    The reported RMSE is pooled over all test sequences rather than averaged
    per client, since there is only one model and one evaluation set.
    """
    datasets, excluded = _check_datasets(datasets, cfg)
    ids = [ds.household_id for ds in datasets]
    windows = np.concatenate([ds.train.windows for ds in datasets])
    labels = np.concatenate([ds.train.labels for ds in datasets])
    val = SequenceSet(*(np.concatenate([getattr(ds.val, name) for ds in datasets])
                        for name in ("windows", "labels", "time_index")))
    test_windows = np.concatenate([ds.test.windows for ds in datasets])
    test_labels = np.concatenate([ds.test.labels for ds in datasets])

    result = train_session(_init_flat(cfg, datasets[0].feature_dim), windows,
                           labels, val, cfg.epochs_cap, cfg,
                           _session_stream(cfg, ids))
    report = _base_report(cfg, datasets, excluded)
    report["initial_val_rmse"] = result.initial_metric
    report["rounds"] = [
        {"epoch": r["epoch"], "participants": ids, "train_loss": r["train_loss"],
         "val_rmse": r["val_rmse"], "samples": r["samples"]}
        for r in result.records
    ]
    report["best_val_rmse"] = result.best_metric
    report["best_epoch"] = result.best_epoch
    report["epochs_run"] = result.epochs_run
    diff = predict(result.params, test_windows) - test_labels
    report["pooled_rmse"] = float(np.sqrt(np.mean(diff * diff)))
    report = _finish(report, _client_rmse(result.params, datasets),
                     datasets[0].energy_range)
    return report, {"global": result.params}


def train_localised(datasets, cfg: ScenarioConfig):
    """One independent model per household on its own data only."""
    datasets, excluded = _check_datasets(datasets, cfg)
    report = _base_report(cfg, datasets, excluded)
    start = _init_flat(cfg, datasets[0].feature_dim)
    results = fit_epochs(
        [Session(start, ds.train.windows, ds.train.labels,
                 _session_stream(cfg, [ds.household_id]), ds.val)
         for ds in datasets],
        cfg.epochs_cap, cfg.batch_size, cfg.learning_rate, cfg.patience)
    models = {}
    client_rmse = {}
    best_val = {}
    for ds, result in zip(datasets, results):  # ascending id order
        hid = ds.household_id
        for r in result.records:
            report["rounds"].append({
                "client": hid, "epoch": r["epoch"], "participants": [hid],
                "train_loss": r["train_loss"], "val_rmse": r["val_rmse"],
                "samples": r["samples"],
            })
        models[hid] = result.params
        client_rmse[hid] = evaluate_rmse(result.params, ds.test)
        best_val[hid] = result.best_metric
    report["best_val_rmse"] = best_val
    report["mean_best_val_rmse"] = _mean(best_val.values())
    report = _finish(report, client_rmse, datasets[0].energy_range)
    return report, models


def fedavg_round(global_params: np.ndarray, clients, cfg: ScenarioConfig,
                 round_index: int, burst_tag: int = ROUND):
    """Train each participating client from the global model and aggregate.

    `clients` is the ascending-id list of (household_id, dataset) pairs that
    participate this round.  Every client starts from the global parameters
    with a fresh optimizer, runs cfg.local_epochs, and the weighted mean of
    the results replaces the global model.  Returns (new_params, stats,
    samples) where stats maps client id to its last local training loss.
    """
    if not clients:
        raise ValidationError("a round needs at least one participant")
    sessions = [Session(global_params, ds.train.windows, ds.train.labels,
                        stream(cfg.seed, TRAIN, key_int(hid), burst_tag, round_index))
                for hid, ds in clients]
    try:
        results = fit_epochs(sessions, cfg.local_epochs, cfg.batch_size,
                             cfg.learning_rate)
    except NumericalError as err:
        raise NumericalError(
            f"round {round_index}: client {clients[err.session][0]} failed: {err}",
            param_index=err.param_index) from err
    updates = []
    stats = {}
    samples = 0
    for (hid, ds), result in zip(clients, results):
        w = result.params
        if not np.all(np.isfinite(w)):
            index = int(np.flatnonzero(~np.isfinite(w))[0])
            raise NumericalError(
                f"round {round_index}: client {hid} returned non-finite "
                f"parameters (index {index})", param_index=index)
        updates.append((ds.n_train, w))
        stats[hid] = result.records[-1]["train_loss"]
        samples += result.samples
    return fedavg_aggregate(updates), stats, samples


def _fl_loop(params, initial_metric, members, all_eval, cfg, first_round,
             last_round, records, label, select_key):
    """Shared federated loop from `params`, whose `all_eval` score is
    `initial_metric`: returns (stopper, rounds_run, samples)."""
    ids = [hid for hid, _ in members]
    by_id = dict(members)
    stopper = EarlyStopper(cfg.patience)
    stopper.update(initial_metric, params)
    samples_total = 0
    rounds_run = 0
    for r in range(first_round, last_round + 1):
        chosen = sample_clients(ids, cfg.client_fraction,
                                stream(cfg.seed, SELECT, *select_key, r))
        participants = [(hid, by_id[hid]) for hid in chosen]
        params, stats, samples = fedavg_round(params, participants, cfg, r)
        metric = all_eval(params)
        rec = {"round": r, "participants": chosen, "train_loss": stats,
               "avg_val_rmse": metric, "samples": samples}
        rec.update(label)
        records.append(rec)
        samples_total += samples
        rounds_run += 1
        stopper.update(metric, params)
        if stopper.should_stop:
            break
    return stopper, rounds_run, samples_total


def _uniform_val_eval(datasets):
    def metric(params):
        return _mean(evaluate_rmse(params, ds.val) for ds in datasets)
    return metric


def run_fl(datasets, cfg: ScenarioConfig):
    """Federated averaging with per-round uniform client sampling.

    After every round the new global model is scored by the uniform mean of
    all clients' validation RMSEs; early stopping and the returned snapshot
    follow that metric.
    """
    datasets, excluded = _check_datasets(datasets, cfg)
    members = [(ds.household_id, ds) for ds in datasets]
    report = _base_report(cfg, datasets, excluded)
    params = _init_flat(cfg, datasets[0].feature_dim)
    evaluator = _uniform_val_eval(datasets)
    report["initial_val_rmse"] = evaluator(params)
    stopper, rounds_run, _ = _fl_loop(
        params, report["initial_val_rmse"], members, evaluator, cfg, 1,
        cfg.fl_rounds_cap, report["rounds"], {}, ())
    report["best_val_rmse"] = stopper.best_metric
    report["best_round"] = stopper.best_step
    report["rounds_run"] = rounds_run
    best = stopper.best_params
    report = _finish(report, _client_rmse(best, datasets),
                     datasets[0].energy_range)
    return report, {"global": best}


def _flhc_warmup(members, cfg: ScenarioConfig, evaluator):
    """Phases 1 and 2 of fl_hc, which no threshold or linkage reads.

    Returns (initial_val_rmse, params, records, distances): the phase-1
    model, the round records of both phases, and the pairwise Euclidean
    distances between the burst's parameter deltas.
    """
    ids = [hid for hid, _ in members]
    by_id = dict(members)
    params = _init_flat(cfg, members[0][1].feature_dim)
    initial = evaluator(params)
    records = []

    # Phase 1: fixed-length federated warm-up (no early stopping).
    for r in range(1, cfg.hc_rounds + 1):
        chosen = sample_clients(ids, cfg.client_fraction,
                                stream(cfg.seed, SELECT, r))
        participants = [(hid, by_id[hid]) for hid in chosen]
        params, stats, samples = fedavg_round(params, participants, cfg, r)
        records.append({
            "phase": 1, "round": r, "participants": chosen, "train_loss": stats,
            "avg_val_rmse": evaluator(params), "samples": samples})

    # Phase 2: full participation burst; deltas against the shared model.
    results = fit_epochs(
        [Session(params, ds.train.windows, ds.train.labels,
                 stream(cfg.seed, TRAIN, key_int(hid), CLUSTERING))
         for hid, ds in members],
        cfg.local_epochs, cfg.batch_size, cfg.learning_rate)
    updates = []
    burst_samples = 0
    for (hid, _), result in zip(members, results):
        if not np.all(np.isfinite(result.params)):
            raise NumericalError(f"clustering burst: client {hid} returned "
                                 "non-finite parameters")
        updates.append(result.params - params)
        burst_samples += result.samples
    records.append({
        "phase": 2, "round": cfg.hc_rounds, "participants": ids,
        "train_loss": None, "avg_val_rmse": None, "samples": burst_samples})
    return initial, params, records, pairwise_euclidean(updates)


def run_flhc(datasets, cfg: ScenarioConfig, memo: dict | None = None):
    """Federated averaging, update clustering, then per-cluster federation.

    Phase 1 runs hc_rounds plain federated rounds.  Phase 2 has every client
    train local_epochs from the phase-1 model; the parameter deltas feed
    agglomerative clustering.  Phase 3 restarts from the phase-1 model inside
    each cluster and runs independent federated training, sharing the overall
    round cap, with early stopping per cluster.  Phases 1 and 2 are taken
    from `memo` when an entry with the same warm-up already ran them.
    """
    datasets, excluded = _check_datasets(datasets, cfg)
    if len(datasets) < 2:
        raise ValidationError("clustering needs at least two clients")
    members = [(ds.household_id, ds) for ds in datasets]
    ids = [hid for hid, _ in members]
    report = _base_report(cfg, datasets, excluded)
    evaluator = _uniform_val_eval(datasets)
    initial, params, report["rounds"], distances = _memoised(
        {} if memo is None else memo, _warmup_key(cfg),
        lambda: _flhc_warmup(members, cfg, evaluator))
    report["initial_val_rmse"] = initial

    assignment = agglomerate(distances, cfg.hc_linkage, cfg.hc_threshold)
    report["cluster_assignment"] = {
        hid: int(assignment.labels[i]) for i, hid in enumerate(ids)}
    report["merge_distances"] = [float(m.distance) for m in assignment.merges]

    # Phase 3: independent federated training inside each cluster.
    clusters = assignment.clusters()
    cluster_infos = []
    models = {}
    client_rmse = {}
    for cluster_id, member_idx in enumerate(clusters):
        cluster_members = [members[i] for i in member_idx]
        cluster_sets = [ds for _, ds in cluster_members]
        cluster_eval = _uniform_val_eval(cluster_sets)
        stopper, rounds_run, _ = _fl_loop(
            params, cluster_eval(params), cluster_members, cluster_eval, cfg,
            cfg.hc_rounds + 1, cfg.flhc_rounds_cap, report["rounds"],
            {"phase": 3, "cluster": cluster_id}, (cluster_id,))
        best = stopper.best_params
        models[f"cluster{cluster_id}"] = best
        for _, ds in cluster_members:
            client_rmse[ds.household_id] = evaluate_rmse(best, ds.test)
        cluster_infos.append({
            "cluster": cluster_id,
            "members": [hid for hid, _ in cluster_members],
            "best_val_rmse": stopper.best_metric,
            "best_round": stopper.best_step,
            "rounds_run": rounds_run,
        })
    report["clusters"] = cluster_infos
    report["n_clusters"] = len(clusters)
    # Overall validation score: per-cluster bests weighted by cluster size,
    # which equals the uniform mean over clients of their own model's score.
    report["best_val_rmse"] = float(
        sum(len(c["members"]) * c["best_val_rmse"] for c in cluster_infos)
        / sum(len(c["members"]) for c in cluster_infos))
    report = _finish(report, client_rmse, datasets[0].energy_range)
    return report, models


def fine_tune(base_params_by_client: dict, datasets, cfg: ScenarioConfig):
    """Per-client fine-tuning of a supplied base model on local data.

    Each client trains up to lft_epochs_cap epochs with early stopping on its
    own validation RMSE.  The base parameters are evaluated first and win
    ties, so fine-tuning can never worsen a client's validation RMSE.
    """
    datasets, excluded = _check_datasets(datasets, cfg)
    for ds in datasets:
        if ds.household_id not in base_params_by_client:
            raise ValidationError(f"no base parameters for client {ds.household_id!r}")
    results = fit_epochs(
        [Session(base_params_by_client[ds.household_id], ds.train.windows,
                 ds.train.labels,
                 stream(cfg.seed, TRAIN, key_int(ds.household_id), FINE_TUNE),
                 ds.val)
         for ds in datasets],
        cfg.lft_epochs_cap, cfg.batch_size, cfg.learning_rate, cfg.patience)
    records = []
    models = {}
    client_rmse = {}
    val_before = {}
    val_after = {}
    for ds, result in zip(datasets, results):
        hid = ds.household_id
        val_before[hid] = result.initial_metric
        for r in result.records:
            records.append({
                "phase": "fine_tune", "client": hid, "epoch": r["epoch"],
                "participants": [hid], "train_loss": r["train_loss"],
                "val_rmse": r["val_rmse"], "samples": r["samples"]})
        models[hid] = result.params
        client_rmse[hid] = evaluate_rmse(result.params, ds.test)
        val_after[hid] = result.best_metric
    return records, models, client_rmse, val_before, val_after, excluded


def _memoised(memo: dict, key, compute):
    """compute() once per key of `memo`; every caller gets its own deep copy.

    Callers extend reports and may change model arrays, so no two of them,
    and not the memo, may hold the same objects.
    """
    if key not in memo:
        memo[key] = compute()
    return copy.deepcopy(memo[key])


def _warmup_key(cfg: ScenarioConfig) -> tuple:
    """Every field the fl_hc warm-up (phases 1 and 2) reads."""
    return ("fl_hc warm-up", cfg.k, cfg.with_weather, cfg.seed,
            cfg.client_fraction, cfg.local_epochs, cfg.batch_size,
            cfg.learning_rate, cfg.hc_rounds)


_BASE_KIND = {"fl_lft": "fl", "fl_hc_lft": "fl_hc"}


def _base_config(cfg: ScenarioConfig) -> ScenarioConfig:
    """The standalone fl or fl_hc entry a fine-tuning entry starts from."""
    return replace(cfg, kind=_BASE_KIND[cfg.kind])


def _base_run(datasets, cfg: ScenarioConfig, memo: dict):
    """An fl or fl_hc entry's (report, models), trained once per memo."""
    if cfg.kind == "fl":
        return _memoised(memo, cfg, lambda: run_fl(datasets, cfg))
    return _memoised(memo, cfg, lambda: run_flhc(datasets, cfg, memo))


def group_entries(cfgs) -> list:
    """Partition sweep entries into groups that can share one memo.

    An fl entry and the fl_lft entries fine-tuning it form one group, as do
    the fl_hc and fl_hc_lft entries with one warm-up; every other entry
    stands alone.  Groups and the entries in them keep the input order.
    """
    groups = {}
    for cfg in cfgs:
        if cfg.kind in ("fl_hc", "fl_hc_lft"):
            key = _warmup_key(cfg)
        elif cfg.kind == "fl_lft":
            key = _base_config(cfg)
        else:
            key = cfg
        groups.setdefault(key, []).append(cfg)
    return list(groups.values())


def _run_lft(datasets, cfg: ScenarioConfig, memo: dict):
    base_cfg = _base_config(cfg)
    base_report, base_models = _base_run(datasets, base_cfg, memo)
    if base_cfg.kind == "fl":
        sorted_sets, _ = _check_datasets(datasets, base_cfg)
        base_for = {ds.household_id: base_models["global"] for ds in sorted_sets}
    else:
        assignment = base_report["cluster_assignment"]
        base_for = {hid: base_models[f"cluster{assignment[hid]}"]
                    for hid in assignment}

    records, models, client_rmse, val_before, val_after, excluded = fine_tune(
        base_for, datasets, cfg)
    sorted_sets, _ = _check_datasets(datasets, cfg)
    report = _base_report(cfg, sorted_sets, excluded)
    report["base"] = base_report
    report["base_samples"] = base_report["total_samples"]
    report["rounds"] = records
    report["val_rmse_base"] = {h: float(v) for h, v in sorted(val_before.items())}
    report["val_rmse_fine_tuned"] = {h: float(v) for h, v in sorted(val_after.items())}
    report["best_val_rmse"] = report["val_rmse_fine_tuned"]
    report = _finish(report, client_rmse, sorted_sets[0].energy_range)
    return report, models


def run_scenario(datasets, cfg: ScenarioConfig, memo: dict | None = None):
    """Dispatch a scenario config to its regime; returns (report, models).

    `memo` lets entries run on the same datasets share work (see the module
    docstring); pass one dict for a whole group from `group_entries`.
    """
    memo = {} if memo is None else memo
    # The LSTM scratch arena is sized by this entry's largest call; free it
    # so it does not stay mapped through the next entry's data phase.
    try:
        if cfg.kind == "centralised":
            return train_centralised(datasets, cfg)
        if cfg.kind == "localised":
            return train_localised(datasets, cfg)
        if cfg.kind in ("fl", "fl_hc"):
            return _base_run(datasets, cfg, memo)
        if cfg.kind in _BASE_KIND:
            return _run_lft(datasets, cfg, memo)
        raise ValidationError(f"unknown scenario {cfg.kind!r}")
    finally:
        release_arena()


def recount_samples(report: dict) -> int:
    """Recompute the sample total from the round records alone."""
    total = sum(rec["samples"] for rec in report.get("rounds", []))
    if "base" in report:
        total += recount_samples(report["base"])
    return total
