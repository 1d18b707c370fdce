"""The six training regimes and their run reports.

Every entry point returns (report, models): a JSON-ready report dict whose
"rounds" list carries one record per optimisation step (round, epoch, or
fine-tuning epoch) with its sample increment, and a dict of named flat
parameter vectors (the trained models).  Sample totals are recomputable from
the records alone; `recount_samples` does exactly that.

Regimes, and the phases each composes:
    centralised  one model on all households' pooled training data
                 (`train_session` on the pooled sets)
    localised    one independent model per household (`_train_clients`)
    fl           federated averaging over sampled clients (`_federate` with
                 early stopping)
    fl_hc        federated averaging, then clustering of client updates,
                 then independent federated training per cluster
                 (`_warm_up`, `agglomerate`, `_cluster_federation` per cluster)
    fl_lft       fl followed by per-client fine-tuning of the global model
                 (`_run_lft`, through `_train_clients`)
    fl_hc_lft    fl_hc followed by per-client fine-tuning of cluster models
                 (`_run_lft`, through `_train_clients`)

Phases:
    _federate            the one federated loop: a `fedavg_round` per round,
                         every global model scored on the clients' validation
                         sets; it serves fl, the warm-up and each cluster
    _train_clients       every client trained from its own start, checked
                         finite: validated and stopped early (localised and
                         fine-tuning) or for local_epochs unvalidated (each
                         round, and the burst)
    _warm_up             fl_hc phases 1 and 2: `_federate` without early
                         stopping, then the burst and its update distances
    _cluster_federation  fl_hc phase 3 for one cluster

`run_scenario` checks the datasets once per entry and hands every regime
them in ascending id order.
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
from ..nn import init_model
from ..seeding import CLUSTERING, FINE_TUNE, INIT, ROUND, SELECT, TRAIN, key_int, stream
from .config import ScenarioConfig
from .training import (
    EarlyStopper,
    Session,
    evaluate_rmse,
    fit_epochs,
    train_session,
)

__all__ = [
    "fedavg_aggregate",
    "fedavg_round",
    "group_entries",
    "recount_samples",
    "run_scenario",
    "sample_clients",
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
    """Sort by id; check variant consistency and that every split has windows."""
    if not datasets:
        raise ValidationError("no client datasets")
    by_id = {}
    for ds in datasets:
        if ds.household_id in by_id:
            raise ValidationError(f"duplicate client id {ds.household_id!r}")
        by_id[ds.household_id] = ds
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
        for split in ("train", "val", "test"):
            if len(getattr(ds, split)) == 0:
                raise ValidationError(f"{hid}: the {split} split has no windows")
    return [by_id[hid] for hid in sorted(by_id)]


def _init_flat(cfg: ScenarioConfig, feature_dim: int) -> np.ndarray:
    return init_model(feature_dim, stream(cfg.seed, INIT))


def _mean(values) -> float:
    return float(np.mean(np.asarray(list(values), dtype=np.float64)))


def _pool(sets) -> SequenceSet:
    return SequenceSet(np.concatenate([s.windows for s in sets]),
                       np.concatenate([s.labels for s in sets]))


def _model_of(report: dict, models: dict) -> dict:
    """Each client's model in a federated run: its cluster's, or the global."""
    if "cluster_assignment" in report:
        return {hid: models[f"cluster{c}"]
                for hid, c in report["cluster_assignment"].items()}
    return dict.fromkeys(report["clients"], models["global"])


def _base_report(cfg: ScenarioConfig, datasets) -> dict:
    return {
        "entry_id": cfg.entry_id,
        "scenario": cfg.kind,
        "k": cfg.k,
        "weather": cfg.with_weather,
        "seed": cfg.seed,
        "config": cfg.to_dict(),
        "clients": [ds.household_id for ds in datasets],
        "excluded": [],  # no client is left out: each has every split
        "rounds": [],
        "total_samples": 0,
    }


def _finish(report: dict, model_of: dict, datasets) -> dict:
    """Score each client's own model (`model_of[id]`) on its test set and
    fill in the RMSE and sample totals."""
    rmse = {ds.household_id: evaluate_rmse(model_of[ds.household_id], ds.test)
            for ds in datasets}
    report["client_rmse"] = rmse
    report["mean_rmse"] = report.get("pooled_rmse", _mean(rmse.values()))
    report["best_client_rmse"] = min(rmse.values())
    report["kwh_rmse"] = float(report["mean_rmse"] * datasets[0].energy_range)
    running = 0
    for rec in report["rounds"]:
        running += rec["samples"]
        rec["cumulative_samples"] = running
    report["total_samples"] = report.get("base_samples", 0) + running
    return report


def _epoch_records(result, participants, **label) -> list:
    """A validated session's per-epoch records as report rounds."""
    return [{**label, "participants": participants, **rec}
            for rec in result.records]


def _centralised(datasets, cfg: ScenarioConfig):
    """One model over the pooled training data of every household.

    The reported RMSE is pooled over all test sequences rather than averaged
    per client, since there is only one model and one evaluation set.
    """
    ids = [ds.household_id for ds in datasets]
    train, val, test = (_pool([getattr(ds, split) for ds in datasets])
                        for split in ("train", "val", "test"))
    try:
        result = train_session(_init_flat(cfg, datasets[0].feature_dim),
                               train.windows, train.labels, val, cfg.epochs_cap,
                               cfg, stream(cfg.seed, TRAIN, *map(key_int, ids)))
    except NumericalError as err:
        raise NumericalError(f"centralised: {err}", param_index=err.param_index) from err
    report = _base_report(cfg, datasets)
    report["initial_val_rmse"] = result.initial_metric
    report["rounds"] = _epoch_records(result, ids)
    report["best_val_rmse"] = result.best_metric
    report["best_epoch"] = result.best_epoch
    report["epochs_run"] = result.epochs_run
    report["pooled_rmse"] = evaluate_rmse(result.params, test)
    return (_finish(report, dict.fromkeys(ids, result.params), datasets),
            {"global": result.params})


def _localised(datasets, cfg: ScenarioConfig):
    """One independent model per household on its own data only."""
    start = _init_flat(cfg, datasets[0].feature_dim)
    results = _train_clients([start] * len(datasets), datasets, cfg, cfg.epochs_cap,
                             "localised", patience=cfg.patience)
    report = _base_report(cfg, datasets)
    report["rounds"] = [rec for hid, r in results.items()
                        for rec in _epoch_records(r, [hid], client=hid)]
    report["best_val_rmse"] = {hid: r.best_metric for hid, r in results.items()}
    report["mean_best_val_rmse"] = _mean(report["best_val_rmse"].values())
    models = {hid: r.params for hid, r in results.items()}
    return _finish(report, models, datasets), models


def _train_clients(starts, datasets, cfg: ScenarioConfig, epochs: int, where: str,
                   *stream_tag, patience: int | None = None) -> dict:
    """Train each of `datasets` from its start in `starts` for `epochs`,
    validated and stopped early on its validation set given a `patience`.

    Returns the SessionResults by client id.  A numerical failure, or a
    client ending with non-finite parameters, raises NumericalError naming
    `where` and the client.
    """
    try:
        results = fit_epochs(
            [Session(start, ds.train.windows, ds.train.labels,
                     stream(cfg.seed, TRAIN, key_int(ds.household_id), *stream_tag),
                     None if patience is None else ds.val)
             for start, ds in zip(starts, datasets)],
            epochs, cfg.batch_size, cfg.learning_rate, patience)
    except NumericalError as err:
        raise NumericalError(
            f"{where}: client {datasets[err.session].household_id} failed: {err}",
            param_index=err.param_index) from err
    by_id = {ds.household_id: r for ds, r in zip(datasets, results)}
    for hid, result in by_id.items():
        bad = np.flatnonzero(~np.isfinite(result.params))
        if bad.size:
            raise NumericalError(
                f"{where}: client {hid} returned non-finite parameters "
                f"(index {bad[0]})", param_index=int(bad[0]))
    return by_id


def fedavg_round(global_params: np.ndarray, clients, cfg: ScenarioConfig,
                 round_index: int):
    """Train each participating client from the global model and aggregate.

    `clients` is the ascending-id list of the datasets that participate this
    round.  Every client starts from the global parameters with a fresh
    optimizer, runs cfg.local_epochs, and the weighted mean of the results
    replaces the global model.  Returns (new_params, stats, samples) where
    stats maps client id to its last local training loss.
    """
    results = _train_clients([global_params] * len(clients), clients, cfg,
                             cfg.local_epochs, f"round {round_index}", ROUND,
                             round_index)
    updates = [(ds.n_train, results[ds.household_id].params) for ds in clients]
    stats = {hid: r.records[-1]["train_loss"] for hid, r in results.items()}
    return fedavg_aggregate(updates), stats, sum(r.samples for r in results.values())


def _federate(start: np.ndarray, datasets, cfg: ScenarioConfig, rounds,
              label: dict, select_key=(), patience: int | None = None):
    """Federated averaging of `datasets` from `start` over the round numbers
    `rounds`; returns (final params, stopper, round records).

    Every global model, the start included, is scored by the uniform mean of
    the clients' validation RMSEs and fed to the stopper, which keeps the
    best snapshot.  Rounds stop early only when `patience` is given.  A
    non-finite score raises NumericalError naming the round.
    """
    by_id = {ds.household_id: ds for ds in datasets}
    stopper = EarlyStopper(patience)

    def score(params, r):
        metric = _mean(evaluate_rmse(params, ds.val) for ds in datasets)
        try:
            stopper.update(metric, params)
        except NumericalError as err:
            raise NumericalError(f"round {r}: {err}") from err
        return metric

    params = start
    score(params, rounds.start - 1)
    records = []
    for r in rounds:
        chosen = sample_clients(by_id, cfg.client_fraction,
                                stream(cfg.seed, SELECT, *select_key, r))
        params, stats, samples = fedavg_round(
            params, [by_id[hid] for hid in chosen], cfg, r)
        records.append({**label, "round": r, "participants": chosen,
                        "train_loss": stats, "avg_val_rmse": score(params, r),
                        "samples": samples})
        if stopper.should_stop:
            break
    return params, stopper, records


def _fl(datasets, cfg: ScenarioConfig):
    """Federated averaging with per-round uniform client sampling.

    Early stopping and the returned snapshot follow the mean validation
    RMSE of all clients (see `_federate`).
    """
    report = _base_report(cfg, datasets)
    _, stopper, report["rounds"] = _federate(
        _init_flat(cfg, datasets[0].feature_dim), datasets, cfg,
        range(1, cfg.fl_rounds_cap + 1), {}, patience=cfg.patience)
    report["initial_val_rmse"] = stopper.initial_metric
    report["best_val_rmse"] = stopper.best_metric
    report["best_round"] = stopper.best_step
    report["rounds_run"] = len(report["rounds"])
    models = {"global": stopper.best_params}
    return _finish(report, _model_of(report, models), datasets), models


def _warm_up(datasets, cfg: ScenarioConfig):
    """Phases 1 and 2 of fl_hc, which no threshold or linkage reads.

    Returns (initial_val_rmse, params, records, distances): the phase-1
    model, the round records of both phases, and the pairwise Euclidean
    distances between the burst's parameter deltas.
    """
    # Phase 1: fixed-length federated warm-up (no early stopping).
    params, stopper, records = _federate(
        _init_flat(cfg, datasets[0].feature_dim), datasets, cfg,
        range(1, cfg.hc_rounds + 1), {"phase": 1})
    # Phase 2: full participation burst; deltas against the shared model.
    results = _train_clients([params] * len(datasets), datasets, cfg,
                             cfg.local_epochs, "clustering burst", CLUSTERING)
    records.append({
        "phase": 2, "round": cfg.hc_rounds, "participants": list(results),
        "train_loss": None, "avg_val_rmse": None,
        "samples": sum(r.samples for r in results.values())})
    distances = pairwise_euclidean([r.params - params for r in results.values()])
    return stopper.initial_metric, params, records, distances


def _cluster_federation(start: np.ndarray, datasets, cluster_id: int,
                        cfg: ScenarioConfig):
    """Phase 3 of fl_hc for one cluster: (best model, summary, records)."""
    _, stopper, records = _federate(
        start, datasets, cfg, range(cfg.hc_rounds + 1, cfg.flhc_rounds_cap + 1),
        {"phase": 3, "cluster": cluster_id}, (cluster_id,), cfg.patience)
    return stopper.best_params, {
        "cluster": cluster_id,
        "members": [ds.household_id for ds in datasets],
        "best_val_rmse": stopper.best_metric,
        "best_round": stopper.best_step,
        "rounds_run": len(records),
    }, records


def _fl_hc(datasets, cfg: ScenarioConfig, memo: dict):
    """Federated averaging, update clustering, then per-cluster federation.

    Phase 1 runs hc_rounds plain federated rounds.  Phase 2 has every client
    train local_epochs from the phase-1 model; the parameter deltas feed
    agglomerative clustering.  Phase 3 restarts from the phase-1 model inside
    each cluster and runs independent federated training, sharing the overall
    round cap, with early stopping per cluster.  Phases 1 and 2 are taken
    from `memo` when an entry with the same warm-up already ran them.
    """
    if len(datasets) < 2:
        raise ValidationError("clustering needs at least two clients")
    report = _base_report(cfg, datasets)
    report["initial_val_rmse"], params, report["rounds"], distances = _memoised(
        memo, _warmup_key(cfg), lambda: _warm_up(datasets, cfg))

    assignment = agglomerate(distances, cfg.hc_linkage, cfg.hc_threshold)
    report["cluster_assignment"] = {
        ds.household_id: int(label) for ds, label in zip(datasets, assignment.labels)}
    report["merge_distances"] = list(assignment.merge_distances)

    models, clusters = {}, []
    for cluster_id, member_idx in enumerate(assignment.clusters()):
        models[f"cluster{cluster_id}"], info, records = _cluster_federation(
            params, [datasets[i] for i in member_idx], cluster_id, cfg)
        clusters.append(info)
        report["rounds"] += records
    report["clusters"] = clusters
    report["n_clusters"] = len(clusters)
    # Overall validation score: per-cluster bests weighted by cluster size,
    # which equals the uniform mean over clients of their own model's score.
    report["best_val_rmse"] = float(
        sum(len(c["members"]) * c["best_val_rmse"] for c in clusters)
        / sum(len(c["members"]) for c in clusters))
    return _finish(report, _model_of(report, models), datasets), models


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


def _base_config(cfg: ScenarioConfig) -> ScenarioConfig:
    """The standalone fl or fl_hc entry a fine-tuning entry starts from;
    any other entry is its own base."""
    return replace(cfg, kind=cfg.kind.removesuffix("_lft"))


def _base_run(datasets, cfg: ScenarioConfig, memo: dict):
    """An fl or fl_hc entry's (report, models), trained once per memo."""
    if cfg.kind == "fl":
        return _memoised(memo, cfg, lambda: _fl(datasets, cfg))
    return _memoised(memo, cfg, lambda: _fl_hc(datasets, cfg, memo))


def group_entries(cfgs) -> list:
    """Partition sweep entries into groups that can share one memo.

    An fl entry and the fl_lft entries fine-tuning it form one group, as do
    the fl_hc and fl_hc_lft entries with one warm-up; every other entry
    stands alone.  Groups and the entries in them keep the input order.
    """
    groups = {}
    for cfg in cfgs:
        key = _warmup_key(cfg) if cfg.hc_rounds is not None else _base_config(cfg)
        groups.setdefault(key, []).append(cfg)
    return list(groups.values())


def _run_lft(datasets, cfg: ScenarioConfig, memo: dict):
    """Fine-tune each client's fl or fl_hc base model on its own data, up to
    lft_epochs_cap epochs with early stopping on its validation RMSE.  The
    base parameters are scored first and win ties, so fine-tuning never
    worsens a client's validation RMSE."""
    base_report, base_models = _base_run(datasets, _base_config(cfg), memo)
    model_of = _model_of(base_report, base_models)
    results = _train_clients([model_of[ds.household_id] for ds in datasets],
                             datasets, cfg, cfg.lft_epochs_cap, "fine-tuning",
                             FINE_TUNE, patience=cfg.patience)
    report = _base_report(cfg, datasets)
    report["base"] = base_report
    report["base_samples"] = base_report["total_samples"]
    report["rounds"] = [rec for hid, r in results.items() for rec in
                        _epoch_records(r, [hid], phase="fine_tune", client=hid)]
    report["val_rmse_base"] = {h: r.initial_metric for h, r in results.items()}
    report["val_rmse_fine_tuned"] = {h: r.best_metric for h, r in results.items()}
    report["best_val_rmse"] = report["val_rmse_fine_tuned"]
    models = {hid: r.params for hid, r in results.items()}
    return _finish(report, models, datasets), models


def run_scenario(datasets, cfg: ScenarioConfig, memo: dict | None = None):
    """Check the datasets, run the config's regime; returns (report, models).

    `memo` lets entries run on the same datasets share work (see the module
    docstring); pass one dict for a whole group from `group_entries`.
    """
    memo = {} if memo is None else memo
    datasets = _check_datasets(datasets, cfg)
    if cfg.kind == "centralised":
        return _centralised(datasets, cfg)
    if cfg.kind == "localised":
        return _localised(datasets, cfg)
    if cfg.kind in ("fl", "fl_hc"):
        return _base_run(datasets, cfg, memo)
    return _run_lft(datasets, cfg, memo)  # fl_lft, fl_hc_lft


def recount_samples(report: dict) -> int:
    """Recompute the sample total from the round records alone."""
    total = sum(rec["samples"] for rec in report.get("rounds", []))
    if "base" in report:
        total += recount_samples(report["base"])
    return total
