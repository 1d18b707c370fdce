"""Command-line behaviour: config resolution, the full pipeline, exit codes.

The pipeline fixture drives synthesize -> prepare -> run -> report through
main() exactly as a shell user would, on a population small enough to train
in a couple of seconds.
"""

import hashlib
import json
import multiprocessing
import os
import shutil
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import fedcast
from fedcast import cli
from fedcast.atomic import atomic_write
from fedcast.cli import (
    _OVERRIDE_KEYS,
    _run_group,
    _write_entry_outputs,
    main,
    resolve_config,
    run_identity,
)
from fedcast.data import (
    ingest_meter_csv,
    prepare_datasets,
    write_cache,
)
from fedcast.data.cleaning import MeterReadings
from fedcast.errors import DataError, NumericalError, ValidationError
from fedcast.federation import group_entries, scenarios
from fedcast.federation.config import (
    CLIENT_FRACTION_GRID,
    HC_ROUNDS_GRID,
    HC_THRESHOLD_GRID,
    LOCAL_EPOCHS_GRID,
    SCENARIO_KEYS,
    ScenarioConfig,
)
from fedcast.reporting import SCENARIO_ORDER, SCENARIO_TITLES
from fedcast.seeding import ROUND, TRAIN, key_int

SMALL_OVERRIDES = {"epochs_cap": 2, "fl_rounds_cap": 2, "patience": 1,
                   "lft_epochs_cap": 1}


def base_config(data="cache", **extra):
    raw = {
        "data": data,
        "seed": 5,
        "k": 6,
        "weather": False,
        "scenarios": [
            {"kind": "centralised"},
            {"kind": "fl", "client_fraction": 0.5, "local_epochs": 1},
        ],
        "overrides": dict(SMALL_OVERRIDES),
    }
    raw.update(extra)
    return raw


# ----------------------------------------------------------- config expansion

def test_grid_expansion_counts():
    raw = base_config(k=[6, 12], scenarios=[
        {"kind": "fl", "client_fraction": [0.1, 0.2, 0.3],
         "local_epochs": [1, 3, 5]},
    ])
    seed, entries = resolve_config(raw)
    assert seed == 5
    assert len(entries) == 9 * 2
    assert len({cfg.entry_id for cfg in entries}) == len(entries)
    ids = [cfg.entry_id for cfg in entries]
    assert ids == sorted(ids)


def test_clustered_grid_expansion():
    raw = base_config(scenarios=[
        {"kind": "fl_hc", "hc_threshold": [0.8, 1.4], "hc_rounds": [3, 5],
         "hc_linkage": ["ward", "single"]},
    ])
    _, entries = resolve_config(raw)
    assert len(entries) == 8
    # the pre-clustering phase settings are fixed, not swept
    assert all(cfg.client_fraction == 0.1 and cfg.local_epochs == 3
               for cfg in entries)


def test_grid_values_equal_to_six_digits_are_distinct_entries():
    raw = base_config(scenarios=[
        {"kind": "fl_hc", "hc_threshold": [1.4, 1.0000001, 1.0000002],
         "hc_rounds": 3, "hc_linkage": "ward"},
    ])
    _, entries = resolve_config(raw)
    assert [cfg.entry_id for cfg in entries] == [
        "fl_hc__k6-w__f0.1_e3__n3_t1.0000001_ward",
        "fl_hc__k6-w__f0.1_e3__n3_t1.0000002_ward",
        "fl_hc__k6-w__f0.1_e3__n3_t1.4_ward",
    ]


def test_scalars_are_singleton_grids():
    _, entries = resolve_config(base_config())
    assert len(entries) == 2
    assert entries[0].kind == "centralised"
    assert entries[0].epochs_cap == 2  # overrides reach every entry


def test_weather_expands_variants():
    raw = base_config(weather=[False, True],
                      scenarios=[{"kind": "localised"}])
    _, entries = resolve_config(raw)
    assert {(c.k, c.with_weather) for c in entries} == {(6, False), (6, True)}


def test_seed_env_override(monkeypatch):
    monkeypatch.setenv("FEDCAST_SEED", "99")
    seed, entries = resolve_config(base_config())
    assert seed == 99
    assert all(cfg.seed == 99 for cfg in entries)
    monkeypatch.setenv("FEDCAST_SEED", "not-a-number")
    with pytest.raises(ValidationError):
        resolve_config(base_config())


@pytest.mark.parametrize("mangle", [
    lambda raw: raw.pop("data"),
    lambda raw: raw.pop("scenarios"),
    lambda raw: raw.update(extra_key=1),
    lambda raw: raw.update(scenarios=[{"kind": "mystery"}]),
    lambda raw: raw.update(scenarios=[{}]),
    lambda raw: raw.update(scenarios=[{"kind": "centralised", "client_fraction": 0.5}]),
    lambda raw: raw.update(scenarios=[{"kind": "fl"}, {"kind": "fl"}]),
    lambda raw: raw.update(overrides={"optimizer": "sgd"}),
    lambda raw: raw.update(weather="yes"),
    lambda raw: raw.update(seed=-1),
    # values of the wrong type
    lambda raw: raw.update(k="x"),
    lambda raw: raw.update(k=12.5),
    lambda raw: raw.update(k=True),
    lambda raw: raw.update(overrides={"batch_size": "32"}),
    lambda raw: raw.update(overrides={"batch_size": 32.5}),
    lambda raw: raw.update(overrides={"epochs_cap": 1.5}),
    lambda raw: raw.update(overrides={"patience": True}),
    lambda raw: raw.update(overrides={"learning_rate": "0.01"}),
    lambda raw: raw.update(scenarios=[
        {"kind": "fl", "client_fraction": "0.5", "local_epochs": 1}]),
    lambda raw: raw.update(scenarios=[
        {"kind": "fl", "client_fraction": 0.5, "local_epochs": 1.5}]),
    lambda raw: raw.update(scenarios=[
        {"kind": "fl_hc", "hc_threshold": "1.4", "hc_linkage": "ward",
         "hc_rounds": 2}]),
    lambda raw: raw.update(scenarios=[
        {"kind": "fl_hc", "hc_threshold": 1.4, "hc_linkage": "ward",
         "hc_rounds": 2.0}]),
    # sections that are not JSON objects
    lambda raw: raw.update(overrides=["batch_size"]),
    lambda raw: raw.update(overrides=None),
    lambda raw: raw.update(scenarios=[5]),
    lambda raw: raw.update(scenarios=[["kind"]]),
    lambda raw: raw.update(scenarios=[{"kind": ["fl"]}]),
    # an empty sweep list would drop its section without a word
    lambda raw: raw.update(scenarios=[
        {"kind": "centralised"}, {"kind": "fl", "client_fraction": []}]),
    # JSON's Infinity would train, then fail to serialise
    lambda raw: raw.update(scenarios=[
        {"kind": "fl_hc", "hc_threshold": float("inf"), "hc_linkage": "ward",
         "hc_rounds": 2}]),
    lambda raw: raw.update(overrides={"learning_rate": float("inf")}),
])
def test_bad_configs_are_rejected(mangle):
    raw = base_config()
    mangle(raw)
    with pytest.raises(ValidationError):
        resolve_config(raw)


def test_an_integral_float_k_stands_for_its_integer():
    _, entries = resolve_config(base_config(k=12.0))
    assert {cfg.k for cfg in entries} == {12}
    assert all(type(cfg.k) is int for cfg in entries)


def test_the_readme_config_sweeps_the_canonical_grids():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    raw = json.loads(readme.split("```json\n", 1)[1].split("```", 1)[0])
    _, entries = resolve_config(raw)
    # 2 K values x 2 weather variants x (1 + 1 + 9 + 9 + 1 + 1) sections
    assert len(entries) == 88
    sections = {section["kind"]: section for section in raw["scenarios"]}
    assert tuple(sections["fl"]["client_fraction"]) == CLIENT_FRACTION_GRID
    assert tuple(sections["fl"]["local_epochs"]) == LOCAL_EPOCHS_GRID
    assert tuple(sections["fl_hc"]["hc_threshold"]) == HC_THRESHOLD_GRID
    assert tuple(sections["fl_hc"]["hc_rounds"]) == HC_ROUNDS_GRID


def test_every_config_field_is_settable_in_exactly_one_place():
    # the kinds a config runs are the kinds a report orders and titles
    assert tuple(SCENARIO_KEYS) == SCENARIO_ORDER == tuple(SCENARIO_TITLES)
    # a field is an entry's identity, a scenario section's key or an override
    groups = [("kind", "k", "with_weather", "seed"), _OVERRIDE_KEYS,
              {key for keys in SCENARIO_KEYS.values() for key in keys}]
    names = [name for group in groups for name in group]
    assert len(names) == len(set(names))
    assert set(names) == {f.name for f in fields(ScenarioConfig)}


def test_run_identity_depends_on_all_parts():
    _, entries = resolve_config(base_config())
    base = run_identity(5, entries, "digest")
    assert len(base) == 12
    assert run_identity(5, entries, "digest") == base
    assert run_identity(6, entries, "digest") != base
    assert run_identity(5, entries, "other") != base
    assert run_identity(5, entries[:1], "digest") != base


# --------------------------------------------------------------- the pipeline

@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    assert main(["synthesize", "--n", "3", "--days", "10", "--seed", "7",
                 "--out", str(root / "synth")]) == 0
    assert main(["prepare", "--meters", str(root / "synth" / "meters.csv"),
                 "--weather", str(root / "synth" / "weather.csv"),
                 "--out", str(root / "cache"), "--k", "6"]) == 0
    (root / "config.json").write_text(json.dumps(base_config(data="cache")))
    assert main(["run", "--config", str(root / "config.json"),
                 "--out", str(root / "runs")]) == 0
    run_dirs = [p for p in (root / "runs").iterdir() if p.is_dir()]
    assert len(run_dirs) == 1
    return root, run_dirs[0]


def test_synthesize_writes_deterministic_csvs(pipeline, tmp_path):
    root, _ = pipeline
    assert main(["synthesize", "--n", "3", "--days", "10", "--seed", "7",
                 "--out", str(tmp_path)]) == 0
    for name in ("meters.csv", "weather.csv", "archetypes.json"):
        assert (tmp_path / name).read_bytes() == \
            (root / "synth" / name).read_bytes()
    meta = json.loads((tmp_path / "archetypes.json").read_text())
    assert len(meta["assignment"]) == 3


def test_prepare_manifest_lists_every_variant(pipeline):
    root, _ = pipeline
    manifest = json.loads((root / "cache" / "manifest.json").read_text())
    # 3 households x 1 window length x (with, without weather)
    assert len(manifest["datasets"]) == 6
    assert manifest["k_values"] == [6]
    assert sorted(manifest["variants"]) == ["base", "weather"]


def test_manifest_flags_a_heavily_filled_household(tiny_population, tmp_path):
    households = dict(tiny_population.households)
    readings = households["h000"]
    keep = np.ones(len(readings), dtype=bool)
    keep[1:-1:5] = False  # one interior slot in five is forward-filled
    households["h000"] = MeterReadings(readings.minutes[keep], readings.kwh[keep])
    manifest = write_cache(prepare_datasets(households, None, [6], False), tmp_path)
    flags = manifest["flags"]
    assert flags["h000"]["filled_fraction"] > 0.10
    assert flags["h000"]["high_fill"] is True
    for hid in sorted(households)[1:]:
        assert flags[hid] == {"filled_fraction": 0.0, "high_fill": False}


def test_run_directory_layout(pipeline):
    root, run_dir = pipeline
    for name in ("results.json", "results.csv", "tables.txt", "manifest.json"):
        assert (run_dir / name).is_file()
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["run_id"] == run_dir.name
    assert manifest["seed"] == 5
    listed = set(manifest["files"])
    assert "manifest.json" in listed
    for rel in listed - {"manifest.json"}:
        assert (run_dir / rel).is_file()
    results = json.loads((run_dir / "results.json").read_text())
    assert len(results["entries"]) == 2
    assert results["run_id"] == run_dir.name
    assert {e["scenario"] for e in results["entries"]} == {"centralised", "fl"}
    # per-entry logs and model vectors landed as well
    assert len(list((run_dir / "logs").glob("*.json"))) == 2
    assert len(list((run_dir / "models").glob("*/*.npy"))) == 2


def test_rerun_is_byte_identical(pipeline):
    root, run_dir = pipeline
    before = {name: (run_dir / name).read_bytes()
              for name in ("results.json", "results.csv", "tables.txt")}
    assert main(["run", "--config", str(root / "config.json"),
                 "--out", str(root / "runs")]) == 0
    # same config and data -> same run id, same bytes
    for name, blob in before.items():
        assert (run_dir / name).read_bytes() == blob


def test_parallel_run_matches_serial(pipeline, tmp_path):
    root, run_dir = pipeline
    assert main(["run", "--config", str(root / "config.json"),
                 "--out", str(tmp_path), "--jobs", "4"]) == 0
    other = tmp_path / run_dir.name  # identical run id
    assert other.is_dir()
    assert (other / "results.json").read_bytes() == \
        (run_dir / "results.json").read_bytes()


def test_seed_env_changes_the_run(pipeline, tmp_path, monkeypatch):
    root, run_dir = pipeline
    monkeypatch.setenv("FEDCAST_SEED", "1234")
    assert main(["run", "--config", str(root / "config.json"),
                 "--out", str(tmp_path)]) == 0
    produced = [p for p in tmp_path.iterdir() if p.is_dir()]
    assert len(produced) == 1
    assert produced[0].name != run_dir.name
    results = json.loads((produced[0] / "results.json").read_text())
    assert results["seed"] == 1234


def test_report_aggregates_a_run(pipeline, tmp_path, capsys):
    _, run_dir = pipeline
    assert main(["report", str(run_dir), "--out", str(tmp_path / "agg")]) == 0
    out = capsys.readouterr().out
    assert "Centralised" in out and "FL" in out
    agg = json.loads((tmp_path / "agg" / "results.json").read_text())
    assert agg["source_runs"] == [str(run_dir)]
    assert agg["seeds"] == [5]
    assert len(agg["entries"]) == 2


@pytest.mark.parametrize("outcome", ["results", "failure"])
def test_report_writes_into_no_run_directory(pipeline, tmp_path, capsys, outcome):
    _, run_dir = pipeline
    target = tmp_path / "run"
    if outcome == "results":
        shutil.copytree(run_dir, target)
    else:
        target.mkdir()
        (target / "failure.json").write_text("{}")
    before = {p: p.read_bytes() for p in target.rglob("*") if p.is_file()}
    capsys.readouterr()
    assert main(["report", str(run_dir), "--out", str(target)]) == 2
    assert capsys.readouterr().err == f"error: --out {target} is a run directory\n"
    assert {p: p.read_bytes() for p in target.rglob("*") if p.is_file()} == before


def test_report_rejects_duplicate_entries(pipeline, capsys):
    _, run_dir = pipeline
    assert main(["report", str(run_dir), str(run_dir)]) == 2
    assert "duplicate entry" in capsys.readouterr().err


def test_report_refuses_runs_on_different_datasets(pipeline, tmp_path, capsys):
    root, run_dir = pipeline
    # the same households without the weather variant: another dataset
    assert main(["prepare", "--meters", str(root / "synth" / "meters.csv"),
                 "--out", str(tmp_path / "cache"), "--k", "6",
                 "--weather-variant", "without"]) == 0
    config = tmp_path / "config.json"
    config.write_text(json.dumps(base_config(scenarios=[{"kind": "localised"}])))
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "runs")]) == 0
    other, = (tmp_path / "runs").iterdir()
    capsys.readouterr()
    assert main(["report", str(run_dir), str(other)]) == 2
    assert "runs were made from different datasets" in capsys.readouterr().err


def test_a_cache_re_prepared_in_place_is_loaded_afresh(pipeline, tmp_path):
    # a second run in one process, on a cache re-prepared at the same path
    # from another population, trains on the new data like a fresh process
    root, _ = pipeline
    config = tmp_path / "config.json"
    config.write_text(json.dumps(base_config(data="cache")))

    def prepare(synth):
        assert main(["prepare", "--meters", str(synth / "meters.csv"),
                     "--out", str(tmp_path / "cache"), "--k", "6",
                     "--weather-variant", "without"]) == 0

    def run(out):
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        run_dir, = out.iterdir()
        return run_dir

    prepare(root / "synth")
    run(tmp_path / "first")
    assert main(["synthesize", "--n", "3", "--days", "10", "--seed", "8",
                 "--out", str(tmp_path / "synth")]) == 0
    prepare(tmp_path / "synth")
    in_process = run(tmp_path / "second")
    proc = subprocess.run(
        [sys.executable, "-m", "fedcast.cli", "run", "--config", str(config),
         "--out", str(tmp_path / "fresh")],
        capture_output=True, text=True, env=_subprocess_env())
    assert proc.returncode == 0, proc.stderr
    fresh, = (tmp_path / "fresh").iterdir()
    assert in_process.name == fresh.name
    assert (in_process / "results.json").read_bytes() == \
        (fresh / "results.json").read_bytes()


# ------------------------------------------------------ caches a run refuses

def _with_manifest(rewrite):
    """A copy of the pipeline's cache whose manifest.json reads
    rewrite(its text)."""
    def make(root, cache):
        shutil.copytree(root / "cache", cache)
        manifest = cache / "manifest.json"
        manifest.write_text(rewrite(manifest.read_text()))
    return make


def _tamper_with_a_matrix(root, cache):
    shutil.copytree(root / "cache", cache)
    path = cache / "households" / "h000" / "matrix_base.npy"
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 1
    path.write_bytes(bytes(blob))


def _narrow_a_matrix(root, cache):
    # one column fewer, with the manifest's digest rewritten to match
    shutil.copytree(root / "cache", cache)
    rel = "households/h000/matrix_base.npy"
    np.save(cache / rel, np.load(cache / rel)[:, :-1])
    manifest = json.loads((cache / "manifest.json").read_text())
    manifest["digests"][rel] = hashlib.sha256((cache / rel).read_bytes()).hexdigest()
    (cache / "manifest.json").write_text(json.dumps(manifest))


def _drop_the_manifest(root, cache):
    shutil.copytree(root / "cache", cache)
    (cache / "manifest.json").unlink()


def _prepare_without_weather(root, cache):
    assert main(["prepare", "--meters", str(root / "synth" / "meters.csv"),
                 "--out", str(cache), "--k", "6",
                 "--weather-variant", "without"]) == 0


@pytest.mark.parametrize("make_cache,config,message", [
    (_with_manifest(lambda text: text[:len(text) // 2]), {},
     "{cache}: manifest.json is not JSON"),
    (_with_manifest(lambda text: '{"format": 1}'), {},
     "{cache}: manifest.json has no field 'digests'"),
    (_with_manifest(lambda text: "[1, 2]"), {},
     "{cache}: manifest.json is not a JSON object"),
    (_with_manifest(lambda text: text.replace('"format": 1', '"format": 2')), {},
     "{cache}: unsupported cache format 2"),
    (_tamper_with_a_matrix, {},
     "{cache}: digest mismatch for households/h000/matrix_base.npy"),
    (_narrow_a_matrix, {},
     "{cache}: households/h000/matrix_base.npy is not an (N, 5) matrix"),
    (_drop_the_manifest, {},
     "{cache}: not a prepared-data directory (no manifest.json)"),
    (lambda root, cache: shutil.copytree(root / "cache", cache), {"k": 12},
     "K=12 was not prepared (have (6,))"),
    (lambda root, cache: shutil.copytree(root / "cache", cache), {"k": [6, 12]},
     "K=12 was not prepared (have (6,))"),
    (_prepare_without_weather, {"weather": True},
     "weather variant requested but cache has none"),
], ids=["truncated-manifest", "manifest-without-fields", "manifest-not-an-object",
        "format-2", "tampered-matrix", "narrowed-matrix", "no-manifest", "unprepared-k",
        "one-k-unprepared", "no-weather-variant"])
def test_a_cache_that_cannot_serve_the_run_is_an_input_error(
        pipeline, tmp_path, capsys, make_cache, config, message):
    root, _ = pipeline
    cache = tmp_path / "cache"
    make_cache(root, cache)
    (tmp_path / "config.json").write_text(
        json.dumps(base_config(data=str(cache), **config)))
    capsys.readouterr()
    assert main(["run", "--config", str(tmp_path / "config.json"),
                 "--out", str(tmp_path / "runs")]) == 2
    assert capsys.readouterr().err.startswith(
        "error: " + message.format(cache=cache))
    # refused before any entry trains: no run directory is made
    assert not (tmp_path / "runs").exists()


# ------------------------------------------------ groups of related entries

GROUPED = [
    {"kind": "fl", "client_fraction": 0.5, "local_epochs": 1},
    {"kind": "fl_lft", "client_fraction": 0.5, "local_epochs": 1},
    {"kind": "fl_hc", "hc_threshold": 1e-9, "hc_linkage": "ward", "hc_rounds": 1},
    {"kind": "fl_hc", "hc_threshold": 1e9, "hc_linkage": "ward", "hc_rounds": 1},
    {"kind": "fl_hc_lft", "hc_threshold": 1e-9, "hc_linkage": "ward",
     "hc_rounds": 1},
]


def grouped_config(sections):
    return base_config(scenarios=sections, overrides=dict(
        SMALL_OVERRIDES, flhc_rounds_cap=3))


def run_into(root, out, raw, jobs=1):
    """Run `raw` against the pipeline's cache; (exit code, run directory)."""
    config = out / "config.json"
    out.mkdir(parents=True, exist_ok=True)
    config.write_text(json.dumps(dict(raw, data=str(root / "cache"))))
    code = main(["run", "--config", str(config), "--out", str(out / "runs"),
                 "--jobs", str(jobs)])
    run_dirs = [p for p in (out / "runs").iterdir() if p.is_dir()]
    assert len(run_dirs) == 1
    return code, run_dirs[0]


class _ForkPool(ProcessPoolExecutor):
    """Forked workers, which inherit the test's monkeypatches whatever the
    default start method."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, mp_context=multiprocessing.get_context("fork"),
                         **kwargs)


class _ForkserverPool(ProcessPoolExecutor):
    """Workers that inherit nothing from the parent, as under Python 3.14's
    default start method on Linux."""

    def __init__(self, *args, **kwargs):
        super().__init__(
            *args, mp_context=multiprocessing.get_context("forkserver"), **kwargs)


def _use_pool(monkeypatch, pool):
    # `cmd_run` imports the pool from its module when --jobs is above 1
    monkeypatch.setattr("concurrent.futures.process.ProcessPoolExecutor", pool)


def entry_files(run_dir, entry_id):
    files = [run_dir / "logs" / f"{entry_id}.json"]
    files += sorted((run_dir / "models" / entry_id).glob("*.npy"))
    return {p.relative_to(run_dir): p.read_bytes() for p in files}


def test_related_entries_are_grouped():
    raw = base_config(scenarios=[{"kind": "centralised"}, {"kind": "localised"},
                                 *GROUPED])
    _, entries = resolve_config(raw)
    groups = [[cfg.entry_id for cfg in group] for group in group_entries(entries)]
    assert sorted(e for group in groups for e in group) == sorted(
        cfg.entry_id for cfg in entries)
    assert [[e.split("__")[0] for e in group] for group in groups] == [
        ["centralised"], ["fl", "fl_lft"], ["fl_hc", "fl_hc", "fl_hc_lft"],
        ["localised"]]


def test_grouped_entries_match_entries_run_alone(pipeline, tmp_path):
    root, _ = pipeline
    code, serial = run_into(root, tmp_path / "serial", grouped_config(GROUPED))
    assert code == 0
    code, parallel = run_into(root, tmp_path / "parallel",
                              grouped_config(GROUPED), jobs=2)
    assert code == 0
    assert (serial / "results.json").read_bytes() == \
        (parallel / "results.json").read_bytes()
    for i, section in enumerate(GROUPED):
        code, alone = run_into(root, tmp_path / f"alone{i}",
                               grouped_config([section]))
        assert code == 0
        (entry_id,) = [p.stem for p in (alone / "logs").glob("*.json")]
        files = entry_files(alone, entry_id)
        assert len(files) >= 2  # the log and at least one model
        assert entry_files(serial, entry_id) == files
        assert entry_files(parallel, entry_id) == files


def test_failure_inside_a_group_keeps_completed_outputs(pipeline, tmp_path,
                                                        monkeypatch, capsys):
    # The tiny threshold's fl_hc entry fails after the huge threshold's entry
    # of its group finished: entries sorted before the failure are written,
    # nothing from it on, whichever group ran them.
    root, _ = pipeline
    real = scenarios.agglomerate

    def agglomerate(dist, linkage, threshold):
        if threshold < 1.0:
            raise NumericalError("clustering failed", param_index=7)
        return real(dist, linkage, threshold)
    monkeypatch.setattr(scenarios, "agglomerate", agglomerate)
    code, run_dir = run_into(root, tmp_path, grouped_config(GROUPED))
    assert code == 3
    assert "clustering failed" in capsys.readouterr().err
    failure = json.loads((run_dir / "failure.json").read_text())
    assert failure["error_class"] == "NumericalError"
    assert failure["param_index"] == 7
    assert failure["completed"] == [
        "fl__k6-w__f0.5_e1", "fl_hc__k6-w__f0.1_e3__n1_t1e+09_ward"]
    assert sorted(p.stem for p in (run_dir / "logs").iterdir()) == \
        failure["completed"]
    assert sorted(p.name for p in (run_dir / "models").iterdir()) == \
        failure["completed"]
    assert not (run_dir / "results.json").exists()


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_data_error_inside_a_group_writes_failure_json(pipeline, tmp_path,
                                                         monkeypatch, capsys,
                                                         jobs):
    # every FedcastError, not only a numerical one, ends its group with the
    # completed entries and failure.json written, serial or in a worker
    root, _ = pipeline
    real = scenarios.agglomerate

    def agglomerate(dist, linkage, threshold):
        if threshold < 1.0:
            raise DataError("no usable clusters")
        return real(dist, linkage, threshold)
    monkeypatch.setattr(scenarios, "agglomerate", agglomerate)
    _use_pool(monkeypatch, _ForkPool)
    code, run_dir = run_into(root, tmp_path, grouped_config(GROUPED), jobs=jobs)
    assert code == 2
    assert "no usable clusters" in capsys.readouterr().err
    failure = json.loads((run_dir / "failure.json").read_text())
    assert failure == {
        "error": "no usable clusters", "error_class": "DataError",
        "param_index": None,
        "completed": ["fl__k6-w__f0.5_e1", "fl_hc__k6-w__f0.1_e3__n1_t1e+09_ward"]}
    assert sorted(p.stem for p in (run_dir / "logs").iterdir()) == \
        failure["completed"]
    assert not (run_dir / "results.json").exists()


def _die_in_the_clustered_group(digest, group):
    """`_run_group` whose worker dies once the parent holds the other result.

    Module-level, so the pool can pickle it by name; forked workers inherit
    the patched `fedcast.cli._run_group` and the marker path.
    """
    if group[0].kind != "fl_hc":
        return _run_group(digest, group)
    marker = Path(os.environ["FEDCAST_TEST_MARKER"])
    deadline = time.monotonic() + 60
    while not marker.exists() and time.monotonic() < deadline:
        time.sleep(0.05)
    os._exit(1)


class _MarkingPool(_ForkPool):
    """Touches the marker once the unclustered group's result is in."""

    def submit(self, fn, digest, group):
        future = super().submit(fn, digest, group)
        if group[0].kind != "fl_hc":
            marker = Path(os.environ["FEDCAST_TEST_MARKER"])
            future.add_done_callback(lambda _: marker.touch())
        return future


def _kill_the_clustered_group(monkeypatch, marker):
    """Make the next `run --jobs 2` of GROUPED lose its fl_hc group's worker."""
    monkeypatch.setenv("FEDCAST_TEST_MARKER", str(marker))
    monkeypatch.setattr(cli, "_run_group", _die_in_the_clustered_group)
    _use_pool(monkeypatch, _MarkingPool)


def test_a_dead_worker_writes_failure_json(pipeline, tmp_path, monkeypatch,
                                           capsys):
    # a worker killed outright breaks the pool: the finished group's entries
    # sorted before the lost group are written, then failure.json, exit 4
    root, _ = pipeline
    _kill_the_clustered_group(monkeypatch, tmp_path / "fl-group-done")
    code, run_dir = run_into(root, tmp_path, grouped_config(GROUPED), jobs=2)
    assert code == 4
    assert "error: a worker process died" in capsys.readouterr().err
    failure = json.loads((run_dir / "failure.json").read_text())
    assert failure["error_class"] == "BrokenProcessPool"
    assert failure["param_index"] is None
    assert failure["completed"] == ["fl__k6-w__f0.5_e1"]
    assert sorted(p.stem for p in (run_dir / "logs").iterdir()) == \
        failure["completed"]
    assert sorted(p.name for p in (run_dir / "models").iterdir()) == \
        failure["completed"]
    assert not (run_dir / "results.json").exists()
    assert not (run_dir / "manifest.json").exists()


RESULT_FILES = ("results.json", "results.csv", "tables.txt", "manifest.json")


def test_a_successful_rerun_removes_the_failure(pipeline, tmp_path, monkeypatch):
    root, _ = pipeline
    _kill_the_clustered_group(monkeypatch, tmp_path / "fl-group-done")
    code, run_dir = run_into(root, tmp_path, grouped_config(GROUPED), jobs=2)
    assert code == 4 and (run_dir / "failure.json").is_file()
    monkeypatch.undo()
    code, rerun_dir = run_into(root, tmp_path, grouped_config(GROUPED), jobs=2)
    assert code == 0 and rerun_dir == run_dir
    assert not (run_dir / "failure.json").exists()
    assert all((run_dir / name).is_file() for name in RESULT_FILES)
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert sorted(str(p.relative_to(run_dir)) for p in run_dir.rglob("*")
                  if p.is_file()) == sorted(manifest["files"])


def test_a_failed_rerun_removes_the_results(pipeline, tmp_path, monkeypatch,
                                            capsys):
    root, _ = pipeline
    code, run_dir = run_into(root, tmp_path, grouped_config(GROUPED), jobs=2)
    assert code == 0
    _kill_the_clustered_group(monkeypatch, tmp_path / "fl-group-done")
    code, rerun_dir = run_into(root, tmp_path, grouped_config(GROUPED), jobs=2)
    assert code == 4 and rerun_dir == run_dir
    assert (run_dir / "failure.json").is_file()
    assert not any((run_dir / name).exists() for name in RESULT_FILES)
    completed = json.loads((run_dir / "failure.json").read_text())["completed"]
    assert sorted(p.stem for p in (run_dir / "logs").iterdir()) == completed
    assert sorted(p.name for p in (run_dir / "models").iterdir()) == completed
    capsys.readouterr()
    assert main(["report", str(run_dir)]) == 2
    assert "not a run directory" in capsys.readouterr().err


def _fail_in_phase_3(monkeypatch, failures):
    """Make every federated-round training of a client in `failures` fail
    from a round on.

    `failures` maps a household id to (first failing round, param_index).
    A call with failing sessions raises what `fit_epochs` raises: the first
    failing session's NumericalError, naming its row.  Module patches are
    inherited by forked workers.
    """
    keys = {}
    real_stream, real_fit = scenarios.stream, scenarios.fit_epochs

    def stream(*key):
        gen = real_stream(*key)
        keys[id(gen)] = (gen, key)  # the generator kept alive keeps its id
        return gen

    def fit_epochs(sessions, *args, **kwargs):
        for i, session in enumerate(sessions):
            _, (_, *key) = keys[id(session.gen)]
            for hid, (first, index) in failures.items():
                if key[:3] == [TRAIN, key_int(hid), ROUND] and key[3] >= first:
                    raise NumericalError(
                        f"non-finite gradient at parameter index {index}",
                        param_index=index, session=i)
        return real_fit(sessions, *args, **kwargs)
    monkeypatch.setattr(scenarios, "stream", stream)
    monkeypatch.setattr(scenarios, "fit_epochs", fit_epochs)


SINGLETONS = [
    {"kind": "centralised"},
    {"kind": "fl_hc", "hc_threshold": 1e-9, "hc_linkage": "ward", "hc_rounds": 1},
    {"kind": "fl_hc_lft", "hc_threshold": 1e-9, "hc_linkage": "ward",
     "hc_rounds": 1},
]


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("failures,expected", [
    # cluster 2 fails in phase 3's first round and cluster 0 in its second:
    # the clusters trained one after another raise cluster 0's error
    ({"h002": (2, 9), "h000": (3, 5)}, ("h000", 3, 5)),
    ({"h002": (2, 9)}, ("h002", 2, 9)),
])
def test_a_phase_3_failure_raises_the_serial_error(pipeline, tmp_path, monkeypatch,
                                                   capsys, jobs, failures,
                                                   expected):
    # Each of the three households is its own cluster, and cluster c is
    # household h00c.  Patience 2 lets every cluster reach round 3.
    root, _ = pipeline
    _fail_in_phase_3(monkeypatch, failures)
    _use_pool(monkeypatch, _ForkPool)
    raw = base_config(scenarios=SINGLETONS, overrides=dict(
        SMALL_OVERRIDES, patience=2, flhc_rounds_cap=4))
    code, run_dir = run_into(root, tmp_path, raw, jobs=jobs)
    assert code == 3
    hid, round_index, index = expected
    message = (f"round {round_index}: client {hid} failed: "
               f"non-finite gradient at parameter index {index}")
    assert message in capsys.readouterr().err
    assert json.loads((run_dir / "failure.json").read_text()) == {
        "error": message, "error_class": "NumericalError", "param_index": index,
        "completed": ["centralised__k6-w"]}


@pytest.mark.parametrize("scenario,cap,message", [
    ({"kind": "localised"}, "epochs_cap",
     "localised: client h000 failed: validation RMSE is inf"),
    ({"kind": "fl", "client_fraction": 1.0, "local_epochs": 1}, "fl_rounds_cap",
     "round 1: validation RMSE is inf"),
], ids=["localised", "fl"])
def test_a_diverging_run_is_a_numerical_failure(pipeline, tmp_path, capsys,
                                                scenario, cap, message):
    # One Adam step at a learning rate of 1e300 moves every weight by about
    # 1e300: the squared validation errors overflow and the score is inf.
    root, _ = pipeline
    raw = base_config(scenarios=[scenario],
                      overrides={"learning_rate": 1e300, cap: 3})
    code, run_dir = run_into(root, tmp_path, raw)
    assert code == 3
    assert f"numerical failure: {message}" in capsys.readouterr().err
    assert json.loads((run_dir / "failure.json").read_text()) == {
        "error": message, "error_class": "NumericalError", "param_index": None,
        "completed": []}


def test_a_serial_run_starts_no_group_after_a_failed_entry(pipeline, tmp_path,
                                                           monkeypatch, capsys):
    # groups run in entry_id order: once fl fails, the localised group,
    # whose entries all sort after it, could add no output and is not started
    root, _ = pipeline
    started = []
    real = fedcast.federation.run_scenario

    def run_scenario(datasets, cfg, memo=None):
        started.append(cfg.entry_id)
        if cfg.kind == "fl":
            raise DataError("fl failed")
        return real(datasets, cfg, memo)
    monkeypatch.setattr(fedcast.federation, "run_scenario", run_scenario)
    raw = base_config(scenarios=[{"kind": "localised"}, {"kind": "centralised"},
                                 {"kind": "fl", "client_fraction": 0.5}])
    code, run_dir = run_into(root, tmp_path, raw)
    assert code == 2 and "fl failed" in capsys.readouterr().err
    assert started == ["centralised__k6-w", "fl__k6-w__f0.5_e3"]
    assert json.loads((run_dir / "failure.json").read_text())["completed"] == [
        "centralised__k6-w"]


def test_an_out_that_is_a_file_is_refused_before_training(pipeline, tmp_path,
                                                          monkeypatch, capsys):
    root, _ = pipeline
    started = []
    real = fedcast.federation.run_scenario

    def run_scenario(datasets, cfg, memo=None):
        started.append(cfg.entry_id)
        return real(datasets, cfg, memo)
    monkeypatch.setattr(fedcast.federation, "run_scenario", run_scenario)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(base_config(data=str(root / "cache"))))
    out = tmp_path / "runs"
    out.write_text("not a directory")
    capsys.readouterr()
    assert main(["run", "--config", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert started == []
    assert out.read_text() == "not a directory"


def test_workers_that_inherit_nothing_match_a_serial_run(pipeline, tmp_path,
                                                         monkeypatch):
    # a forkserver worker starts without the parent's datasets and builds
    # them from the prepared data the pool hands it
    root, _ = pipeline
    code, serial = run_into(root, tmp_path / "serial", grouped_config(GROUPED))
    assert code == 0
    _use_pool(monkeypatch, _ForkserverPool)
    code, parallel = run_into(root, tmp_path / "forkserver",
                              grouped_config(GROUPED), jobs=2)
    assert code == 0
    for name in ("results.json", "results.csv", "tables.txt"):
        assert (serial / name).read_bytes() == (parallel / name).read_bytes()


# --------------------------------------------------------- crash-safe outputs

def test_a_write_that_raises_leaves_no_file(tmp_path):
    target = tmp_path / "out.json"
    with pytest.raises(RuntimeError):
        with atomic_write(target) as fh:
            fh.write('{"half": ')
            raise RuntimeError("killed mid-write")
    assert list(tmp_path.iterdir()) == []
    target.write_text("old")
    with pytest.raises(RuntimeError):
        with atomic_write(target) as fh:
            fh.write("new")
            raise RuntimeError("killed mid-write")
    assert target.read_text() == "old"
    assert list(tmp_path.iterdir()) == [target]


def test_an_entry_log_that_fails_midway_is_not_written(tmp_path):
    # json.dump writes the keys before "z" and then refuses the NaN
    report = {"entry_id": "x", "a": 1.0, "z": float("nan")}
    with pytest.raises(ValueError):
        _write_entry_outputs(tmp_path, "x", report, {"global": np.zeros(3)})
    assert list((tmp_path / "logs").iterdir()) == []


def test_a_cache_write_that_fails_midway_leaves_no_partial_file(
        tiny_prepared, tmp_path, monkeypatch):
    write_cache(tiny_prepared, tmp_path / "whole")
    real_save = np.save
    saved = []

    def save_then_fail(fh, arr):
        if len(saved) == 2:
            fh.write(b"\x93NUMPY")  # part of a header, then the disk fills
            raise OSError("disk full")
        saved.append(fh.name)
        real_save(fh, arr)

    monkeypatch.setattr(np, "save", save_then_fail)
    cut = tmp_path / "cut"
    with pytest.raises(OSError):
        write_cache(tiny_prepared, cut)
    # the two files saved before the failure are whole; no partial matrix,
    # temporary file or manifest is left
    written = sorted(p.relative_to(cut) for p in cut.rglob("*") if p.is_file())
    assert len(written) == 2
    for rel in written:
        assert (cut / rel).read_bytes() == (tmp_path / "whole" / rel).read_bytes()


def test_run_outputs_leave_no_temporary_files(pipeline):
    _, run_dir = pipeline
    names = [p.name for p in run_dir.rglob("*")]
    assert names and not [n for n in names if n.startswith(".")]
    assert all(n.endswith(".npy") for n in
               (p.name for p in (run_dir / "models").rglob("*") if p.is_file()))


# ----------------------------------------------------------------- exit codes

def test_missing_config_is_a_usage_error(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)]) == 2
    assert "not found" in capsys.readouterr().err


def test_unparseable_config_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("raw,jobs,message", [
    (base_config(overrides={"batch_size": "32"}), 1, "batch_size"),
    (base_config(), 0, "--jobs"),
    (5, 1, "JSON object"),
])
def test_a_mistyped_config_or_jobs_is_a_usage_error(tmp_path, capsys, raw,
                                                    jobs, message):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    assert main(["run", "--config", str(config), "--out", str(tmp_path),
                 "--jobs", str(jobs)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


def test_bad_synthesize_arguments_fail_cleanly(tmp_path, capsys):
    assert main(["synthesize", "--n", "0", "--out", str(tmp_path)]) == 2
    capsys.readouterr()
    assert main(["synthesize", "--n", "2", "--start", "someday",
                 "--out", str(tmp_path)]) == 2
    assert "--start" in capsys.readouterr().err
    assert main(["synthesize", "--n", "2", "--start", "2013-01-01T00:30",
                 "--out", str(tmp_path)]) == 2
    assert "whole UTC hour" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_prepare_without_inputs_fails_cleanly(tmp_path, capsys):
    assert main(["prepare", "--meters", str(tmp_path / "none.csv"),
                 "--out", str(tmp_path / "c"), "--k", "6",
                 "--weather-variant", "without"]) == 2
    capsys.readouterr()
    # weather variants need a weather file
    assert main(["prepare", "--meters", str(tmp_path / "none.csv"),
                 "--out", str(tmp_path / "c"), "--k", "6"]) == 2
    assert "--weather" in capsys.readouterr().err


def test_a_meter_file_of_only_its_header_prepares_nothing(tmp_path, capsys):
    meters = tmp_path / "meters.csv"
    meters.write_text("household_id,timestamp,kwh\n")
    assert ingest_meter_csv(meters) == ({}, 0)
    assert main(["prepare", "--meters", str(meters), "--out", str(tmp_path / "c"),
                 "--k", "6", "--weather-variant", "without"]) == 2
    assert capsys.readouterr().err == "error: no households in the input\n"
    assert not (tmp_path / "c").exists()


def test_prepare_has_no_with_weather_variant(tmp_path, capsys):
    # `with` prepared exactly what the default `both` does
    with pytest.raises(SystemExit) as exit_:
        main(["prepare", "--meters", str(tmp_path / "m.csv"),
              "--out", str(tmp_path / "c"), "--weather-variant", "with"])
    assert exit_.value.code == 2
    assert "invalid choice: 'with'" in capsys.readouterr().err


GOOD_RESULTS = json.dumps({"entries": []})
GOOD_MANIFEST = json.dumps({"data_digest": "abc"})
GOOD_ENTRY = {"entry_id": "fl__k12-w__f0.1_e3", "seed": 0, "scenario": "fl",
              "k": 12, "weather": False, "mean_rmse": 0.1,
              "best_client_rmse": 0.05, "total_samples": 10,
              "best_val_rmse": 0.2}


def results_with(**fields):
    """results.json holding GOOD_ENTRY with `fields` changed."""
    return json.dumps({"entries": [dict(GOOD_ENTRY, **fields)]})


@pytest.mark.parametrize("results,manifest,message", [
    (None, None, "not a run directory"),
    ("nope", GOOD_MANIFEST, "results.json: not JSON"),
    (GOOD_RESULTS, "nope", "manifest.json: not JSON"),
    ("{}", GOOD_MANIFEST, "results.json: no list of entries"),
    ('{"entries": 3}', GOOD_MANIFEST, "results.json: no list of entries"),
    (GOOD_RESULTS, "[1]", "manifest.json: no data digest"),
    (GOOD_RESULTS, '{"data_digest": 5}', "manifest.json: no data digest"),
    ('{"entries": [1]}', GOOD_MANIFEST, "results.json: an entry is not an object"),
    ('{"entries": [{}]}', GOOD_MANIFEST, "results.json: an entry has no entry_id"),
    ('{"entries": [{"entry_id": "x"}]}', GOOD_MANIFEST,
     "results.json: an entry has no seed"),
    (results_with(entry_id=["x"]), GOOD_MANIFEST,
     "results.json: an entry's entry_id is ['x'], not a string"),
    (results_with(mean_rmse=float("nan")), GOOD_MANIFEST,
     "results.json: an entry's mean_rmse is nan"),
    (results_with(weather="no"), GOOD_MANIFEST,
     "results.json: an entry's weather is 'no', not true or false"),
    (results_with(scenario="nope"), GOOD_MANIFEST,
     "results.json: an entry's scenario is 'nope', not one of"),
    (results_with(mean_rmse="0.1"), GOOD_MANIFEST,
     "results.json: an entry's mean_rmse is '0.1', not a finite number"),
    (results_with(total_samples="10"), GOOD_MANIFEST,
     "results.json: an entry's total_samples is '10', not an integer"),
    (results_with(k="12"), GOOD_MANIFEST,
     "results.json: an entry's k is '12', not an integer"),
    (results_with(seed=True), GOOD_MANIFEST,
     "results.json: an entry's seed is True, not an integer"),
    (results_with(best_val_rmse={"h0": "x"}), GOOD_MANIFEST,
     "results.json: an entry's best_val_rmse is {'h0': 'x'}"),
], ids=["empty", "results-not-json", "manifest-not-json", "results-no-entries",
        "entries-not-a-list", "manifest-not-an-object", "digest-not-a-string",
        "entry-not-an-object", "entry-without-fields", "entry-without-seed",
        "entry-id-a-list", "rmse-nan", "weather-a-string", "unknown-scenario",
        "rmse-a-string", "samples-a-string", "k-a-string", "seed-a-bool",
        "val-score-not-numbers"])
def test_report_refuses_non_run_directories(tmp_path, capsys, results, manifest,
                                            message):
    for name, text in (("results.json", results), ("manifest.json", manifest)):
        if text is not None:
            (tmp_path / name).write_text(text)
    assert main(["report", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def _subprocess_env() -> dict:
    """Environment in which a subprocess imports the same fedcast as the
    tests, installed or not."""
    src = str(Path(fedcast.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def test_outputs_do_not_depend_on_the_hash_seed(pipeline, tmp_path):
    # every other byte-identity test runs in this one interpreter, under
    # one string-hash seed; set ordering must not leak into any output
    root, _ = pipeline
    outputs = []
    for hash_seed in ("1", "2"):
        out = tmp_path / hash_seed
        out.mkdir()
        (out / "config.json").write_text(json.dumps(base_config(data="cache")))
        env = dict(_subprocess_env(), PYTHONHASHSEED=hash_seed)
        for argv in (["prepare", "--meters", str(root / "synth" / "meters.csv"),
                      "--weather", str(root / "synth" / "weather.csv"),
                      "--out", str(out / "cache"), "--k", "6"],
                     ["run", "--config", str(out / "config.json"),
                      "--out", str(out / "runs"), "--jobs", "2"]):
            proc = subprocess.run([sys.executable, "-m", "fedcast.cli", *argv],
                                  capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
        run_dir, = (out / "runs").iterdir()
        outputs.append([(out / "cache" / "manifest.json").read_bytes()]
                       + [(run_dir / name).read_bytes()
                          for name in ("results.json", "tables.txt")])
    assert outputs[0] == outputs[1]


def test_console_script_is_wired_up():
    proc = subprocess.run([sys.executable, "-m", "fedcast.cli", "--version"],
                          capture_output=True, text=True, env=_subprocess_env())
    assert proc.returncode == 0
    assert proc.stdout.strip()


UNUSED_BY_DATA_COMMANDS = ("fedcast.federation", "fedcast.nn",
                           "fedcast.clustering", "fedcast.reporting",
                           "concurrent.futures.process")


@pytest.mark.parametrize("command,unused", [
    ("prepare", UNUSED_BY_DATA_COMMANDS + ("fedcast.data.synthetic",
                                           "fedcast.seeding")),
    ("run", ("concurrent.futures.process", "fedcast.data.synthetic")),
    ("synthesize", UNUSED_BY_DATA_COMMANDS),
    ("report", ("fedcast.federation", "fedcast.nn", "fedcast.clustering",
                "fedcast.data", "fedcast.seeding", "concurrent.futures.process")),
])
def test_a_command_loads_only_the_layers_it_runs(pipeline, tmp_path, command,
                                                 unused):
    root, run_dir = pipeline
    if command == "prepare":
        argv = ["prepare", "--meters", str(root / "synth" / "meters.csv"),
                "--weather", str(root / "synth" / "weather.csv"),
                "--out", str(tmp_path / "cache"), "--k", "6"]
    elif command == "synthesize":
        argv = ["synthesize", "--n", "3", "--days", "2", "--out", str(tmp_path)]
    elif command == "report":
        argv = ["report", str(run_dir)]
    else:
        argv = ["run", "--config", str(root / "config.json"),
                "--out", str(tmp_path), "--jobs", "1"]
    code = ("import json, sys; from fedcast.cli import main; "
            "code = main(sys.argv[2:]); "
            "print(json.dumps([m for m in sys.argv[1].split(',') "
            "if m in sys.modules])); sys.exit(code)")
    proc = subprocess.run(
        [sys.executable, "-c", code, ",".join(unused), *argv],
        capture_output=True, text=True, env=_subprocess_env())
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


def test_every_benchmark_trace_target_resolves():
    # perfbench/layertrace.py wraps package functions by module attribute;
    # a refactor that drops or renames one makes the traced benchmark fail.
    root = Path(__file__).resolve().parent.parent
    code = ("import sys; sys.path[:0] = sys.argv[1:]; import layertrace; "
            "layertrace.instrument(layertrace.Tracer())")
    proc = subprocess.run(
        [sys.executable, "-c", code, str(root / "perfbench"), str(root / "src")],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_every_traced_layer_records_spans(pipeline, tmp_path):
    # The CLI looks a layer's functions up when a command calls them, so a
    # span is recorded only if the traced name is the one the command reads.
    root, _ = pipeline
    tracer = Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"
    config = tmp_path / "config.json"
    config.write_text(json.dumps(base_config(data="cache", scenarios=[
        {"kind": "fl_lft", "client_fraction": 0.5, "local_epochs": 1},
        {"kind": "fl_hc", "hc_threshold": 1e-9, "hc_linkage": "ward",
         "hc_rounds": 1},
    ])))
    commands = {
        "prepare": ["prepare", "--meters", str(root / "synth" / "meters.csv"),
                    "--out", str(tmp_path / "cache"), "--k", "6",
                    "--weather-variant", "without"],
        "run": ["run", "--config", str(config), "--out", str(tmp_path / "runs"),
                "--jobs", "1"],
    }
    names = set()
    for name, argv in commands.items():
        spans = tmp_path / f"spans_{name}.json"
        proc = subprocess.run(
            [sys.executable, str(tracer), str(spans), *argv],
            capture_output=True, text=True, env=_subprocess_env())
        assert proc.returncode == 0, proc.stderr
        names |= {span[0] for span in json.loads(spans.read_text())["spans"]}
    expected = {"data.ingest_meter_csv", "data.write_cache", "data.load_cache",
                "federation.run_scenario", "federation.fedavg_round",
                "federation.fit_epochs", "clustering.agglomerate",
                "reporting.emit_report"}
    assert expected <= names, sorted(expected - names)
