"""Golden bytes: what `synthesize`, `prepare` and `run` write, pinned by sha256.

The `synthesize` and `prepare` digests were recorded before the synthetic
generator, the weather ingest and the CSV writers became columnar, so they
pin that no output byte moved: the CSVs, archetypes.json and the prepared
cache's dataset digest.

A run's bytes also depend on the host's numerics: numpy's SIMD loops and
the OpenBLAS kernels both change the last bits of trained weights.  So the
golden run's results.json is pinned per numerics fingerprint, the one a
run's manifest.json records, and on a host with another fingerprint the
case skips, naming the digest it computed.
"""

import hashlib
import json

import pytest

from fedcast.cli import main
from fedcast.data import dataset_digest
from fedcast.numerics import numerics_fingerprint

CASES = [
    pytest.param(
        ["--n", "5", "--seed", "11", "--days", "6"],
        {"meters.csv": "c3099e2e2fdd5c386adc558ddf1462d6cc174eb3b844903e72b3bb23ff2e891a",
         "weather.csv": "917bb1137239de32fceae07574092ce26b6bd43b15f858306a85bb1e0cb6cc94",
         "archetypes.json": "8fd59e61e166d2ab319af83d82e94f28f9ee9face40d7f68641a83745dc3fa98"},
        ("6", "e7455a8077dd59fff537e3d78e035889a61f3e5c8dc9a096991a6a2beadaa8c4"),
        id="n5-d6"),
    pytest.param(
        ["--n", "20", "--seed", "11", "--days", "90"],
        {"meters.csv": "e0b55823877561e7446135bc51bd38ebccb2b5272dc3de0af04e263291de93da",
         "weather.csv": "8213e2e08ee19b7a4faa28af3185c6d7d43b6016852f5a6c0df597d0cca8f203",
         "archetypes.json": "56f9dfd879752fb1a6915e61e8a350b77280721fe7af1a0192a34552888459c0"},
        ("12", "d5876631a4199ded798e6e016ec9da4e57509059f0a49bf4c7c02c1d9dd3fcec"),
        id="n20-d90"),
    # past h999, rows stay in id order: sorting the ids would put h1000 first
    pytest.param(
        ["--n", "1001", "--seed", "11", "--days", "1"],
        {"meters.csv": "5008df6b10d06dfd5079637939021fe1f0dfc62802c111e9da8a48ae9fe47dd4",
         "weather.csv": "831badb7da41717959933696bb89d4d2223a722fb556bc83abe3c5b58f712c6e",
         "archetypes.json": "5db583b5847fde3e93be6d3c1a85310930d5b9ec2584aab7b751357192db1f1b"},
        None, id="n1001-d1"),
    # profiles and weather read local time, the files are stamped in UTC
    pytest.param(
        ["--n", "3", "--seed", "11", "--days", "2",
         "--start", "2013-06-01T00:00:00+01:00"],
        {"meters.csv": "8f0d7fe0f3b895035e0c9fa685db25b7b3fe82e41b479c6e106f6f53d956967f",
         "weather.csv": "26b5e29f0420c0be29a3b4dc6876b19ddaf6383aa261c0f5666b07743659f7ac",
         "archetypes.json": "116aecefef1216d73956e136e5d00641429f2ca0125b768060f1818f71a48a4d"},
        None, id="utc+1-start"),
    # a leap year's end
    pytest.param(
        ["--n", "3", "--seed", "23", "--days", "3", "--start", "2016-12-30"],
        {"meters.csv": "6f0be2294e54acb2a2a724a02c0643397b719b70668ea1f29f1a5bf5e58da33a",
         "weather.csv": "f5c3a8d1ca49d59091dd68c8c63019882805181d9ea3aebf739f09b07e30150f",
         "archetypes.json": "116aecefef1216d73956e136e5d00641429f2ca0125b768060f1818f71a48a4d"},
        None, id="year-end-start"),
]


@pytest.mark.parametrize("args,files,prepared", CASES)
def test_synthesize_and_prepare_write_the_golden_bytes(tmp_path, args, files, prepared):
    synth = tmp_path / "synth"
    assert main(["synthesize", *args, "--out", str(synth)]) == 0
    digests = {name: hashlib.sha256((synth / name).read_bytes()).hexdigest()
               for name in files}
    assert digests == files
    if prepared is not None:
        k, expected = prepared
        assert main(["prepare", "--meters", str(synth / "meters.csv"),
                     "--weather", str(synth / "weather.csv"),
                     "--out", str(tmp_path / "cache"), "--k", k]) == 0
        manifest = json.loads((tmp_path / "cache" / "manifest.json").read_text())
        assert dataset_digest(manifest) == expected


# results.json sha256 of the golden run, per numerics fingerprint
GOLDEN_RUN = {
    ("2.4.6", ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"), "SkylakeX"):
        "a673838d830c7dc5830cdd511e2334581e8a7920f828e58a7d341caa8ff57354",
}


def test_a_run_of_every_regime_writes_the_golden_bytes(tmp_path):
    # seven entries over the six regimes with short caps: under a second
    assert main(["synthesize", "--n", "6", "--days", "12", "--seed", "11",
                 "--out", str(tmp_path / "synth")]) == 0
    assert main(["prepare", "--meters", str(tmp_path / "synth" / "meters.csv"),
                 "--out", str(tmp_path / "cache"), "--k", "6",
                 "--weather-variant", "without"]) == 0
    hc = {"hc_linkage": "ward", "hc_rounds": 2}
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "data": "cache", "seed": 11, "k": 6, "weather": False,
        "scenarios": [
            {"kind": "centralised"}, {"kind": "localised"},
            {"kind": "fl", "client_fraction": 0.1, "local_epochs": 3},
            {"kind": "fl_hc", "hc_threshold": [0.8, 1.4], **hc},
            {"kind": "fl_lft", "client_fraction": 0.1, "local_epochs": 3},
            {"kind": "fl_hc_lft", "hc_threshold": 1.4, **hc}],
        "overrides": {"epochs_cap": 3, "fl_rounds_cap": 4, "flhc_rounds_cap": 5,
                      "lft_epochs_cap": 2}}))
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "runs")]) == 0
    run_dir, = (tmp_path / "runs").iterdir()
    assert len(json.loads((run_dir / "results.json").read_text())["entries"]) == 7
    digest = hashlib.sha256((run_dir / "results.json").read_bytes()).hexdigest()
    # the run records the fingerprint its bytes were made under
    numpy_version, targets, core = json.loads(
        (run_dir / "manifest.json").read_text())["numerics"]
    fingerprint = (numpy_version, tuple(targets), core)
    assert fingerprint == numerics_fingerprint()
    if fingerprint not in GOLDEN_RUN:
        pytest.skip(f"no golden run for numerics {fingerprint}; "
                    f"results.json sha256 here is {digest}")
    assert digest == GOLDEN_RUN[fingerprint]
