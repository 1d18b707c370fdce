"""Prepared-dataset cache: cleaned matrices, split boundaries, normalizers.

`prepare_datasets` runs the full pipeline (clean, featurise, split, fit
normalizers) and the result can be written to a directory of .npy files plus
a JSON manifest.  Data files are written deterministically, so re-preparing
unchanged inputs reproduces the cache byte for byte; the manifest records a
sha256 digest per file.  Windowed datasets are materialised from the cache
at load time for whichever (K, weather) variant a run asks for.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..atomic import atomic_write
from ..errors import DataError, ValidationError
from .cleaning import clean_readings
from .features import DesignMatrix, WeatherTable, build_design_matrix
from .normalize import NormalizationParams, fit_normalizer, normalize
from .sequences import build_household_dataset, split_chronological

CACHE_FORMAT = 1
HIGH_FILL_THRESHOLD = 0.10

VARIANT_BASE = "base"
VARIANT_WEATHER = "weather"


@dataclass(frozen=True)
class PreparedHousehold:
    hours: np.ndarray                     # (N,) int64
    matrices: dict                        # variant -> raw (unnormalised) DesignMatrix
    train_end: int
    val_end: int
    filled_fraction: float

    @property
    def n_rows(self) -> int:
        return len(self.hours)


@dataclass(frozen=True)
class PreparedData:
    households: dict                      # household_id -> PreparedHousehold
    k_values: tuple
    variants: tuple
    normalizers: dict                     # variant -> NormalizationParams

    @property
    def household_ids(self) -> tuple:
        return tuple(sorted(self.households))

    def flags(self) -> dict:
        """Per-household data-quality flags (heavy forward-fill)."""
        return {
            hid: {"filled_fraction": h.filled_fraction,
                  "high_fill": h.filled_fraction > HIGH_FILL_THRESHOLD}
            for hid, h in sorted(self.households.items())
        }


def prepare_datasets(readings_by_household: dict, weather: WeatherTable | None,
                     k_values, with_weather: bool) -> PreparedData:
    """Clean and featurise every household and fit shared normalizers.

    `readings_by_household` maps household ids to `MeterReadings`.  Produces
    the plain-feature variant always, plus the weather variant when
    `with_weather` is set (`weather` is then required and must cover every
    metered hour).
    """
    k_values = tuple(sorted(set(int(k) for k in k_values)))
    if not k_values or any(k < 1 for k in k_values):
        raise ValidationError("need at least one window length K >= 1")
    if not readings_by_household:
        raise DataError("no households in the input")
    variants = (VARIANT_BASE, VARIANT_WEATHER) if with_weather else (VARIANT_BASE,)
    if with_weather and not weather:
        raise DataError("weather variant requested but no weather data given")

    max_k = max(k_values)
    households = {}
    for hid in sorted(readings_by_household):
        series = clean_readings(readings_by_household[hid], household_id=hid)
        matrices = {VARIANT_BASE: build_design_matrix(series)}
        if with_weather:
            matrices[VARIANT_WEATHER] = build_design_matrix(series, weather)
        n = len(series)
        train_end, val_end = split_chronological(n, max_k)
        for lo, hi in ((0, train_end), (train_end, val_end), (val_end, n)):
            if hi - lo <= max_k:
                raise DataError(
                    f"{hid}: split of {hi - lo} rows is too short for K={max_k}")
        households[hid] = PreparedHousehold(
            hours=series.hours,
            matrices=matrices,
            train_end=train_end,
            val_end=val_end,
            filled_fraction=series.filled_fraction,
        )

    normalizers = {}
    ordered = [households[hid] for hid in sorted(households)]
    for variant in variants:
        normalizers[variant] = fit_normalizer(
            [h.matrices[variant] for h in ordered],
            [h.train_end for h in ordered],
        )
    return PreparedData(households, k_values, variants, normalizers)


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def dataset_digest(manifest: dict) -> str:
    """Stable identity of the prepared data: digest of the per-file digests."""
    blob = json.dumps(manifest["digests"], sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def write_cache(prep: PreparedData, out_dir) -> dict:
    """Write .npy matrices plus manifest.json; returns the manifest dict."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    digests = {}
    entries = []
    for hid in prep.household_ids:
        house = prep.households[hid]
        hdir = out / "households" / hid
        hdir.mkdir(parents=True, exist_ok=True)
        files = {"hours": f"households/{hid}/hours.npy"}
        arrays = {"hours": house.hours}
        for variant in prep.variants:
            files[variant] = f"households/{hid}/matrix_{variant}.npy"
            arrays[variant] = house.matrices[variant].values
        for key, rel in files.items():
            # a file handle, so np.save adds no ".npy" to the temporary name
            with atomic_write(out / rel, "wb") as fh:
                np.save(fh, arrays[key])
            digests[rel] = _sha256(out / rel)
        entries.append({
            "household_id": hid,
            "rows": house.n_rows,
            "train_end": house.train_end,
            "val_end": house.val_end,
            "filled_fraction": house.filled_fraction,
            "files": files,
        })
    datasets = [
        {"household_id": hid, "k": k, "weather": variant == VARIANT_WEATHER}
        for hid in prep.household_ids
        for k in prep.k_values
        for variant in prep.variants
    ]
    manifest = {
        "format": CACHE_FORMAT,
        "k_values": list(prep.k_values),
        "variants": list(prep.variants),
        "datasets": datasets,
        "households": entries,
        "normalizers": {v: prep.normalizers[v].to_dict() for v in prep.variants},
        "flags": prep.flags(),
        "digests": digests,
    }
    with atomic_write(out / "manifest.json") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


def load_cache(cache_dir) -> tuple[PreparedData, dict]:
    """Read a cache directory back; verifies file digests."""
    cache = Path(cache_dir)
    manifest_path = cache / "manifest.json"
    if not manifest_path.is_file():
        raise DataError(f"{cache}: not a prepared-data directory (no manifest.json)")
    manifest = json.loads(manifest_path.read_text())
    if manifest.get("format") != CACHE_FORMAT:
        raise DataError(f"{cache}: unsupported cache format {manifest.get('format')!r}")
    variants = tuple(manifest["variants"])
    normalizers = {v: NormalizationParams.from_dict(manifest["normalizers"][v])
                   for v in variants}
    households = {}
    for entry in manifest["households"]:
        hid = entry["household_id"]
        for rel, digest in ((r, manifest["digests"][r]) for r in entry["files"].values()):
            actual = _sha256(cache / rel)
            if actual != digest:
                raise DataError(f"{cache}: digest mismatch for {rel}")
        hours = np.load(cache / entry["files"]["hours"])
        matrices = {}
        for variant in variants:
            values = np.load(cache / entry["files"][variant])
            matrices[variant] = DesignMatrix(
                columns=normalizers[variant].columns, values=values, hours=hours)
        households[hid] = PreparedHousehold(
            hours=hours,
            matrices=matrices,
            train_end=int(entry["train_end"]),
            val_end=int(entry["val_end"]),
            filled_fraction=float(entry["filled_fraction"]),
        )
    prep = PreparedData(households, tuple(manifest["k_values"]), variants, normalizers)
    return prep, manifest


def household_datasets(prep: PreparedData, k: int, with_weather: bool) -> list:
    """Materialise normalised, windowed datasets for one (K, weather) variant."""
    if k not in prep.k_values:
        raise ValidationError(f"K={k} was not prepared (have {prep.k_values})")
    variant = VARIANT_WEATHER if with_weather else VARIANT_BASE
    if variant not in prep.variants:
        raise ValidationError("weather variant requested but cache has none")
    params = prep.normalizers[variant]
    out = []
    for hid in prep.household_ids:
        house = prep.households[hid]
        matrix = normalize(house.matrices[variant], params)
        out.append(build_household_dataset(
            hid, matrix, k, params.energy_range,
            splits=(house.train_end, house.val_end)))
    return out
