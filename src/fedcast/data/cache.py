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
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..atomic import atomic_write, read_json, write_json
from ..errors import DataError, ValidationError
from .cleaning import clean_readings
from .features import BASE_COLUMNS, WEATHER_COLUMNS, WeatherTable, build_design_matrix
from .normalize import NormalizationParams, fit_normalizer, normalize
from .ingest import check_household_id
from .sequences import build_household_dataset, check_splits, split_chronological

CACHE_FORMAT = 1
HIGH_FILL_THRESHOLD = 0.10

VARIANT_BASE = "base"
VARIANT_WEATHER = "weather"
_COLUMNS = {VARIANT_BASE: BASE_COLUMNS, VARIANT_WEATHER: WEATHER_COLUMNS}


@dataclass(frozen=True)
class PreparedHousehold:
    hours: np.ndarray                     # (N,) int64
    matrices: dict                        # variant -> raw (unnormalised) (N, D) array
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
        raise DataError("weather variant requested but the weather data has no usable row")

    max_k = max(k_values)
    households = {}
    for hid in sorted(readings_by_household):
        series = clean_readings(readings_by_household[hid], household_id=hid)
        matrices = {VARIANT_BASE: build_design_matrix(series)}
        if with_weather:
            matrices[VARIANT_WEATHER] = build_design_matrix(series, weather)
        train_end, val_end = split_chronological(len(series))
        check_splits(hid, len(series), train_end, val_end, max_k)
        households[hid] = PreparedHousehold(
            hours=series.hours,
            matrices=matrices,
            train_end=train_end,
            val_end=val_end,
            filled_fraction=series.filled_fraction,
        )

    ordered = [households[hid] for hid in sorted(households)]
    normalizers = {v: fit_normalizer([h.matrices[v] for h in ordered],
                                     [h.train_end for h in ordered], _COLUMNS[v])
                   for v in variants}
    return PreparedData(households, k_values, variants, normalizers)


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
        files = {"hours": f"households/{hid}/hours.npy",
                 **{v: f"households/{hid}/matrix_{v}.npy" for v in prep.variants}}
        arrays = {"hours": house.hours, **house.matrices}
        for key, rel in files.items():
            buf = io.BytesIO()
            np.save(buf, arrays[key])
            with atomic_write(out / rel, "wb") as fh:
                fh.write(buf.getbuffer())
            digests[rel] = hashlib.sha256(buf.getbuffer()).hexdigest()
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
    write_json(out / "manifest.json", manifest)
    return manifest


def load_cache(cache_dir) -> tuple[PreparedData, dict]:
    """Read a cache directory back, checking its file digests, household ids
    and splits; a manifest that fails a check is a DataError naming the cache."""
    cache = Path(cache_dir)
    manifest = read_json(cache / "manifest.json")
    if manifest.get("format") != CACHE_FORMAT:
        raise DataError(f"{cache}: unsupported cache format {manifest.get('format')!r}")
    try:
        digests = manifest["digests"]
        variants = tuple(manifest["variants"])
        normalizers = {v: NormalizationParams.from_dict(manifest["normalizers"][v])
                       for v in variants}
        households = {}
        for entry in manifest["households"]:
            hid = check_household_id(entry["household_id"])
            arrays = {}
            for key, rel in entry["files"].items():
                blob = (cache / rel).read_bytes()  # read once: hashed, then loaded
                if hashlib.sha256(blob).hexdigest() != digests[rel]:
                    raise DataError(f"digest mismatch for {rel}")
                arrays[key] = np.load(io.BytesIO(blob))
            n_rows = len(arrays["hours"])
            for variant in variants:
                width = len(normalizers[variant].columns)
                if arrays[variant].shape != (n_rows, width):
                    raise DataError(f"{entry['files'][variant]} is not an "
                                    f"(N, {width}) matrix of the N={n_rows} hours")
            train_end, val_end = int(entry["train_end"]), int(entry["val_end"])
            check_splits(hid, n_rows, train_end, val_end, max(manifest["k_values"]))
            households[hid] = PreparedHousehold(
                hours=arrays["hours"],
                matrices={variant: arrays[variant] for variant in variants},
                train_end=train_end, val_end=val_end,
                filled_fraction=float(entry["filled_fraction"]),
            )
        prep = PreparedData(households, tuple(manifest["k_values"]), variants,
                            normalizers)
    except DataError as err:
        raise DataError(f"{cache}: {err}")
    except KeyError as err:
        raise DataError(f"{cache}: manifest.json has no field {err}")
    except (AttributeError, TypeError, ValueError) as err:
        raise DataError(f"{cache}: malformed manifest.json ({err})")
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
            hid, matrix, k, with_weather, params.energy_range,
            splits=(house.train_end, house.val_end)))
    return out
