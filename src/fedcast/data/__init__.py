"""Data pipeline: readings -> hourly series -> feature windows -> datasets.

The synthetic generator lives in `fedcast.data.synthetic` and loads only
when imported from there, so the commands that read real data never load
it or the seeding it needs.
"""

from .cleaning import HourlySeries, MeterReadings, clean_readings
from .features import (
    BASE_COLUMNS,
    WEATHER_COLUMNS,
    DesignMatrix,
    WeatherTable,
    build_design_matrix,
)
from .normalize import NormalizationParams, fit_normalizer, normalize
from .sequences import (
    HouseholdDataset,
    SequenceSet,
    build_household_dataset,
    make_sequences,
    split_chronological,
)
from .ingest import (
    ingest_meter_csv,
    ingest_weather_csv,
    write_meter_csv,
    write_weather_csv,
)
from .cache import (
    PreparedData,
    PreparedHousehold,
    dataset_digest,
    household_datasets,
    load_cache,
    prepare_datasets,
    write_cache,
)

__all__ = [
    "BASE_COLUMNS",
    "DesignMatrix",
    "HourlySeries",
    "HouseholdDataset",
    "MeterReadings",
    "NormalizationParams",
    "PreparedData",
    "PreparedHousehold",
    "SequenceSet",
    "WEATHER_COLUMNS",
    "WeatherTable",
    "build_design_matrix",
    "build_household_dataset",
    "clean_readings",
    "dataset_digest",
    "fit_normalizer",
    "household_datasets",
    "ingest_meter_csv",
    "ingest_weather_csv",
    "load_cache",
    "make_sequences",
    "normalize",
    "prepare_datasets",
    "split_chronological",
    "write_cache",
    "write_meter_csv",
    "write_weather_csv",
]


def __getattr__(name):
    # perfbench/run.py imports the generator from the package: load it then.
    if name == "generate_synthetic_households":
        from .synthetic import generate_synthetic_households
        return generate_synthetic_households
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
