"""Data pipeline: readings -> hourly series -> feature windows -> datasets."""

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
from .synthetic import (
    ARCHETYPES,
    SyntheticPopulation,
    generate_synthetic_households,
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
    "ARCHETYPES",
    "BASE_COLUMNS",
    "DesignMatrix",
    "HourlySeries",
    "HouseholdDataset",
    "MeterReadings",
    "NormalizationParams",
    "PreparedData",
    "PreparedHousehold",
    "SequenceSet",
    "SyntheticPopulation",
    "WEATHER_COLUMNS",
    "WeatherTable",
    "build_design_matrix",
    "build_household_dataset",
    "clean_readings",
    "dataset_digest",
    "fit_normalizer",
    "generate_synthetic_households",
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
