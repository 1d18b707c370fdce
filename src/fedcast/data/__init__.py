"""Data pipeline: readings -> hourly series -> feature windows -> datasets.

The synthetic generator lives in `fedcast.data.synthetic` and loads only
when imported from there, so the commands that read real data never load
it or the seeding it needs.
"""

from .ingest import (
    ingest_meter_csv,
    ingest_weather_csv,
    write_meter_csv,
    write_weather_csv,
)
from .cache import (
    dataset_digest,
    household_datasets,
    load_cache,
    prepare_datasets,
    write_cache,
)

__all__ = [
    "dataset_digest",
    "household_datasets",
    "ingest_meter_csv",
    "ingest_weather_csv",
    "load_cache",
    "prepare_datasets",
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
