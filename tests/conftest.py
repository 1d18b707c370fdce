import os

# Single-threaded BLAS before numpy loads anywhere: keeps every reduction
# bitwise reproducible, which several tests assert.
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[var] = "1"

import numpy as np
import pytest

from fedcast.data import generate_synthetic_households, household_datasets, prepare_datasets
from fedcast.federation import ScenarioConfig


@pytest.fixture(scope="session")
def tiny_population():
    """Four households over four days; enough rows for K=6 splits."""
    return generate_synthetic_households(4, archetypes=3, noise=0.05, seed=11, days=4)


@pytest.fixture(scope="session")
def tiny_prepared(tiny_population):
    return prepare_datasets(tiny_population.households, tiny_population.weather, [6], with_weather=True)


@pytest.fixture(scope="session")
def tiny_datasets(tiny_prepared):
    return household_datasets(tiny_prepared, 6, False)


def small_config(kind, **overrides):
    """Scenario config with caps small enough for sub-second training."""
    fields = dict(kind=kind, k=6, with_weather=False, seed=11,
                  epochs_cap=3, fl_rounds_cap=3, flhc_rounds_cap=4,
                  lft_epochs_cap=2, patience=2, batch_size=64)
    fields.update(overrides)
    return ScenarioConfig(**fields)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
