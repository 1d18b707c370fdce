"""Training regimes: centralised, localised, federated, clustered, fine-tuned."""

from .config import (
    CLIENT_FRACTION_GRID,
    HC_LINKAGES,
    HC_ROUNDS_GRID,
    HC_THRESHOLD_GRID,
    LOCAL_EPOCHS_GRID,
    SCENARIO_KINDS,
    ScenarioConfig,
)
from .training import (
    EarlyStopper,
    Session,
    evaluate_rmse,
    fit_epochs,
    train_session,
)
from .scenarios import (
    fedavg_aggregate,
    fedavg_round,
    fine_tune,
    group_entries,
    recount_samples,
    run_scenario,
    sample_clients,
)

__all__ = [
    "CLIENT_FRACTION_GRID",
    "EarlyStopper",
    "HC_LINKAGES",
    "HC_ROUNDS_GRID",
    "HC_THRESHOLD_GRID",
    "LOCAL_EPOCHS_GRID",
    "SCENARIO_KINDS",
    "ScenarioConfig",
    "Session",
    "evaluate_rmse",
    "fedavg_aggregate",
    "fedavg_round",
    "fine_tune",
    "fit_epochs",
    "group_entries",
    "recount_samples",
    "run_scenario",
    "sample_clients",
    "train_session",
]
