"""Training regimes: centralised, localised, federated, clustered, fine-tuned."""

from .config import ScenarioConfig
from .scenarios import group_entries, recount_samples, run_scenario

__all__ = ["ScenarioConfig", "group_entries", "recount_samples", "run_scenario"]
