"""From-scratch neural core: two-layer LSTM forecaster, BPTT, Adam."""

from .adam import AdamState, adam_step
from .lstm import (
    HIDDEN_SIZE,
    compute_gradients,
    forward_batch,
    init_model,
    param_count,
    release_arena,
)

__all__ = [
    "AdamState",
    "HIDDEN_SIZE",
    "adam_step",
    "compute_gradients",
    "forward_batch",
    "init_model",
    "param_count",
    "release_arena",
]
