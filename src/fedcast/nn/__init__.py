"""From-scratch neural core: two-layer LSTM forecaster, BPTT, Adam."""

from .adam import adam_step
from .lstm import (
    HIDDEN_SIZE,
    compute_gradients,
    forward_batch,
    init_model,
    param_count,
    release_arena,
)

__all__ = [
    "HIDDEN_SIZE",
    "adam_step",
    "compute_gradients",
    "forward_batch",
    "init_model",
    "param_count",
    "release_arena",
]
