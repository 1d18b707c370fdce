"""From-scratch neural core: two-layer LSTM forecaster, BPTT, Adam."""

from .adam import adam_step
from .lstm import compute_gradients, forward_batch, init_model

__all__ = ["adam_step", "compute_gradients", "forward_batch", "init_model"]
