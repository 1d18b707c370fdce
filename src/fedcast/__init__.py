"""Short-term energy-demand forecasting under different training regimes.

The package simulates how one forecasting architecture (a two-layer LSTM
with a linear head) behaves when trained centrally on pooled data, locally
per household, by federated averaging, and by federated averaging followed
by update clustering and per-cluster or per-client specialisation.  It
reports forecast error (RMSE on normalised consumption) and computational
cost (optimizer-visited training sequences).
"""

__version__ = "0.1.0"
