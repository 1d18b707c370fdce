"""Scenario configuration: which regime to train and with what knobs.

Sweep grids mirror the hyperparameter values the experiments explore; a
single config holds one point of such a grid.  Under the clustered regimes
the pre-clustering phase always runs with client_fraction 0.1 and 3 local
epochs, so those two fields are validated rather than free.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from numbers import Integral, Real

from ..clustering import LINKAGES as HC_LINKAGES
from ..errors import ValidationError

# The scenario kinds, each with the config keys it takes; a run config sweeps
# a key given as a list.
_FL_KEYS = ("client_fraction", "local_epochs")
_HC_KEYS = _FL_KEYS + ("hc_threshold", "hc_linkage", "hc_rounds")
SCENARIO_KEYS = {
    "centralised": (),
    "localised": (),
    "fl": _FL_KEYS,
    "fl_hc": _HC_KEYS,
    "fl_lft": _FL_KEYS,
    "fl_hc_lft": _HC_KEYS,
}
SCENARIO_KINDS = tuple(SCENARIO_KEYS)
_FL_KINDS = tuple(kind for kind, keys in SCENARIO_KEYS.items()
                  if "client_fraction" in keys)
_HC_KINDS = tuple(kind for kind, keys in SCENARIO_KEYS.items() if "hc_rounds" in keys)

CLIENT_FRACTION_GRID = (0.1, 0.2, 0.3)
LOCAL_EPOCHS_GRID = (1, 3, 5)
HC_THRESHOLD_GRID = (0.8, 1.4, 2.0)
HC_ROUNDS_GRID = (3, 5, 10)

# Fields that must hold an integer and fields that must hold a number; a bool
# is neither.  An unset (None) clustering setting is checked by kind instead.
_INTEGER_FIELDS = ("k", "seed", "local_epochs", "hc_rounds", "batch_size",
                   "patience", "epochs_cap", "fl_rounds_cap", "flhc_rounds_cap",
                   "lft_epochs_cap")
_NUMBER_FIELDS = ("client_fraction", "hc_threshold", "learning_rate")


def _short(x) -> str:
    """`x` to 6 significant digits when that reads back as `x`, else in full."""
    text = f"{x:g}"
    return text if float(text) == x else repr(x)


@dataclass(frozen=True)
class ScenarioConfig:
    kind: str
    k: int
    with_weather: bool
    seed: int
    client_fraction: float = 0.1
    local_epochs: int = 3
    hc_threshold: float | None = None
    hc_linkage: str | None = None
    hc_rounds: int | None = None
    batch_size: int = 256
    learning_rate: float = 0.001
    patience: int = 10
    epochs_cap: int = 500       # centralised and localised
    fl_rounds_cap: int = 500
    flhc_rounds_cap: int = 200  # total across the pre- and post-clustering phases
    lft_epochs_cap: int = 25

    def __post_init__(self):
        if self.kind not in SCENARIO_KINDS:
            raise ValidationError(
                f"unknown scenario {self.kind!r}; expected one of {SCENARIO_KINDS}")
        for names, kind, noun in ((_INTEGER_FIELDS, Integral, "an integer"),
                                  (_NUMBER_FIELDS, Real, "a number")):
            for name in names:
                value = getattr(self, name)
                if value is None and name.startswith("hc_"):
                    continue
                if isinstance(value, bool) or not isinstance(value, kind):
                    raise ValidationError(f"{name} must be {noun}, got {value!r}")
        if not isinstance(self.with_weather, bool):
            raise ValidationError(
                f"with_weather must be true or false, got {self.with_weather!r}")
        if self.k < 1:
            raise ValidationError("window length K must be >= 1")
        if self.seed < 0:
            raise ValidationError("seed must be non-negative")
        if not 0.0 < self.client_fraction <= 1.0:
            raise ValidationError("client_fraction must lie in (0, 1]")
        if self.local_epochs < 1:
            raise ValidationError("local_epochs must be >= 1")
        if self.batch_size < 1 or not self.learning_rate > 0 or self.patience < 1:
            raise ValidationError("bad optimizer settings")
        for cap in (self.epochs_cap, self.fl_rounds_cap, self.flhc_rounds_cap,
                    self.lft_epochs_cap):
            if cap < 1:
                raise ValidationError("caps must be >= 1")
        if self.kind in _HC_KINDS:
            if self.hc_threshold is None or self.hc_linkage is None or self.hc_rounds is None:
                raise ValidationError(
                    f"{self.kind} needs hc_threshold, hc_linkage, and hc_rounds")
            if not self.hc_threshold > 0:
                raise ValidationError("hc_threshold must be positive")
            if self.hc_linkage not in HC_LINKAGES:
                raise ValidationError(
                    f"unknown linkage {self.hc_linkage!r}; expected one of {HC_LINKAGES}")
            if not 1 <= self.hc_rounds < self.flhc_rounds_cap:
                raise ValidationError("hc_rounds must leave room under flhc_rounds_cap")
            if self.client_fraction != 0.1 or self.local_epochs != 3:
                raise ValidationError(
                    "clustered regimes fix client_fraction=0.1 and local_epochs=3")
        elif self.hc_threshold is not None or self.hc_linkage is not None \
                or self.hc_rounds is not None:
            raise ValidationError(f"{self.kind} takes no clustering settings")

    @property
    def variant_label(self) -> str:
        return f"k{self.k}{'+w' if self.with_weather else '-w'}"

    @property
    def entry_id(self) -> str:
        """Stable, human-readable identity of this config inside a run."""
        parts = [self.kind, self.variant_label]
        if self.kind in _FL_KINDS:
            parts.append(f"f{_short(self.client_fraction)}_e{self.local_epochs}")
        if self.kind in _HC_KINDS:
            parts.append(
                f"n{self.hc_rounds}_t{_short(self.hc_threshold)}_{self.hc_linkage}")
        return "__".join(parts)

    def to_dict(self) -> dict:
        return asdict(self)
