"""Scenario configuration: which regime to train and with what knobs.

Sweep grids mirror the hyperparameter values the experiments explore; a
single config holds one point of such a grid, and `resolve_config` expands
a run config into its entries.  The clustered kinds take neither
client_fraction nor local_epochs: every phase of theirs runs at 0.1 and 3,
which `ScenarioConfig` checks on a config built in Python.

Each field's type and bound come from its declaration on `ScenarioConfig`:
an `int` holds an integer >= 1 (seed >= 0), a `float` a finite number > 0
(client_fraction <= 1) and a `bool` true or false; a bool is no number, and
a field declared `| None` may be unset.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import asdict, dataclass, fields
from numbers import Integral, Real

from ..clustering import LINKAGES as HC_LINKAGES
from ..errors import ValidationError
from ..reporting import variant_label

# The scenario kinds, each with the config keys it takes; a run config sweeps
# a key given as a list.
_FL_KEYS = ("client_fraction", "local_epochs")
_HC_KEYS = ("hc_threshold", "hc_linkage", "hc_rounds")
SCENARIO_KEYS = {
    "centralised": (),
    "localised": (),
    "fl": _FL_KEYS,
    "fl_hc": _HC_KEYS,
    "fl_lft": _FL_KEYS,
    "fl_hc_lft": _HC_KEYS,
}
_FL_KINDS = ("fl", "fl_hc", "fl_lft", "fl_hc_lft")  # the kinds that run FedAvg rounds
_HC_KINDS = tuple(kind for kind, keys in SCENARIO_KEYS.items() if "hc_rounds" in keys)

CLIENT_FRACTION_GRID = (0.1, 0.2, 0.3)
LOCAL_EPOCHS_GRID = (1, 3, 5)
HC_THRESHOLD_GRID = (0.8, 1.4, 2.0)
HC_ROUNDS_GRID = (3, 5, 10)


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
        if self.kind not in SCENARIO_KEYS:
            raise ValidationError(
                f"unknown scenario {self.kind!r}; expected one of {tuple(SCENARIO_KEYS)}")
        for f in fields(self):  # f.type is the annotation's text
            value, declared = getattr(self, f.name), f.type.removesuffix(" | None")
            if declared == "str" or value is None and declared != f.type:
                continue  # names, and unset clustering settings, are checked by kind
            number = isinstance(value, Real) and not isinstance(value, bool)
            if declared == "bool":
                ok, rule = isinstance(value, bool), "true or false"
            elif declared == "int":
                low = 0 if f.name == "seed" else 1
                ok = number and isinstance(value, Integral) and value >= low
                rule = f"an integer >= {low}"
            else:  # float
                high = 1 if f.name == "client_fraction" else math.inf
                ok = number and 0 < value < math.inf and value <= high
                rule = "a number in (0, 1]" if high == 1 else "a finite number > 0"
            if not ok:
                raise ValidationError(f"{f.name} must be {rule}, got {value!r}")
        if self.kind in _HC_KINDS:
            if self.hc_threshold is None or self.hc_linkage is None or self.hc_rounds is None:
                raise ValidationError(
                    f"{self.kind} needs hc_threshold, hc_linkage, and hc_rounds")
            if self.hc_linkage not in HC_LINKAGES:
                raise ValidationError(
                    f"unknown linkage {self.hc_linkage!r}; expected one of {HC_LINKAGES}")
            if not self.hc_rounds < self.flhc_rounds_cap:
                raise ValidationError(f"hc_rounds must be below flhc_rounds_cap "
                                      f"({self.flhc_rounds_cap}), got {self.hc_rounds}")
            if self.client_fraction != 0.1 or self.local_epochs != 3:
                raise ValidationError(
                    "clustered regimes fix client_fraction=0.1 and local_epochs=3")
        elif self.hc_threshold is not None or self.hc_linkage is not None \
                or self.hc_rounds is not None:
            raise ValidationError(f"{self.kind} takes no clustering settings")

    @property
    def entry_id(self) -> str:
        """Stable, human-readable identity of this config inside a run."""
        parts = [self.kind, variant_label(self.k, self.with_weather)]
        if self.kind in _FL_KINDS:
            parts.append(f"f{_short(self.client_fraction)}_e{self.local_epochs}")
        if self.kind in _HC_KINDS:
            parts.append(
                f"n{self.hc_rounds}_t{_short(self.hc_threshold)}_{self.hc_linkage}")
        return "__".join(parts)

    def to_dict(self) -> dict:
        return asdict(self)


# Every field an entry's identity or a scenario section does not set is an
# override, set once for the whole run.
OVERRIDE_KEYS = tuple(
    f.name for f in fields(ScenarioConfig)
    if f.name not in ("kind", "k", "with_weather", "seed")
    and not any(f.name in keys for keys in SCENARIO_KEYS.values()))

SEED_ENV = "FEDCAST_SEED"


def _aslist(value) -> list:
    return value if isinstance(value, list) else [value]


def resolve_config(raw: dict) -> tuple[int, list]:
    """Expand a run config into (seed, [ScenarioConfig...]).

    Scalar fields stand for singleton grids; list fields sweep.  The
    environment variable FEDCAST_SEED overrides the config seed.
    """
    known = {"data", "seed", "k", "weather", "scenarios", "overrides"}
    unknown = set(raw) - known
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    for key in ("data", "scenarios"):
        if key not in raw:
            raise ValidationError(f"config needs a {key!r} entry")
    if not isinstance(raw["data"], str):
        raise ValidationError("'data' must be a cache directory path")
    if not isinstance(raw["scenarios"], list):
        raise ValidationError("'scenarios' must be a list of sections")

    seed = raw.get("seed", 0)
    env_seed = os.environ.get(SEED_ENV)
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError:
            raise ValidationError(f"{SEED_ENV}={env_seed!r} is not an integer")

    overrides = raw.get("overrides", {})
    if not isinstance(overrides, dict):
        raise ValidationError("'overrides' must be a JSON object")
    bad = set(overrides) - set(OVERRIDE_KEYS)
    if bad:
        raise ValidationError(f"unknown override keys: {sorted(bad)}")

    # an integral float such as 12.0 stands for its integer; ScenarioConfig
    # refuses any other value that is not an integer
    k_values = [int(k) if isinstance(k, float) and k.is_integer() else k
                for k in _aslist(raw.get("k", 12))]
    weather_values = _aslist(raw.get("weather", False))

    entries = []
    for section in raw["scenarios"]:
        if not isinstance(section, dict):
            raise ValidationError("every scenario section must be a JSON object")
        if "kind" not in section:
            raise ValidationError("every scenario section needs a 'kind'")
        kind = section["kind"]
        if not isinstance(kind, str) or kind not in SCENARIO_KEYS:
            raise ValidationError(f"unknown scenario {kind!r}")
        allowed = SCENARIO_KEYS[kind]
        bad = set(section) - {"kind"} - set(allowed)
        if bad:
            raise ValidationError(f"{kind}: unexpected keys {sorted(bad)}")
        for key in allowed:
            if section.get(key) == []:
                raise ValidationError(f"{kind}: {key} sweeps an empty list")
        grids = [[(key, v) for v in _aslist(section[key])]
                 for key in allowed if key in section]
        for combo in itertools.product(*grids):
            for k, weather in itertools.product(k_values, weather_values):
                entries.append(ScenarioConfig(
                    kind=kind, k=k, with_weather=weather, seed=seed,
                    **dict(combo), **overrides))
    if not entries:
        raise ValidationError("config expands to no scenario entries")
    ids = [cfg.entry_id for cfg in entries]
    dupes = sorted({e for e in ids if ids.count(e) > 1})
    if dupes:
        raise ValidationError(f"config expands to duplicate entries: {dupes}")
    return seed, sorted(entries, key=lambda c: c.entry_id)
