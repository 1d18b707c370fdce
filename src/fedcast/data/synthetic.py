"""Synthetic household populations with known consumption archetypes.

Households are assigned round-robin to built-in archetypes.  An archetype is
a 24-hour base profile times a day-of-week modulation; each household gets a
multiplicative scale and per-hour multiplicative noise, both drawn from its
own seeded stream, so populations are reproducible reading-for-reading and
the true archetype of every household is known for evaluating clustering.

The generator emits half-hourly readings (each hour's energy split evenly
across its two slots) so the full cleaning path is exercised, plus matching
hourly weather: a smooth seasonal/diurnal temperature curve with mild noise
and anti-correlated humidity.  Both come out in the pipeline's columnar
form, one `MeterReadings` per household and one `WeatherTable`.

The start must fall on a whole UTC hour, because weather is indexed by
unix hour.  Profiles and the weather curve read the hour of day, weekday
and day of year in the start's own UTC offset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone

import numpy as np

from ..errors import ValidationError
from ..seeding import SYNTH, WEATHER, stream
from .cleaning import MeterReadings
from .features import WeatherTable

# name, 24-hour base profile (kWh per hour), day-of-week modulation (Mon..Sun).
# Peak hours are pairwise distinct (18, 21, 12) so update clustering and
# peak-recovery checks have unambiguous ground truth.
ARCHETYPES: tuple = (
    {
        "name": "commuter",  # morning and evening peaks, quiet nights
        "base24": (0.12, 0.10, 0.09, 0.09, 0.10, 0.14, 0.30, 0.55, 0.50, 0.30,
                   0.22, 0.20, 0.22, 0.20, 0.22, 0.28, 0.45, 0.80, 1.10, 0.95,
                   0.70, 0.45, 0.28, 0.16),
        "week7": (1.0, 1.0, 1.0, 1.0, 1.05, 1.15, 1.12),
    },
    {
        "name": "night_owl",  # consumption concentrated late in the evening
        "base24": (0.30, 0.22, 0.14, 0.10, 0.08, 0.08, 0.10, 0.14, 0.18, 0.22,
                   0.25, 0.28, 0.30, 0.30, 0.32, 0.35, 0.40, 0.50, 0.65, 0.85,
                   1.05, 1.25, 1.00, 0.55),
        "week7": (1.0, 1.0, 1.02, 1.02, 1.10, 1.20, 1.08),
    },
    {
        "name": "homebody",  # steady daytime use with a midday maximum
        "base24": (0.20, 0.18, 0.17, 0.17, 0.18, 0.22, 0.30, 0.40, 0.48, 0.55,
                   0.62, 0.68, 0.72, 0.68, 0.62, 0.58, 0.55, 0.52, 0.50, 0.45,
                   0.40, 0.32, 0.26, 0.22),
        "week7": (1.0, 1.0, 1.0, 1.0, 1.0, 1.05, 1.05),
    },
)


@dataclass(frozen=True)
class SyntheticPopulation:
    households: dict          # household_id -> MeterReadings, in id order
    archetype_of: dict        # household_id -> archetype index
    weather: WeatherTable
    archetype_names: tuple


def _weather_for(stamps: list, first_hour: int, seed: int) -> WeatherTable:
    # per-hour math, not numpy's sin/cos, whose results may differ by host
    jitter = stream(seed, WEATHER).normal(0.0, 0.4, size=len(stamps))
    temps = np.empty(len(stamps))
    for i, ts in enumerate(stamps):
        day_of_year = ts.timetuple().tm_yday
        temps[i] = (8.0
                    - 7.0 * math.cos(2.0 * math.pi * (day_of_year - 20) / 365.0)
                    + 4.0 * math.sin(2.0 * math.pi * (ts.hour - 9) / 24.0)
                    + float(jitter[i]))
    humidity = np.minimum(98.0, np.maximum(25.0, 75.0 - 1.2 * (temps - 8.0)))
    hours = np.arange(first_hour, first_hour + len(stamps), dtype=np.int64)
    return WeatherTable(hours, temps, humidity)


def generate_synthetic_households(n: int, archetypes: int = 3, noise: float = 0.05,
                                  seed: int = 0, days: int = 90,
                                  start: datetime | None = None) -> SyntheticPopulation:
    """Population of n households drawn round-robin from the first `archetypes`
    built-in profiles, with multiplicative noise of the given relative size.

    `start` defaults to 2013-01-01 UTC; a naive start is taken as UTC, and a
    start that is not on a whole UTC hour is refused.
    """
    if n < 1:
        raise ValidationError("need at least one household")
    if not 1 <= archetypes <= len(ARCHETYPES):
        raise ValidationError(f"archetypes must lie in 1..{len(ARCHETYPES)}")
    if not 0.0 <= noise < 1.0:
        raise ValidationError("noise must lie in [0, 1)")
    if days < 1:
        raise ValidationError("days must be >= 1")
    if start is None:
        start = datetime(2013, 1, 1, tzinfo=timezone.utc)
    elif start.tzinfo is None:
        start = start.replace(tzinfo=timezone.utc)
    since_epoch = start - datetime(1970, 1, 1, tzinfo=timezone.utc)
    if since_epoch % timedelta(hours=1):
        raise ValidationError(f"start {start.isoformat()} is not on a whole UTC hour")
    first_hour = since_epoch // timedelta(hours=1)

    stamps = [start + timedelta(hours=t) for t in range(days * 24)]
    hour_of_day = np.array([ts.hour for ts in stamps])
    weekday = np.array([ts.weekday() for ts in stamps])
    # two half-hour slots per hour, each carrying half the hour's energy
    minutes = 60 * first_hour + 30 * np.arange(2 * len(stamps), dtype=np.int64)
    minutes.flags.writeable = False  # one column shared by every household
    households, archetype_of = {}, {}
    for i in range(n):
        household_id = f"h{i:03d}"
        arch_index = i % archetypes
        profile = ARCHETYPES[arch_index]
        gen = stream(seed, SYNTH, household_id)
        scale = 1.0 + float(gen.uniform(-noise, noise)) if noise else 1.0
        value = (np.array(profile["base24"])[hour_of_day]
                 * np.array(profile["week7"])[weekday] * scale)
        if noise:
            value = value * (1.0 + gen.uniform(-noise, noise, size=len(stamps)))
        households[household_id] = MeterReadings(minutes, np.repeat(value / 2.0, 2))
        archetype_of[household_id] = arch_index

    names = tuple(a["name"] for a in ARCHETYPES[:archetypes])
    return SyntheticPopulation(households, archetype_of,
                               _weather_for(stamps, first_hour, seed), names)
