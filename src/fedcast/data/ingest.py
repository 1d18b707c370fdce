"""CSV ingestion and emission for meter readings and weather observations.

Wire formats:
    meters:  household_id,timestamp,kwh
    weather: timestamp,air_temp_c,rel_humidity_pct

Timestamps are ISO-8601; naive values are taken as UTC.  Malformed data rows
are skipped and counted rather than aborting the ingest, but a wrong header
is a hard error because it means the file is not the expected format at all.

Meter files are read into columns: each household's readings come back as
one `MeterReadings` (epoch minutes and kWh arrays), not one object per row,
and the row checks run as array masks.  Weather files are small (one row
per hour) and stay a list of `WeatherRecord`.
"""

from __future__ import annotations

import csv
import itertools
import math
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from ..atomic import atomic_write
from ..errors import DataError
from .cleaning import MeterReadings, epoch_minutes
from .features import WeatherRecord

METER_HEADER = ["household_id", "timestamp", "kwh"]
WEATHER_HEADER = ["timestamp", "air_temp_c", "rel_humidity_pct"]


def _parse_ts(text: str) -> datetime:
    ts = datetime.fromisoformat(text.strip())
    return ts.replace(tzinfo=timezone.utc) if ts.tzinfo is None else ts


def _check_header(row, expected, path):
    if [c.strip() for c in row] != expected:
        raise DataError(f"{path}: expected header {','.join(expected)!r}")


_UNPARSED = np.iinfo(np.int64).min  # stands in for a timestamp that fails to parse
_BLOCK_ROWS = 1 << 14                # meter rows held as Python strings at once


def _epoch_minutes_or_unparsed(text: str) -> int:
    try:
        return epoch_minutes(_parse_ts(text))
    except (ValueError, OverflowError):
        return _UNPARSED


def _float_or_nan(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan  # fails the kWh >= 0 check like a NaN in the file


def _meter_columns(rows: list, code_of: dict, minute_of: dict) -> tuple:
    """(household codes, epoch minutes, kWh) of the rows that pass the checks.

    `code_of` numbers households in order of first appearance and
    `minute_of` caches parsed timestamps; both carry over between calls.
    """
    fields = [row for row in rows if len(row) == 3]
    ids = [row[0].strip() for row in fields]
    for hid in dict.fromkeys(ids):
        code_of.setdefault(hid, len(code_of))
    for text in {row[1] for row in fields} - minute_of.keys():
        minute_of[text] = _epoch_minutes_or_unparsed(text)
    n = len(fields)
    codes = np.fromiter(map(code_of.__getitem__, ids), dtype=np.int64, count=n)
    minutes = np.fromiter((minute_of[row[1]] for row in fields), dtype=np.int64,
                          count=n)
    kwh = np.fromiter((_float_or_nan(row[2]) for row in fields), dtype=np.float64,
                      count=n)
    keep = (kwh >= 0.0) & (minutes != _UNPARSED) & (codes != code_of.get("", -1))
    return codes[keep], minutes[keep], kwh[keep]


def ingest_meter_csv(path) -> tuple[dict, int]:
    """{household_id: MeterReadings} plus the count of skipped rows.

    A row is skipped when it has other than three fields, an empty id, an
    unparseable timestamp, or a kWh value that is not a number >= 0 (NaN
    included).  Households appear in the order their ids first appear, and
    each keeps its readings in file order.  Each distinct timestamp string
    is parsed once: households share timestamps.  Rows are read in blocks,
    so only one block is ever held as Python strings.
    """
    path = Path(path)
    code_of, minute_of = {}, {}
    blocks = []
    n_rows = 0
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            return {}, 0
        _check_header(header, METER_HEADER, path)
        while rows := list(itertools.islice(reader, _BLOCK_ROWS)):
            n_rows += len(rows)
            blocks.append(_meter_columns(rows, code_of, minute_of))
    if not blocks:
        return {}, 0
    codes, minutes, kwh = (np.concatenate(column) for column in zip(*blocks))

    # a stable sort by household keeps each household's rows in file order
    order = np.argsort(codes, kind="stable")
    counts = np.bincount(codes, minlength=len(code_of))
    bounds = np.cumsum(counts)[:-1]
    parts = zip(code_of, counts, np.split(minutes[order], bounds),
                np.split(kwh[order], bounds))
    by_household = {hid: MeterReadings(m, k) for hid, n, m, k in parts if n}
    return by_household, n_rows - len(codes)


def ingest_weather_csv(path) -> tuple[list, int]:
    """Weather records in file order plus the count of skipped rows."""
    path = Path(path)
    records = []
    skipped = 0
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            return [], 0
        _check_header(header, WEATHER_HEADER, path)
        for row in reader:
            try:
                if len(row) != 3:
                    raise ValueError
                rec = WeatherRecord(_parse_ts(row[0]), float(row[1]), float(row[2]))
            except Exception:
                skipped += 1
                continue
            records.append(rec)
    return records, skipped


def _format_ts(ts: datetime) -> str:
    if ts.tzinfo is not None:
        ts = ts.astimezone(timezone.utc).replace(tzinfo=None)
    return ts.isoformat()


def _meter_rows(household_id: str, readings):
    """CSV rows of one household's MeterReadings or RawReading records."""
    if isinstance(readings, MeterReadings):
        stamps = np.datetime_as_string(readings.minutes.astype("datetime64[m]"),
                                       unit="s")
        return zip(itertools.repeat(household_id), stamps,
                   map(repr, readings.kwh.tolist()))
    return ([household_id, _format_ts(r.timestamp), repr(float(r.energy_kwh))]
            for r in readings)


def write_meter_csv(path, households) -> None:
    """Dump {household_id: MeterReadings or [RawReading]}, as `ingest_meter_csv`
    returns or the record path builds, or SyntheticHousehold rows to CSV."""
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METER_HEADER)
        if isinstance(households, dict):
            items = sorted(households.items())
        else:
            items = [(h.household_id, h.readings) for h in households]
        for household_id, readings in items:
            writer.writerows(_meter_rows(household_id, readings))


def write_weather_csv(path, records) -> None:
    """Dump WeatherRecord rows to CSV."""
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(WEATHER_HEADER)
        for r in records:
            writer.writerow([_format_ts(r.timestamp), repr(float(r.air_temp_c)),
                             repr(float(r.rel_humidity_pct))])
