"""CSV ingestion and emission for meter readings and weather observations.

Wire formats:
    meters:  household_id,timestamp,kwh
    weather: timestamp,air_temp_c,rel_humidity_pct

Files are UTF-8, with or without a byte-order mark.  Timestamps are
ISO-8601; naive values are taken as UTC.  Malformed data rows are skipped
and counted rather than aborting the ingest, but a file that cannot be
opened, a wrong header, a byte that is not UTF-8 (reported by line and
file offset) or a row the csv module refuses (a field over its size
limit) is a hard error, because the file is not the expected format.

Both files go through one block reader into columns, and the row checks
run as array masks: each household's readings come back as one
`MeterReadings` (epoch minutes and kWh arrays), and the weather as one
`WeatherTable` (unix hours, temperature and humidity arrays).  The writers
take the same types back.
"""

from __future__ import annotations

import codecs
import csv
import itertools
import math
from datetime import datetime, timezone

import numpy as np

from ..atomic import atomic_write
from ..errors import DataError
from .cleaning import MeterReadings
from .features import WeatherTable

METER_HEADER = ["household_id", "timestamp", "kwh"]
WEATHER_HEADER = ["timestamp", "air_temp_c", "rel_humidity_pct"]

_BLOCK_ROWS = 1 << 14                # rows held as Python strings at once


def _parse_ts(text: str) -> datetime:
    ts = datetime.fromisoformat(text.strip())
    return ts.replace(tzinfo=timezone.utc) if ts.tzinfo is None else ts


def _check_header(row, expected, path):
    if [c.strip() for c in row] != expected:
        raise DataError(f"{path}: expected header {','.join(expected)!r}")


def _seconds_or_nan(text: str) -> float:
    try:
        return _parse_ts(text).timestamp()
    except (ValueError, OverflowError):
        return math.nan  # fails the finiteness checks like a NaN value


def _float_or_nan(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan  # fails the range checks like a NaN in the file


def _floats(rows: list, i: int) -> np.ndarray:
    return np.fromiter((_float_or_nan(row[i]) for row in rows),
                       dtype=np.float64, count=len(rows))


def _first_bad_byte(path) -> str:
    """Where the first byte that is not UTF-8 lies, by line and file
    offset, found by rescanning the file block by block."""
    decoder = codecs.getincrementaldecoder("utf-8")()
    line, start = 1, 0  # the line and file offset of data[0]
    with open(path, "rb") as fh:
        while True:
            block = fh.read(1 << 16)
            data = decoder.getstate()[0] + block  # the bytes decode() sees
            try:
                decoder.decode(block, final=not block)
            except UnicodeDecodeError as err:
                line += data.count(b"\n", 0, err.start)
                return (f"byte 0x{data[err.start]:02x} at line {line}, "
                        f"file offset {start + err.start}, is not UTF-8")
            if not block:
                return "a byte is not UTF-8"  # the file changed after the read
            line += data.count(b"\n")
            start += len(data) - len(decoder.getstate()[0])


def _read_columns(path, header: list, columns) -> tuple[list, int]:
    """[unix seconds, *columns(rows)] over the rows of three fields, and
    the count of data rows read.

    Checks the header, then reads `_BLOCK_ROWS` rows at a time, so only one
    block is ever held as Python strings; `columns` turns a block's rows
    into arrays.  Each distinct timestamp string is parsed once, as
    households share timestamps; one that does not parse gives NaN.  A
    leading byte-order mark is dropped.  A file that cannot be opened, a
    byte that is not UTF-8, or a row the csv module refuses, is a DataError.
    """
    stamp = header.index("timestamp")
    seconds_of = {}

    def block(rows):
        fields = [row for row in rows if len(row) == 3]
        for text in {row[stamp] for row in fields} - seconds_of.keys():
            seconds_of[text] = _seconds_or_nan(text)
        seconds = np.fromiter((seconds_of[row[stamp]] for row in fields),
                              dtype=np.float64, count=len(fields))
        return seconds, *columns(fields)

    blocks, n_rows = [], 0
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            first = next(reader, None)
            if first is not None:
                _check_header(first, header, path)
            while rows := list(itertools.islice(reader, _BLOCK_ROWS)):
                n_rows += len(rows)
                blocks.append(block(rows))
    except OSError as err:
        raise DataError(f"{path}: cannot be read ({err.strerror})")
    except UnicodeDecodeError:
        raise DataError(f"{path}: not a readable CSV file ({_first_bad_byte(path)})")
    except csv.Error as err:
        raise DataError(f"{path}: not a readable CSV file ({err})")
    # a file without data rows still gives typed, empty columns
    return [np.concatenate(c) for c in zip(*(blocks or [block([])]))], n_rows


def check_household_id(household_id: str) -> str:
    """`household_id`, refused unless it can name a file of its own: it is
    neither `.` nor `..` and holds no `/` or `\\`."""
    if household_id in (".", "..") or "/" in household_id or "\\" in household_id:
        raise DataError(f"household id {household_id!r} cannot name a file "
                        "(it is . or .., or holds / or \\)")
    return household_id


def ingest_meter_csv(path) -> tuple[dict, int]:
    """{household_id: MeterReadings} plus the count of skipped rows.

    A row is skipped when it has other than three fields, an empty id, an
    unparseable timestamp, or a kWh value that is not a number >= 0 (NaN
    included); an id `check_household_id` refuses is a DataError.  Households
    appear in the order their ids first appear and keep their rows in file order.
    """
    code_of = {}  # household id -> code, numbered in order of first appearance

    def codes_and_kwh(rows):
        ids = [row[0].strip() for row in rows]
        for hid in dict.fromkeys(ids):
            code_of.setdefault(hid, len(code_of))
        codes = np.fromiter(map(code_of.__getitem__, ids), dtype=np.int64,
                            count=len(rows))
        return codes, _floats(rows, 2)

    (seconds, codes, kwh), n_rows = _read_columns(path, METER_HEADER,
                                                  codes_and_kwh)
    keep = (kwh >= 0.0) & np.isfinite(seconds) & (codes != code_of.get("", -1))
    codes, kwh = codes[keep], kwh[keep]
    minutes = (seconds[keep] // 60).astype(np.int64)

    # a stable sort by household keeps each household's rows in file order
    order = np.argsort(codes, kind="stable")
    counts = np.bincount(codes, minlength=len(code_of))
    bounds = np.cumsum(counts)[:-1]
    parts = zip(code_of, counts, np.split(minutes[order], bounds),
                np.split(kwh[order], bounds))
    by_household = {check_household_id(hid): MeterReadings(m, k)
                    for hid, n, m, k in parts if n}
    return by_household, n_rows - len(codes)


def ingest_weather_csv(path) -> tuple[WeatherTable, int]:
    """Hourly weather plus the count of skipped rows.

    A row is skipped when it has other than three fields, an unparseable
    timestamp, a temperature or humidity that is not a finite number, or a
    humidity outside [0, 100].  The kept rows are sorted by timestamp,
    stably so equal stamps keep file order, and each hour keeps its
    earliest observation.
    """
    (seconds, temps, hums), n_rows = _read_columns(
        path, WEATHER_HEADER, lambda rows: (_floats(rows, 1), _floats(rows, 2)))
    kept = np.flatnonzero(np.isfinite(seconds) & np.isfinite(temps)
                          & np.isfinite(hums) & (hums >= 0.0) & (hums <= 100.0))
    order = kept[np.argsort(seconds[kept], kind="stable")]
    # unique() keeps the first of each hour in timestamp order: the earliest
    hours, first = np.unique((seconds[order] // 3600).astype(np.int64),
                             return_index=True)
    pick = order[first]
    return WeatherTable(hours, temps[pick], hums[pick]), n_rows - len(kept)


def _meter_rows(household_id: str, readings: MeterReadings):
    """CSV rows of one household's readings."""
    stamps = np.datetime_as_string(readings.minutes.astype("datetime64[m]"),
                                   unit="s")
    return zip(itertools.repeat(household_id), stamps,
               map(repr, readings.kwh.tolist()))


def write_meter_csv(path, households: dict) -> None:
    """Dump {household_id: MeterReadings}, as `ingest_meter_csv` returns or
    the synthetic generator builds, to CSV in the mapping's order."""
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METER_HEADER)
        for household_id, readings in households.items():
            writer.writerows(_meter_rows(household_id, readings))


def write_weather_csv(path, weather: WeatherTable) -> None:
    """Dump a WeatherTable to CSV, one row per hour."""
    stamps = np.datetime_as_string(weather.hours.astype("datetime64[h]"), unit="s")
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(WEATHER_HEADER)
        writer.writerows(zip(stamps, map(repr, weather.air_temp_c.tolist()),
                             map(repr, weather.rel_humidity_pct.tolist())))
