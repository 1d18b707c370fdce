"""Crash-safe output files, and the one JSON reader beside the one writer.

A reader of an output path sees either its previous content or the complete
new content, never a half-written file, whether the writer raises or the
process dies mid-write.  Text goes out as UTF-8 and JSON comes in as UTF-8,
with or without a byte-order mark, whatever the host's locale, so fedcast
reads back every file it writes.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path

from .errors import DataError


@contextmanager
def atomic_write(path, mode: str = "w", newline: str | None = None):
    """Yield a file that replaces `path` only when the block completes.

    The data goes to a temporary file in the same directory, which
    `os.replace` renames onto `path` after it is closed; if the block
    raises, the temporary file is removed and `path` is left as it was.
    Text is UTF-8; `newline` is passed to `open` (the csv module wants "").
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open(mode, newline=newline,
                      encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_json(path, obj) -> None:
    """Write `obj` to `path` as JSON with sorted keys, indented, ending in a
    newline: identical objects give identical bytes.  A non-finite float
    raises ValueError, and `path` is then left as it was."""
    with atomic_write(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def read_json(path) -> dict:
    """The JSON object in `path`, read as UTF-8 with or without a byte-order
    mark.  A file that cannot be opened, bytes that are not UTF-8, text that
    is not JSON or a value that is not an object is a DataError naming it."""
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8-sig"))
    except OSError as err:
        raise DataError(f"{path}: cannot be read ({err.strerror})")
    except UnicodeDecodeError as err:
        raise DataError(f"{path}: not UTF-8 text ({err})")
    except (ValueError, RecursionError) as err:  # RecursionError: nested too deep
        raise DataError(f"{path}: not JSON ({err})")
    if not isinstance(obj, dict):
        raise DataError(f"{path}: not a JSON object")
    return obj
