"""Crash-safe output files: write beside the target, then rename onto it.

A reader of an output path sees either its previous content or the complete
new content, never a half-written file, whether the writer raises or the
process dies mid-write.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_write(path, mode: str = "w", newline: str | None = None):
    """Yield a file that replaces `path` only when the block completes.

    The data goes to a temporary file in the same directory, which
    `os.replace` renames onto `path` after it is closed; if the block
    raises, the temporary file is removed and `path` is left as it was.
    `newline` is passed to `open` (the csv module wants "").
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open(mode, newline=newline) as fh:
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
