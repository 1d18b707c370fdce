"""The host's numerics fingerprint, which a run's bytes depend on.

numpy's SIMD loops and the OpenBLAS kernels both change the last bits of
trained weights, so a run's `results.json` is byte-identical only between
hosts with the same fingerprint.  `run_sweep` records it in each run's
manifest.json.  Reading it loads nothing new: numpy has already imported
`ctypes` and loaded its bundled OpenBLAS.
"""

from __future__ import annotations

import ctypes
from pathlib import Path

import numpy as np


def numerics_fingerprint() -> tuple:
    """(numpy version, active SIMD dispatch targets, OpenBLAS core name or
    None when the bundled OpenBLAS cannot be asked)."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    targets = tuple(t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t))
    core = None
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob(
        "libscipy_openblas64_*.so"))
    if libs:
        try:
            corename = ctypes.CDLL(str(libs[0])).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            pass
        else:
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            core = corename().decode()
    return np.__version__, targets, core
