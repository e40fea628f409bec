"""Numba backend selection.

The Numerov kernels in :mod:`fermiwell.kernels` are JIT-compiled with numba
when it is installed.  Setting the environment variable ``FERMIWELL_NO_NUMBA=1``
(before first import) selects a pure-Python/numpy fallback path with the same
semantics; ``benchmarks/bench_backends.py`` compares the two.  When numba is
not installed and the variable is unset, the fallback is used and a warning
is logged on the ``fermiwell`` logger.
"""

import logging
import os

_flag = os.environ.get("FERMIWELL_NO_NUMBA", "").strip().lower()
NUMBA_DISABLED = _flag in ("1", "true", "yes", "on")

if not NUMBA_DISABLED:
    try:
        from numba import njit as _numba_njit
    except ImportError:
        # numba is an optional extra.
        logging.getLogger("fermiwell").warning(
            "numba is not installed; fermiwell's Numerov kernels run as plain Python"
        )
        NUMBA_DISABLED = True

USING_NUMBA = not NUMBA_DISABLED


def njit(*args, **kwargs):
    """``numba.njit`` or a no-op decorator, depending on the backend."""
    if USING_NUMBA:
        return _numba_njit(*args, **kwargs)
    if args and callable(args[0]):
        return args[0]

    def wrap(func):
        return func

    return wrap
