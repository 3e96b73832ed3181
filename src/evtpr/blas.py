"""numpy's OpenBLAS through its C API: its sgemm kernel, and one BLAS thread
around a forward.

Symbols are looked up through the handle of numpy's linear-algebra
extension, which links the BLAS, as named by scipy-openblas (numpy >= 2),
by the 64-bit-int build of older wheels, then by plain OpenBLAS. Under
another BLAS (MKL, Accelerate) none is found: `core()` is None and
`single_threaded()` sets nothing.
"""

from __future__ import annotations

import contextlib
import ctypes
import threading

from numpy.linalg import _umath_linalg

_LIB = ctypes.CDLL(_umath_linalg.__file__)


def _symbol(name: str, restype, argtypes: list):
    for sym in ("scipy_openblas_%s64_", "openblas_%s64_", "openblas_%s"):
        fn = getattr(_LIB, sym % name, None)
        if fn is not None:
            fn.restype, fn.argtypes = restype, argtypes
            return fn
    return None


_get_corename = _symbol("get_corename", ctypes.c_char_p, [])
_get_num_threads = _symbol("get_num_threads", ctypes.c_int, [])
_set_num_threads = _symbol("set_num_threads", None, [ctypes.c_int])


def core() -> str | None:
    """The sgemm kernel numpy's OpenBLAS runs ("Haswell", "SkylakeX", ...;
    picked for the CPU unless OPENBLAS_CORETYPE names one), or None if
    numpy's BLAS is not OpenBLAS."""
    return None if _get_corename is None else _get_corename().decode()


_lock = threading.Lock()
_inside = 0  # bodies of single_threaded() running now
_saved = 0  # the count the first of them found


@contextlib.contextmanager
def single_threaded():
    """Run the body (or decorated function) with OpenBLAS at one thread, then
    restore the caller's count, also when the body raises.

    The count is process-wide, so bodies that overlap on several threads
    share one setting: the first to enter saves the count and sets 1, and
    the last to leave restores it.
    """
    global _inside, _saved
    if _set_num_threads is None:
        yield
        return
    with _lock:
        if _inside == 0:
            _saved = _get_num_threads()
            _set_num_threads(1)
        _inside += 1
    try:
        yield
    finally:
        with _lock:
            _inside -= 1
            if _inside == 0:
                _set_num_threads(_saved)
