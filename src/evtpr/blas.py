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


@contextlib.contextmanager
def single_threaded():
    """Run the body (or decorated function) with OpenBLAS at one thread, then
    restore the caller's count, also when the body raises.

    The count is process-wide, so bodies running at the same time on several
    threads share it, and the first to end restores it under the others.
    """
    if _set_num_threads is None:
        yield
        return
    old = _get_num_threads()
    _set_num_threads(1)
    try:
        yield
    finally:
        _set_num_threads(old)
