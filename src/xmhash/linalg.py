"""Cholesky-based solver for symmetric positive definite systems.

The trainer's ridge projection update solves with it. Its inputs are
coerced to float64 and checked finite first. The solver owns its own
factorization loop so that a failed pivot can be reported by index
instead of a generic library error.

Every OpenBLAS that xmhash calls runs on one thread. The trainer's
products are small (inner dimension r or c, 128-column batches), where
threading costs more than it saves, and a threaded GEMM may sum in another
order, so model bytes would depend on the machine's thread setting and on
which module imported numpy first. Importing this module pins numpy's
OpenBLAS, and scipy's too if scipy.linalg is already loaded by the host
program. xmhash itself never imports scipy: the triangular solves
are substitutions over the c x c factor, in numpy. A build whose library
lacks the OpenBLAS entry point is left as found.
"""

import ctypes
import sys

import numpy as np
import numpy.linalg._umath_linalg

from .errors import ContractError, NumericalError


def _single_thread_blas(module, setter: str) -> None:
    """Set the OpenBLAS that an extension module links to one thread.

    dlopen of an extension module already in memory returns its handle, and
    a symbol lookup through it also searches the OpenBLAS it links.
    """
    set_num_threads = getattr(ctypes.CDLL(module.__file__), setter, None)
    if set_num_threads is not None:
        set_num_threads.argtypes, set_num_threads.restype = [ctypes.c_int], None
        set_num_threads(1)


_single_thread_blas(numpy.linalg._umath_linalg, "scipy_openblas_set_num_threads64_")
if "scipy.linalg._fblas" in sys.modules:
    _single_thread_blas(sys.modules["scipy.linalg._fblas"], "scipy_openblas_set_num_threads")


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float64 array and verify every entry is finite."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ContractError(f"{name} must be 2-D, got ndim={m.ndim}")
    check_finite(m, name)
    return m


def check_finite(a: np.ndarray, name: str = "array") -> None:
    if not np.all(np.isfinite(a)):
        bad = int(np.flatnonzero(~np.isfinite(a).ravel())[0])
        raise NumericalError(f"{name} contains a non-finite entry (flat index {bad})")


def cholesky_lower(a: np.ndarray) -> np.ndarray:
    """Lower-triangular Cholesky factor of a symmetric positive definite matrix.

    Outer-product form, one pivot per iteration, so a non-positive pivot is
    caught exactly where the matrix stops being positive definite.

    Raises:
        NumericalError: naming the failing pivot index when a <= 0 pivot
            (or a non-finite one) is hit.
    """
    a = as_matrix(a, "cholesky input")
    n = a.shape[0]
    if a.shape[1] != n:
        raise ContractError(f"cholesky input must be square, got {a.shape}")
    low = np.zeros_like(a)
    for k in range(n):
        d = a[k, k] - low[k, :k] @ low[k, :k]
        if not np.isfinite(d) or d <= 0.0:
            raise NumericalError(
                f"matrix is not positive definite: pivot {k} = {d:.6e}"
            )
        low[k, k] = np.sqrt(d)
        if k + 1 < n:
            low[k + 1 :, k] = (a[k + 1 :, k] - low[k + 1 :, :k] @ low[k, :k]) / low[k, k]
    return low


def spd_solve(a, b) -> np.ndarray:
    """Solve a x = b for symmetric positive definite a via Cholesky.

    b may have any number of right-hand-side columns. No explicit inverse
    is ever formed.
    """
    low = cholesky_lower(a)
    n = low.shape[0]
    b_arr = np.asarray(b, dtype=np.float64)
    squeeze = b_arr.ndim == 1
    if squeeze:
        b_arr = b_arr[:, None]
    b_arr = as_matrix(b_arr, "spd_solve right-hand side")
    if b_arr.shape[0] != n:
        raise ContractError(
            f"spd_solve shape mismatch: matrix {low.shape} vs rhs {b_arr.shape}"
        )
    # forward substitution for low y = b, then back substitution for low^T x = y
    y = np.empty_like(b_arr)
    for k in range(n):
        y[k] = (b_arr[k] - low[k, :k] @ y[:k]) / low[k, k]
    x = np.empty_like(y)
    for k in reversed(range(n)):
        x[k] = (y[k] - low[k + 1 :, k] @ x[k + 1 :]) / low[k, k]
    check_finite(x, "spd_solve result")
    return x[:, 0] if squeeze else x
