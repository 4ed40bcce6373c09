"""Numerically robust linear algebra for Gaussian-process regression.

Everything in :mod:`repro.gp` funnels its matrix work through these helpers so
that the jitter policy (how much diagonal noise to add when a kernel matrix is
numerically singular) lives in exactly one place.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import lapack

__all__ = [
    "jittered_cholesky",
    "cholesky_solve",
    "cholesky_update",
    "cholesky_append",
    "solve_lower",
    "log_det_from_cholesky",
]

#: First jitter magnitude tried when a Cholesky factorization fails.
INITIAL_JITTER = 1e-10

#: Jitter is escalated by this factor on each failed attempt.
JITTER_GROWTH = 10.0

#: Number of escalation attempts before giving up.
MAX_ATTEMPTS = 10


def jittered_cholesky(matrix: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of ``matrix``, adding diagonal jitter if needed.

    Returns ``(L, jitter)`` where ``L @ L.T == matrix + jitter * I`` and
    ``jitter`` is the smallest value from an escalating schedule that made the
    factorization succeed (``0.0`` when none was needed).

    Raises
    ------
    numpy.linalg.LinAlgError
        If the matrix is not positive definite even after the maximum jitter.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"matrix must be square, got shape {matrix.shape}")
    if not np.all(np.isfinite(matrix)):
        raise np.linalg.LinAlgError("matrix contains non-finite entries")

    jitter = 0.0
    scale = None  # needed only once an attempt has failed
    for attempt in range(MAX_ATTEMPTS + 1):
        try:
            lower = np.linalg.cholesky(
                matrix if jitter == 0.0 else matrix + jitter * np.eye(matrix.shape[0])
            )
            return lower, jitter
        except np.linalg.LinAlgError:
            if scale is None:
                scale = max(float(np.mean(matrix.diagonal())), 1.0)
            jitter = scale * INITIAL_JITTER * (JITTER_GROWTH**attempt)
    raise np.linalg.LinAlgError(
        f"matrix not positive definite even with jitter {jitter:.3e}"
    )


def solve_lower(lower: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``L x = rhs`` for lower-triangular ``L`` (a float64 ndarray).

    Calls LAPACK ``dtrtrs`` with the arguments
    ``scipy.linalg.solve_triangular(L, rhs, lower=True)`` picks — ``L``
    itself when it is Fortran-ordered, else the upper-triangular ``L^T``
    solved transposed — so the result is the wrapper's bit for bit without
    its per-call validation.  Every factor passed here was produced by this
    module, which rejects non-finite input up front; a finiteness scan per
    call would only re-check known-good data on the hot path.

    Raises
    ------
    numpy.linalg.LinAlgError
        If ``L`` has a zero on its diagonal.
    """
    if lower.flags.f_contiguous:
        x, info = lapack.dtrtrs(lower, rhs, lower=1)
    else:
        x, info = lapack.dtrtrs(lower.T, rhs, lower=0, trans=1)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"singular matrix: resolution failed at diagonal {info - 1}"
        )
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK dtrtrs")
    return x


def cholesky_solve(lower: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``(L L^T) x = rhs`` given the lower Cholesky factor ``L``.

    LAPACK ``dpotrs`` with ``scipy.linalg.cho_solve((L, True), rhs)``'s
    arguments, for the same reason as :func:`solve_lower`.
    """
    x, info = lapack.dpotrs(lower, rhs, lower=1)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK dpotrs")
    return x


def log_det_from_cholesky(lower: np.ndarray) -> float:
    """``log det(L L^T)`` computed stably from the factor's diagonal."""
    return 2.0 * float(np.sum(np.log(lower.diagonal())))


def cholesky_update(
    lower: np.ndarray, cross: np.ndarray, corner: float
) -> np.ndarray:
    """Extend a Cholesky factor by one row/column.

    Given ``L`` with ``L L^T = K`` and a new point whose covariance against the
    existing points is ``cross`` (length n) with self-covariance ``corner``,
    return the factor of the bordered matrix ``[[K, cross], [cross^T, corner]]``.

    This is the O(n^2) incremental update used when hallucinating busy points
    one at a time during batch selection.
    """
    lower = np.asarray(lower, dtype=float)
    cross = np.asarray(cross, dtype=float).ravel()
    n = lower.shape[0]
    if cross.shape[0] != n:
        raise ValueError(f"cross must have length {n}, got {cross.shape[0]}")
    row = solve_lower(lower, cross) if n else np.empty(0)
    diag2 = float(corner) - float(row @ row)
    if diag2 <= 0.0:
        # The new point is (numerically) linearly dependent on existing ones;
        # clamp to a small positive value so the factor stays usable.
        diag2 = max(float(corner) * 1e-12, 1e-12)
    out = np.zeros((n + 1, n + 1))
    out[:n, :n] = lower
    out[n, :n] = row
    out[n, n] = np.sqrt(diag2)
    return out


def cholesky_append(
    lower: np.ndarray, cross: np.ndarray, corner: np.ndarray
) -> np.ndarray:
    """Extend a Cholesky factor by ``k`` rows/columns (rank-k border update).

    Given ``L`` with ``L L^T = K``, the covariance block ``cross`` (n, k) of
    the new points against the existing ones, and their self-covariance block
    ``corner`` (k, k), return the factor of the bordered matrix
    ``[[K, cross], [cross^T, corner]]`` in O(n^2 k) instead of O((n+k)^3).

    Unlike :func:`cholesky_update` this does *not* clamp degenerate blocks:
    when the Schur complement ``corner - B^T B`` has lost positive
    definiteness it raises :class:`numpy.linalg.LinAlgError`, so callers can
    fall back to a full refactorization — an inexact clamp here would break
    the exactness contract of the incremental surrogate path.
    """
    lower = np.asarray(lower, dtype=float)
    cross = np.asarray(cross, dtype=float)
    corner = np.asarray(corner, dtype=float)
    if cross.ndim == 1:
        cross = cross.reshape(-1, 1)
    n = lower.shape[0]
    k = cross.shape[1]
    if cross.shape[0] != n:
        raise ValueError(f"cross must have {n} rows, got {cross.shape[0]}")
    if corner.shape != (k, k):
        raise ValueError(f"corner must have shape ({k}, {k}), got {corner.shape}")
    if not (np.all(np.isfinite(cross)) and np.all(np.isfinite(corner))):
        raise np.linalg.LinAlgError("append block contains non-finite entries")
    B = solve_lower(lower, cross) if n else np.zeros((0, k))
    schur = corner - B.T @ B
    schur = 0.5 * (schur + schur.T)
    lower_k = np.linalg.cholesky(schur)  # raises LinAlgError on PD loss
    out = np.zeros((n + k, n + k))
    out[:n, :n] = lower
    out[n:, :n] = B.T
    out[n:, n:] = lower_k
    return out
