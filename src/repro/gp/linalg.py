"""Numerically robust linear algebra for Gaussian-process regression.

Everything in :mod:`repro.gp` funnels its matrix work through these helpers so
that the jitter policy (how much diagonal noise to add when a kernel matrix is
numerically singular) lives in exactly one place.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import blas, lapack

__all__ = [
    "jittered_cholesky",
    "cholesky_solve",
    "cholesky_update",
    "cholesky_append",
    "cholesky_rank1_update",
    "solve_lower",
    "log_det_from_cholesky",
    "Workspace",
    "CHOLESKY_BLOCK",
]

#: First jitter magnitude tried when a Cholesky factorization fails.
INITIAL_JITTER = 1e-10

#: Jitter is escalated by this factor on each failed attempt.
JITTER_GROWTH = 10.0

#: Number of escalation attempts before giving up.
MAX_ATTEMPTS = 10

#: Panel width for the blocked rank-1 factor updates.  Within a panel the
#: rotation loop touches only panel-local rows (hot in L1); the trailing rows
#: are then swept once per panel instead of once per column, which keeps the
#: working set of the O(n^2) update cache-resident for large factors.
CHOLESKY_BLOCK = 64


class Workspace:
    """Reusable keyed buffer pool for allocation-free hot loops.

    The incremental surrogate path calls the same shaped kernel/solve
    operations thousands of times per campaign; allocating fresh temporaries
    on every event shows up directly in the per-ask latency once ``n`` grows
    past a few thousand.  A :class:`Workspace` hands out views into
    capacity-doubled backing buffers, so a steady-state loop performs zero
    heap allocations.

    Buffers are keyed by name; requesting a key with a larger size grows the
    backing store (never shrinks).  The returned views are uninitialised —
    callers must overwrite them fully.
    """

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}

    def array(self, key: str, shape, dtype=float, order: str = "C") -> np.ndarray:
        """An uninitialised array view of ``shape`` backed by pool ``key``.

        ``order="F"`` hands out a Fortran-layout view — pair it with
        :func:`solve_lower(..., overwrite_rhs=True)` so LAPACK solves truly
        in place instead of silently copying a C-ordered right-hand side.
        """
        shape = tuple(int(s) for s in (shape if np.iterable(shape) else (shape,)))
        size = 1
        for s in shape:
            size *= s
        buf = self._buffers.get(key)
        if buf is None or buf.size < size or buf.dtype != np.dtype(dtype):
            capacity = size if buf is None else max(size, 2 * buf.size)
            buf = np.empty(capacity, dtype=dtype)
            self._buffers[key] = buf
        return buf[:size].reshape(shape, order=order)

    def clear(self) -> None:
        self._buffers.clear()

    @property
    def nbytes(self) -> int:
        return sum(buf.nbytes for buf in self._buffers.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Workspace(keys={sorted(self._buffers)}, nbytes={self.nbytes})"


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


def solve_lower(
    lower: np.ndarray, rhs: np.ndarray, *, overwrite_rhs: bool = False
) -> np.ndarray:
    """Solve ``L x = rhs`` for lower-triangular ``L`` (a float64 ndarray).

    Calls LAPACK ``dtrtrs`` with the arguments
    ``scipy.linalg.solve_triangular(L, rhs, lower=True)`` picks — ``L``
    itself when it is Fortran-ordered, else the upper-triangular ``L^T``
    solved transposed — so the result is the wrapper's bit for bit without
    its per-call validation.  Every factor passed here was produced by this
    module, which rejects non-finite input up front; a finiteness scan per
    call would only re-check known-good data on the hot path.

    ``overwrite_rhs=True`` lets LAPACK solve in place when ``rhs`` is a
    Fortran-ordered scratch buffer the caller owns (e.g. from a
    :class:`Workspace`) — the allocation-free variant used by the sparse
    posterior hot loop.

    Raises
    ------
    numpy.linalg.LinAlgError
        If ``L`` has a zero on its diagonal.
    """
    if lower.flags.f_contiguous:
        x, info = lapack.dtrtrs(lower, rhs, lower=1, overwrite_b=overwrite_rhs)
    else:
        x, info = lapack.dtrtrs(
            lower.T, rhs, lower=0, trans=1, overwrite_b=overwrite_rhs
        )
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


def _rank1_sweep(L: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Blocked Givens sweep for the rank-1 update (+x x^T), any layout.

    The classic column-at-a-time sweep touches the *entire* trailing
    submatrix once per column — O(n) short numpy calls whose operands fall
    out of cache between iterations.  Here columns are processed in panels of
    :data:`CHOLESKY_BLOCK`: rotations are computed against panel-local rows
    only, then applied to the trailing rows in one pass per panel while
    ``x[p1:]`` stays cache-resident.

    Per element the chain of floating-point operations (and their order) is
    identical to the unblocked sweep — row ``j``'s transformation at column
    ``i`` depends only on values produced by columns ``< i`` for that same
    row — so the result is bit-for-bit the same; only the schedule changes.

    Mutates and returns ``L``; ``x`` is consumed as scratch.
    """
    n = L.shape[0]
    c_buf = np.empty(CHOLESKY_BLOCK)
    s_buf = np.empty(CHOLESKY_BLOCK)
    scratch = np.empty(n)
    for p0 in range(0, n, CHOLESKY_BLOCK):
        p1 = min(p0 + CHOLESKY_BLOCK, n)
        for i in range(p0, p1):
            r = np.hypot(L[i, i], x[i])
            c = r / L[i, i]
            s = x[i] / L[i, i]
            L[i, i] = r
            c_buf[i - p0] = c
            s_buf[i - p0] = s
            if i + 1 < p1:
                L[i + 1 : p1, i] = (L[i + 1 : p1, i] + s * x[i + 1 : p1]) / c
                x[i + 1 : p1] = c * x[i + 1 : p1] - s * L[i + 1 : p1, i]
        if p1 < n:
            x_tail = x[p1:]
            tmp = scratch[: n - p1]
            for i in range(p0, p1):
                col = L[p1:, i]
                c = c_buf[i - p0]
                s = s_buf[i - p0]
                np.multiply(x_tail, s, out=tmp)
                col += tmp
                col /= c
                x_tail *= c
                np.multiply(col, s, out=tmp)
                x_tail -= tmp
    return L


def _rank1_update_drot(L: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Givens sweep for the rank-1 *update* on BLAS ``drot``.

    Column ``i``'s rotation ``(c, s) = (L_ii, x_i) / r`` zeroes ``x_i``
    against the diagonal; applying it to the trailing column and ``x`` is a
    single strided BLAS call instead of a handful of short numpy
    expressions, which is what dominates at the sparse posterior's factor
    sizes (m ~ a few hundred: the loop is pure Python overhead, the data is
    a fraction of L2).  Uses the textbook rotation ``c*col + s*x`` rather
    than the sweep's scaled form — algebraically identical, different
    round-off, which the ≤1e-8 equivalence harnesses absorb.

    ``L`` must be C-contiguous float64 (callers check); mutated in place.
    """
    n = L.shape[0]
    flat = L.reshape(-1)  # C-contiguous view over the factor's own memory
    hypot = math.hypot
    for i in range(n):
        lii = flat[i * n + i]
        xi = x[i]
        r = hypot(lii, xi)
        c = lii / r
        s = xi / r
        flat[i * n + i] = r
        m = n - i - 1
        if m:
            blas.drot(
                flat, x, c, s, n=m,
                offx=(i + 1) * n + i, incx=n, offy=i + 1, incy=1,
                overwrite_x=True, overwrite_y=True,
            )
    return L


def cholesky_rank1_update(
    lower: np.ndarray, v: np.ndarray, *, overwrite: bool = False
) -> np.ndarray:
    """Factor of ``L L^T + v v^T`` via Givens rotations in O(n^2).

    The hot path (C-contiguous float64 factor, the only layout the GP code
    produces) runs one BLAS ``drot`` per column; other layouts fall back to
    the blocked numpy sweep.  ``overwrite=True`` updates ``lower`` in place
    (it must be a float array the caller owns); otherwise a copy is
    returned and the input untouched.
    """
    L = np.asarray(lower, dtype=float) if overwrite else np.array(lower, dtype=float)
    x = np.asarray(v, dtype=float).ravel().copy()
    n = L.shape[0]
    if x.shape[0] != n:
        raise ValueError(f"v must have length {n}, got {x.shape[0]}")
    if L.flags.c_contiguous and L.dtype == np.float64 and x.flags.c_contiguous:
        return _rank1_update_drot(L, x)
    return _rank1_sweep(L, x)
