"""Budgeted inducing-point GP posterior (DTC/VFE predictive equations).

The exact GP caps campaigns near n≈1000: refits are O(n^3) and even the
incremental path pays O(n^2) per event.  This module adds the scalable
alternative behind the :class:`~repro.gp.gp.PosteriorState` seam — a
deterministic-training-conditional (DTC) posterior over ``m`` inducing
points chosen from the training set by greedy max-min (farthest-point)
selection:

    Q(x, x') = k(x, Z) Kuu^{-1} k(Z, x')
    mu(x*)   = k(x*, Z) B^{-1} c
    var(x*)  = k(x*, x*) - k(x*, Z) Kuu^{-1} k(Z, x*)
                         + k(x*, Z) B^{-1}  k(Z, x*)

with ``B = Kuu + sigma_n^{-2} Kuf Kfu`` and ``c = sigma_n^{-2} Kuf y``
(a zero prior mean on the standardized targets ``y``).  Two factors are
maintained: ``Luu`` of ``Kuu`` and ``LB`` of ``B``.  Telling one new
observation is a rank-1 update of ``LB`` plus an O(m) update of ``c`` —
O(m^2) per event independent of n, which is what opens the 10k-evaluation
scenario class.

Three exactness properties anchor the test suite (tests/test_properties.py):

* when the inducing set equals the training set the DTC posterior is
  *algebraically identical* to the exact GP posterior
  (``B = sigma^{-2} Kff (sigma^2 I + Kff)`` makes ``Kff^{-1}`` cancel);
* the posterior error versus the exact GP shrinks as ``m -> n``;
* the kriging-believer hallucination leaves the sparse mean surface
  unchanged: adding a pending point at its own predictive mean maps
  ``B -> B + sigma^{-2} kp kp^T`` and ``c -> c + sigma^{-2} kp (kp^T w)``,
  and a Sherman–Morrison step shows ``B'^{-1} c' = B^{-1} c`` exactly.
  :class:`SparseHallucinatedView` therefore shares ``w`` with its base and
  only rank-1-updates a copy of ``LB``, giving the Eq. 9 variance collapse
  (sigma-hat <= sigma) at O(m^2) per pending point.

This sparse path is an *extension beyond the paper*, which uses exact GPs
throughout (see docs/paper_mapping.md).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.gp import linalg
from repro.gp.gp import NOISE_FLOOR, VARIANCE_FLOOR, PosteriorState
from repro.gp.kernels import SquaredExponential
from repro.utils.validation import check_finite, check_matrix, check_vector

__all__ = [
    "select_inducing",
    "SparseInducingState",
    "SparseGaussianProcess",
    "SparseHallucinatedView",
]


def select_inducing(X: np.ndarray, m: int, *, include=None) -> np.ndarray:
    """Deterministic greedy max-min (farthest-point) inducing selection.

    Starts from the point nearest the dataset centroid, then repeatedly adds
    the point farthest (Euclidean) from the current set.  Ties break toward
    the lowest index and the result is sorted, so the same dataset always
    yields the same inducing set — a requirement for bit-exact golden
    trajectories and crash/resume replay.  O(n m) time, O(n) memory.

    ``include`` forces specific dataset indices into the set before the
    greedy fill.  Pure max-min is space-filling, which systematically
    starves exactly the region a BO loop cares most about — the incumbent
    basin, where late observations cluster tightly and are therefore
    "close to the set" already.  Callers pass the incumbent and the most
    recent observations here so the approximation keeps resolution where
    the acquisition needs it (see ``SurrogateSession._fit_ml2_sparse``).
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    m = int(m)
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if m >= n:
        return np.arange(n)
    if include is not None:
        # Deduplicate preserving order, cap at the budget.
        seen = set()
        selected = []
        for i in np.asarray(include, dtype=int).ravel():
            i = int(i)
            if not 0 <= i < n:
                raise ValueError(f"include index {i} out of range for n={n}")
            if i not in seen:
                seen.add(i)
                selected.append(i)
        selected = selected[:m]
    else:
        selected = []
    if not selected:
        centroid = X.mean(axis=0)
        selected = [int(np.argmin(np.sum((X - centroid) ** 2, axis=1)))]
    min_dist = np.sum((X - X[selected[0]]) ** 2, axis=1)
    for i in selected[1:]:
        np.minimum(min_dist, np.sum((X - X[i]) ** 2, axis=1), out=min_dist)
    for _ in range(len(selected), m):
        nxt = int(np.argmax(min_dist))
        selected.append(nxt)
        np.minimum(min_dist, np.sum((X - X[nxt]) ** 2, axis=1), out=min_dist)
    return np.array(sorted(selected), dtype=int)


@dataclasses.dataclass
class SparseInducingState(PosteriorState):
    """Inducing-point posterior value object (see module docstring).

    ``w`` is ``B^{-1} c`` — the sparse analogue of the exact state's
    ``alpha``.  ``stale_w`` mirrors the exact path's ``refresh_alpha=False``
    contract: an update may defer the ``w`` solve when a ``set_targets``
    immediately follows.
    """

    Z: np.ndarray
    luu: np.ndarray
    lb: np.ndarray
    c: np.ndarray
    w: np.ndarray
    inducing_indices: np.ndarray
    stale_w: bool = False

    @property
    def n_inducing(self) -> int:
        return self.Z.shape[0]

    def copy(self) -> "SparseInducingState":
        return SparseInducingState(
            Z=self.Z.copy(),
            luu=self.luu.copy(),
            lb=self.lb.copy(),
            c=self.c.copy(),
            w=self.w.copy(),
            inducing_indices=self.inducing_indices.copy(),
            stale_w=self.stale_w,
        )


class SparseGaussianProcess:
    """Inducing-point GP with O(m^2)-per-event incremental updates.

    Duck-typed to :class:`~repro.gp.gp.GaussianProcess` for everything the
    surrogate session and acquisitions touch (``fit`` / ``update`` /
    ``set_targets`` / ``predict`` / ``condition_on_pending`` / ``copy``).
    Hyperparameters are *not* fitted here — the session runs ML-II on an
    exact helper GP over the inducing subset and passes the kernel in.
    """

    def __init__(
        self,
        dim: int | None = None,
        *,
        kernel: SquaredExponential | None = None,
        noise_variance: float = 1e-6,
        n_inducing: int = 256,
    ):
        if kernel is None:
            if dim is None:
                raise ValueError("provide either dim or kernel")
            kernel = SquaredExponential(dim)
        elif dim is not None and kernel.dim != dim:
            raise ValueError(f"kernel.dim={kernel.dim} does not match dim={dim}")
        if noise_variance < 0:
            raise ValueError(f"noise_variance must be >= 0, got {noise_variance}")
        if int(n_inducing) < 1:
            raise ValueError(f"n_inducing must be >= 1, got {n_inducing}")
        self.kernel = kernel
        self.noise_variance = max(float(noise_variance), NOISE_FLOOR)
        self.n_inducing = int(n_inducing)
        self._state: SparseInducingState | None = None
        self._workspace = linalg.Workspace()
        # Growth buffers: X/y/kfu share a doubling capacity so each tell is
        # amortized O(m) memory traffic instead of an O(n m) reallocation.
        # The cross-covariance cache is stored as k(X, Z) — rows per training
        # point — so the live slice ``[:n]`` stays C-contiguous as n grows.
        self._n = 0
        self._capacity = 0
        self._X_buf: np.ndarray | None = None
        self._y_buf: np.ndarray | None = None
        self._kfu_buf: np.ndarray | None = None

    # ------------------------------------------------------------ properties
    @property
    def dim(self) -> int:
        return self.kernel.dim

    @property
    def is_fitted(self) -> bool:
        return self._state is not None

    @property
    def posterior_state(self) -> SparseInducingState:
        self._require_fitted()
        return self._state

    @property
    def X(self) -> np.ndarray:
        self._require_fitted()
        return self._X_buf[: self._n]

    @property
    def y(self) -> np.ndarray:
        self._require_fitted()
        return self._y_buf[: self._n]

    @property
    def n_train(self) -> int:
        return self._n

    @property
    def inducing_points(self) -> np.ndarray:
        self._require_fitted()
        return self._state.Z.copy()

    @property
    def _kfu(self) -> np.ndarray:
        """The cached ``k(X, Z)`` block, shape ``(n, m)``."""
        return self._kfu_buf[: self._n]

    # ------------------------------------------------------------------ fit
    def fit(self, X, y, *, inducing_indices=None) -> "SparseGaussianProcess":
        """Select inducing points and build both factors from scratch.

        ``inducing_indices`` overrides the greedy selection (used by the
        session to reuse the subset ML-II already selected, and by the
        degenerate-equivalence tests to force ``Z == X``).
        """
        X = check_matrix(X, "X", cols=self.dim)
        y = check_vector(y, "y", size=X.shape[0])
        if X.shape[0] == 0:
            raise ValueError("cannot fit a GP on an empty dataset")
        check_finite(X, "X")
        check_finite(y, "y")
        n = X.shape[0]
        if inducing_indices is None:
            idx = select_inducing(X, min(self.n_inducing, n))
        else:
            idx = np.asarray(inducing_indices, dtype=int)
            if idx.ndim != 1 or idx.size < 1:
                raise ValueError("inducing_indices must be a non-empty 1-D index array")
        Z = X[idx].copy()
        m = Z.shape[0]

        Kuu = self.kernel(Z)
        luu, jitter = linalg.jittered_cholesky(Kuu)
        inv_noise = 1.0 / self.noise_variance

        self._ensure_capacity(n, m)
        self._n = n
        self._X_buf[:n] = X
        self._y_buf[:n] = y
        kfu = self._kfu_buf[:n]
        self.kernel.cross(X, Z, out=kfu)

        B = Kuu + inv_noise * (kfu.T @ kfu)
        if jitter:
            B[np.diag_indices_from(B)] += jitter
        lb, _ = linalg.jittered_cholesky(B)
        c = inv_noise * (kfu.T @ y)
        w = linalg.cholesky_solve(lb, c)
        self._state = SparseInducingState(
            Z=Z, luu=luu, lb=lb, c=c, w=w, inducing_indices=idx.copy()
        )
        return self

    def _ensure_capacity(self, n: int, m: int | None = None) -> None:
        if m is None:
            m = self._kfu_buf.shape[1]
        if (
            self._capacity >= n
            and self._kfu_buf is not None
            and self._kfu_buf.shape[1] == m
        ):
            return
        capacity = max(n, 2 * self._capacity, 64)
        X_buf = np.empty((capacity, self.dim))
        y_buf = np.empty(capacity)
        kfu_buf = np.empty((capacity, m))
        if self._n and self._X_buf is not None:
            X_buf[: self._n] = self._X_buf[: self._n]
            y_buf[: self._n] = self._y_buf[: self._n]
            if self._kfu_buf is not None and self._kfu_buf.shape[1] == m:
                kfu_buf[: self._n] = self._kfu_buf[: self._n]
        self._X_buf, self._y_buf, self._kfu_buf = X_buf, y_buf, kfu_buf
        self._capacity = capacity

    # ------------------------------------------------------------- updates
    def update(
        self, X_new, y_new, *, refresh_alpha: bool = True
    ) -> "SparseGaussianProcess":
        """Fold in new observations at O(m^2) each (frozen hyperparameters).

        The inducing set is kept fixed: ``LB`` absorbs each new point by one
        rank-1 update with ``k(Z, x_new)/sigma_n`` and ``c`` by an O(m)
        axpy.  Mirrors :meth:`GaussianProcess.update` including the
        ``refresh_alpha=False`` leave-it-stale contract.  Unlike the exact
        append this can never lose positive definiteness (``B`` only grows
        by PSD terms), so there is no LinAlgError fallback path.
        """
        self._require_fitted()
        X_new = check_matrix(X_new, "X_new", cols=self.dim)
        y_new = check_vector(y_new, "y_new", size=X_new.shape[0])
        if X_new.shape[0] == 0:
            return self
        check_finite(X_new, "X_new")
        check_finite(y_new, "y_new")
        state = self._state
        m = state.n_inducing
        k = X_new.shape[0]
        k_new = self.kernel.cross(
            X_new, state.Z, out=self._workspace.array("k_new", (k, m))
        )
        inv_noise = 1.0 / self.noise_variance
        sigma = np.sqrt(self.noise_variance)
        scaled = self._workspace.array("scaled_row", m)
        for j in range(k):
            np.divide(k_new[j], sigma, out=scaled)
            linalg.cholesky_rank1_update(state.lb, scaled, overwrite=True)
        state.c += inv_noise * (k_new.T @ y_new)

        self._ensure_capacity(self._n + k)
        self._X_buf[self._n : self._n + k] = X_new
        self._y_buf[self._n : self._n + k] = y_new
        self._kfu_buf[self._n : self._n + k] = k_new
        self._n += k

        if refresh_alpha:
            state.w = linalg.cholesky_solve(state.lb, state.c)
            state.stale_w = False
        else:
            state.stale_w = True
        return self

    def set_targets(self, y) -> "SparseGaussianProcess":
        """Replace all targets reusing the factors — one O(n m) matvec."""
        self._require_fitted()
        y = check_vector(y, "y", size=self._n)
        check_finite(y, "y")
        self._y_buf[: self._n] = y
        state = self._state
        state.c = (1.0 / self.noise_variance) * (self._kfu.T @ y)
        state.w = linalg.cholesky_solve(state.lb, state.c)
        state.stale_w = False
        return self

    # -------------------------------------------------------------- predict
    def predict(self, X, return_std: bool = True):
        """DTC posterior mean (and standard deviation) at the rows of ``X``.

        Allocation-lean: the kernel block and both triangular solves run in
        workspace buffers (F-ordered so LAPACK solves in place).
        """
        state = self._fresh_state()
        X = check_matrix(X, "X", cols=self.dim)
        m = state.n_inducing
        q = X.shape[0]
        ku = self.kernel.cross(state.Z, X, out=self._workspace.array("ku", (m, q)))
        mu = ku.T @ state.w
        if not return_std:
            return mu
        v1 = self._workspace.array("v1", (m, q), order="F")
        np.copyto(v1, ku)
        v1 = linalg.solve_lower(state.luu, v1, overwrite_rhs=True)
        v2 = self._workspace.array("v2", (m, q), order="F")
        np.copyto(v2, ku)
        v2 = linalg.solve_lower(state.lb, v2, overwrite_rhs=True)
        var = self.kernel.diag(X) - np.sum(v1**2, axis=0) + np.sum(v2**2, axis=0)
        sigma = np.sqrt(np.maximum(var, VARIANCE_FLOOR))
        return mu, sigma

    # ------------------------------------------------- pending-point scheme
    def condition_on_pending(self, X_pending) -> "SparseHallucinatedView":
        """Hallucinate pending points (paper §III-C) at O(m^2) per point.

        Returns a :class:`SparseHallucinatedView` — predict-only, like the
        exact path's :class:`~repro.core.surrogate.HallucinatedView`, which
        is all acquisitions consume.  The mean surface is exactly unchanged
        (see module docstring); sigma-hat collapses at the pending points.
        """
        self._require_fitted()
        return SparseHallucinatedView(self, X_pending)

    # ----------------------------------------------------------------- misc
    def copy(self) -> "SparseGaussianProcess":
        """Deep-enough copy sharing no mutable state with the original."""
        model = SparseGaussianProcess(
            kernel=self.kernel.copy(),
            noise_variance=self.noise_variance,
            n_inducing=self.n_inducing,
        )
        if self.is_fitted:
            model._state = self._state.copy()
            model._n = self._n
            model._capacity = self._capacity
            model._X_buf = self._X_buf.copy()
            model._y_buf = self._y_buf.copy()
            model._kfu_buf = self._kfu_buf.copy()
        return model

    def _require_fitted(self) -> None:
        if not self.is_fitted:
            raise RuntimeError("SparseGaussianProcess must be fitted first")

    def _fresh_state(self) -> SparseInducingState:
        """The fitted posterior state, refused while its weights are stale."""
        self._require_fitted()
        if self._state.stale_w:
            raise RuntimeError(
                "posterior weights are stale (update(refresh_alpha=False) "
                "without a following set_targets)"
            )
        return self._state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        m = self._state.n_inducing if self.is_fitted else 0
        return (
            f"SparseGaussianProcess(n_train={self.n_train}, n_inducing={m}, "
            f"kernel={self.kernel!r}, noise_variance={self.noise_variance:.3e})"
        )


class SparseHallucinatedView:
    """Sparse-posterior view with pending points folded in, factor-shared.

    The kriging-believer pseudo-observations leave ``w = B^{-1} c`` exactly
    invariant (Sherman–Morrison, see module docstring), so the view shares
    the base model's weights and inducing factor ``Luu`` and owns only a
    rank-1-updated copy of the m-by-m ``LB`` — construction is O(m^2 k)
    regardless of n, and discarding the pending points is dropping the view.
    """

    def __init__(self, base: SparseGaussianProcess, X_pending):
        X_pending = check_matrix(X_pending, "X_pending", cols=base.dim)
        if X_pending.shape[0] == 0:
            raise ValueError("SparseHallucinatedView needs at least one pending point")
        check_finite(X_pending, "X_pending")
        base._require_fitted()
        self.base = base
        self._X_pending = X_pending.copy()
        state = base.posterior_state
        kp = base.kernel.cross(state.Z, X_pending)  # (m, k)
        sigma = np.sqrt(base.noise_variance)
        self._lb_p = state.lb.copy()
        for j in range(X_pending.shape[0]):
            linalg.cholesky_rank1_update(self._lb_p, kp[:, j] / sigma, overwrite=True)

    # ---------------------------------------------------------- properties
    @property
    def dim(self) -> int:
        return self.base.dim

    @property
    def n_pending(self) -> int:
        return self._X_pending.shape[0]

    @property
    def n_train(self) -> int:
        """Size of the hallucinated training set (real + pending)."""
        return self.base.n_train + self.n_pending

    @property
    def X_pending(self) -> np.ndarray:
        return self._X_pending.copy()

    # ------------------------------------------------------------- predict
    def predict(self, X, return_std: bool = True):
        """Posterior mean (and the paper's sigma-hat) at the rows of ``X``.

        The mean equals the base model's mean exactly (kriging believer);
        the standard deviation is collapsed around the pending points.
        """
        X = check_matrix(X, "X", cols=self.dim)
        base = self.base
        state = base._fresh_state()
        ku = base.kernel.cross(state.Z, X)  # (m, q), shared by the mean and sigma
        mu = ku.T @ state.w
        if not return_std:
            return mu
        v1 = linalg.solve_lower(state.luu, ku)
        v2 = linalg.solve_lower(self._lb_p, ku)
        var = (
            base.kernel.diag(X)
            - np.sum(v1**2, axis=0)
            + np.sum(v2**2, axis=0)
        )
        sigma = np.sqrt(np.maximum(var, VARIANCE_FLOOR))
        return mu, sigma

    def discard(self) -> SparseGaussianProcess:
        """Return the untouched base model (dropping the view is free)."""
        return self.base

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SparseHallucinatedView(n_train={self.base.n_train}, "
            f"n_pending={self.n_pending})"
        )
