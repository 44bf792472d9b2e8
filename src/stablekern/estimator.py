"""Regularized FIR estimation and marginal-likelihood hyperparameter tuning.

The estimator solves

    min_g  ||y - A g||^2 + (sigma^2 / lambda) * g' K^{-1} g

for an impulse response ``g`` of length ``T``, with the kernel ``K`` drawn
from one of the families in :mod:`stablekern.kernels`.  Hyperparameters are
chosen by minimizing the negative log marginal likelihood.  It is evaluated
three ways: directly on the ``N x N`` output covariance (:func:`nll_direct`),
through the paper's banded factor and log-determinant in a QR update of the
stacked least-squares system (:func:`nll_qr`), and, in the tuner, on the
``T x T`` covariance ``lam R K~ R' + sigma2 I`` of the reduced data, with
``K~ = K / K[1, 1]`` and ``R`` the R factor of ``A``.  The last two cost
``O(T^3)`` per trial point after a one-time reduction of ``[A  y]``.  The
tuner runs BFGS (:func:`minimize`, a plain loop whose line search stops at a
fixed number of evaluations) on that one core: its gradient needs ``K~`` and
its complex-step derivatives (:func:`~stablekern.kernels._unit_tangents`), no
factor of ``K^{-1}``.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular, toeplitz
from scipy.linalg.lapack import dpotrf, dtpqrt, dtrtrs

from ._blas import single_threaded
from ._csv import load_csv
from .errors import (
    ConditioningError,
    DimensionError,
    OptimizationError,
    ParameterError,
)
from .kernels import (
    _FAMILY_TABLE,
    BandedFactor,
    KernelSpec,
    _dense_chol_of_inverse,
    _display_name,
    _unit_kernel,
    _unit_tangents,
    parse_family,
)

__all__ = [
    "Dataset",
    "EstimateResult",
    "build_regressor",
    "rls_estimate",
    "nll_direct",
    "nll_qr",
    "estimate_sigma2",
    "fit_hyperparameters",
]

LAMBDA_BOUNDS = (1e-8, 1e8)
DECAY_BOUNDS = (1e-3, 1.0 - 1e-3)
# alpha is boxed to [0, 1]; the logit transform needs an open interval, and
# the endpoints are covered exactly by the TC-type families anyway
ALPHA_BOUNDS = (1e-6, 1.0 - 1e-6)


@dataclass(frozen=True)
class Dataset:
    """Input/output records with optional known noise variance."""

    u: np.ndarray
    y: np.ndarray
    sigma2: float | None = None

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        y = np.asarray(self.y, dtype=float)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "y", y)
        if u.ndim != 1 or y.ndim != 1 or u.shape != y.shape:
            raise DimensionError(
                f"u and y must be 1-d sequences of equal length; got {u.shape}, {y.shape}"
            )
        if u.size < 1:
            raise DimensionError("dataset must contain at least one sample")
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(y))):
            raise ParameterError("dataset contains non-finite entries")
        if self.sigma2 is not None and not self.sigma2 > 0:
            raise ParameterError(f"sigma2 must be positive; got {self.sigma2}")
        u.setflags(write=False)
        y.setflags(write=False)

    @property
    def n(self) -> int:
        return self.u.size

    def to_csv(self, path_or_file) -> None:
        t = np.arange(1, self.n + 1)
        np.savetxt(
            path_or_file,
            np.column_stack([t, self.u, self.y]),
            fmt=["%d", "%.16e", "%.16e"],
            delimiter=",",
            header="t,u,y",
            comments="",
        )

    @classmethod
    def from_csv(cls, path_or_file, sigma2: float | None = None) -> "Dataset":
        arr = load_csv(path_or_file, "dataset CSV", skiprows=1)
        if arr.shape[1] != 3:
            raise ParameterError("dataset CSV must have columns t,u,y")
        order = np.argsort(arr[:, 0], kind="stable")
        return cls(arr[order, 1], arr[order, 2], sigma2=sigma2)


@dataclass(frozen=True)
class EstimateResult:
    """Fitted impulse response with the hyperparameters that produced it."""

    g_hat: np.ndarray
    lam: float
    spec: KernelSpec
    sigma2: float
    nll: float

    def __post_init__(self):
        self.g_hat.setflags(write=False)
        if not np.all(np.isfinite(self.g_hat)):
            raise ParameterError("estimate contains non-finite coefficients")
        if not math.isfinite(self.nll):
            raise ParameterError("achieved objective is not finite")

    def to_json(self) -> str:
        sp = self.spec
        return json.dumps(
            {
                "family": sp.display_name,
                "beta": sp.beta,
                "alpha": sp.alpha,
                "delta": sp.delta,
                "gamma": sp.gamma,
                "lambda": self.lam,
                "sigma2": self.sigma2,
                "nll": self.nll,
                "g_hat": self.g_hat.tolist(),
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "EstimateResult":
        d = json.loads(text)
        spec = KernelSpec.from_name(
            d["family"],
            beta=d.get("beta"),
            alpha=d.get("alpha"),
            delta=d.get("delta"),
            gamma=d.get("gamma"),
        )
        return cls(
            np.asarray(d["g_hat"], dtype=float),
            float(d["lambda"]),
            spec,
            float(d["sigma2"]),
            float(d["nll"]),
        )


# ---------------------------------------------------------------------------
# Regression matrix and direct solvers
# ---------------------------------------------------------------------------

def build_regressor(u, N: int, T: int) -> np.ndarray:
    """``N x T`` convolution matrix ``A[t, k] = u(t - k)`` (1-based), with
    ``u(tau) = 0`` for ``tau <= 0`` (zero initial conditions).

    ``A @ g`` is then the response of the FIR system ``g`` to ``u``.  A
    ``T > N`` request is allowed but flagged, since the least-squares part
    alone would be underdetermined.
    """
    u = np.asarray(u, dtype=float)
    N, T = int(N), int(T)
    if T < 1 or N < 1:
        raise DimensionError(f"need N >= 1 and T >= 1; got N={N}, T={T}")
    if u.size < N:
        raise DimensionError(f"input has {u.size} samples; need at least N={N}")
    if T > N:
        warnings.warn(
            f"T={T} exceeds N={N}: least-squares part is underdetermined",
            RuntimeWarning,
            stacklevel=2,
        )
    col = np.r_[0.0, u[: N - 1]]
    return toeplitz(col, np.zeros(T))


@single_threaded
def rls_estimate(A, y, K, lam: float, sigma2: float) -> np.ndarray:
    """Regularized least-squares estimate through the stacked QR system.

    Minimizes ``||y - A g||^2 + (sigma2/lam) * g' K^{-1} g`` by appending the
    rows ``sqrt(sigma2/lam) L'`` (with ``L L' = K^{-1}``) to ``A`` and
    solving the augmented ordinary least-squares problem.
    """
    A = np.asarray(A, dtype=float)
    y = np.asarray(y, dtype=float)
    if A.ndim != 2 or y.shape != (A.shape[0],):
        raise DimensionError(f"incompatible shapes A{A.shape}, y{y.shape}")
    if not lam > 0 or not sigma2 > 0:
        raise ParameterError("lam and sigma2 must be positive")
    T = A.shape[1]
    if isinstance(K, BandedFactor):
        Lt = K.to_dense().T
    else:
        Lt = _dense_chol_of_inverse(np.asarray(K, dtype=float)).T
    S = np.vstack([A, math.sqrt(sigma2 / lam) * Lt])
    rhs = np.r_[y, np.zeros(T)]
    Q, R = np.linalg.qr(S)
    if np.any(np.diag(R) == 0) or not np.all(np.isfinite(R)):
        raise ConditioningError("stacked system is rank deficient")
    return solve_triangular(R, Q.T @ rhs, lower=False)


@single_threaded
def nll_direct(y, A, K, lam: float, sigma2: float) -> float:
    """Negative log marginal likelihood on the ``N x N`` output covariance:
    ``log det(Z) + y' Z^{-1} y`` with ``Z = lam * A K A' + sigma2 * I``."""
    A = np.asarray(A, dtype=float)
    y = np.asarray(y, dtype=float)
    K = np.asarray(K, dtype=float)
    if not lam > 0 or not sigma2 > 0:
        raise ParameterError("lam and sigma2 must be positive")
    N = A.shape[0]
    Z = lam * (A @ K @ A.T) + sigma2 * np.eye(N)
    try:
        factor = cho_factor(Z, lower=True)
    except np.linalg.LinAlgError:
        raise ConditioningError("output covariance is numerically indefinite") from None
    logdet = 2.0 * np.sum(np.log(np.diag(factor[0])))
    quad = float(y @ cho_solve(factor, y))
    return float(logdet + quad)


# ---------------------------------------------------------------------------
# QR-based likelihood
# ---------------------------------------------------------------------------

# Block size of the triangular QR update; 8 and 16 time best at T = 20 .. 200.
_QR_BLOCK = 16


def _nll_from_stack(R0, factor: BandedFactor, lam: float, sigma2: float,
                    N: int) -> tuple[float, np.ndarray, np.ndarray]:
    """Shared core: QR-update the reduced data matrix with the scaled prior
    rows; returns the objective and (R1, R2) for recovering the estimate.

    The prior rows ``[sqrt(sigma2/lam) L', 0]`` are upper trapezoidal, so
    one ``dtpqrt`` (QR of a triangle stacked on a trapezoid) replaces a dense
    QR of the ``(2T+1) x (T+1)`` stack.
    """
    T = factor.dim
    row, col, values = factor.entries()
    P = np.zeros((T, T + 1), order="F")
    P[col, row] = math.sqrt(sigma2 / lam) * values
    R, _, _, info = dtpqrt(T, min(_QR_BLOCK, T + 1), R0, P, overwrite_b=1)
    with np.errstate(divide="ignore"):
        logdet_R1 = 2.0 * float(np.log(np.abs(R.diagonal()[:T])).sum())
    if info != 0 or not np.isfinite(R).all() or logdet_R1 == -math.inf:
        raise ConditioningError("R1 is rank deficient or non-finite")
    r = float(R[T, T])
    nll = (
        r * r / sigma2
        + (N - T) * math.log(sigma2)
        + T * math.log(lam)
        + factor.logdet_K
        + logdet_R1
    )
    if not math.isfinite(nll):
        raise ConditioningError("likelihood evaluated to a non-finite value")
    return nll, R[:T, :T], R[:T, T]


def _reduce_data(A: np.ndarray, y: np.ndarray) -> np.ndarray:
    """R factor of ``[A  y]``, padded with zero rows to ``(T+1) x (T+1)``
    when ``N < T + 1``; Fortran order, as LAPACK reads it."""
    R = np.linalg.qr(np.column_stack([A, y]), mode="r")
    R0 = np.zeros((R.shape[1], R.shape[1]), order="F")
    R0[: R.shape[0]] = R
    return R0


@single_threaded
def nll_qr(y, A, factor: BandedFactor, lam: float, sigma2: float) -> float:
    """Negative log marginal likelihood via the stacked QR route:

        r^2/sigma2 + (N - T) log sigma2 + log det(lam K) + 2 log det R1

    where ``[[A, y], [sigma lam**-0.5 L', 0]] = QR`` and ``log det(lam K)``
    uses the factor's closed-form log-determinant.  Equal to
    :func:`nll_direct` up to rounding, at ``O(T^3)`` cost after the one-time
    reduction of ``[A  y]``.
    """
    A = np.asarray(A, dtype=float)
    y = np.asarray(y, dtype=float)
    if A.ndim != 2 or y.shape != (A.shape[0],):
        raise DimensionError(f"incompatible shapes A{A.shape}, y{y.shape}")
    if A.shape[1] != factor.dim:
        raise DimensionError(
            f"factor dimension {factor.dim} does not match T={A.shape[1]}"
        )
    if not lam > 0 or not sigma2 > 0:
        raise ParameterError("lam and sigma2 must be positive")
    nll, _, _ = _nll_from_stack(_reduce_data(A, y), factor, lam, sigma2, A.shape[0])
    return nll


def estimate_sigma2(u, y, order: int | None = None) -> float:
    """Residual variance of an unregularized LS FIR fit of the given order.

    Default order is ``floor(N/3)``.  Rank-deficient regressors fall back to
    the pseudo-inverse solution.
    """
    u = np.asarray(u, dtype=float)
    y = np.asarray(y, dtype=float)
    N = y.size
    if order is None:
        order = max(1, N // 3)
    order = int(order)
    if not N > order:
        raise DimensionError(f"need N > order; got N={N}, order={order}")
    if order < 1:
        raise ParameterError(f"order must be >= 1; got {order}")
    A = build_regressor(u, N, order)
    g, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ g
    return float(resid @ resid / (N - order))


def _default_sigma2(dataset: Dataset, T: int) -> float:
    """The noise variance a fit of length ``T`` uses when none is given:
    :func:`estimate_sigma2` at order ``min(T, N // 3)``."""
    return estimate_sigma2(dataset.u, dataset.y, order=min(T, max(1, dataset.n // 3)))


# ---------------------------------------------------------------------------
# Hyperparameter search
# ---------------------------------------------------------------------------

def _logit(p):
    return math.log(p / (1.0 - p))

def _expit(z):
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


class _BoxTransform:
    """Bijection between a product of closed boxes and R^d via logit maps;
    lam uses a logit on its log-box so the search space stays bounded."""

    def __init__(self, names, bounds):
        self.names = list(names)
        self.bounds = list(bounds)

    def to_z(self, values):
        z = []
        for v, (lo, hi), name in zip(values, self.bounds, self.names):
            if name == "lam":
                v = math.log(v)
                lo, hi = math.log(lo), math.log(hi)
            p = min(max((v - lo) / (hi - lo), 1e-15), 1.0 - 1e-15)
            z.append(_logit(p))
        return np.asarray(z)

    def from_z(self, z):
        out = []
        for zi, (lo, hi), name in zip(z, self.bounds, self.names):
            p = _expit(min(max(float(zi), -40.0), 40.0))
            v = lo + p * (hi - lo)
            if name == "lam":
                v = math.exp(math.log(lo) + p * (math.log(hi) - math.log(lo)))
            out.append(v)
        return out

    def dvalue_dz(self, z) -> np.ndarray:
        """Derivative of each value, ``log lam`` for lam, along its own
        coordinate (zero where :meth:`from_z` clamps)."""
        out = np.zeros(len(z))
        for i, (zi, (lo, hi), name) in enumerate(zip(z, self.bounds, self.names)):
            if -40.0 < zi < 40.0:
                if name == "lam":
                    lo, hi = math.log(lo), math.log(hi)
                p = _expit(float(zi))
                out[i] = (hi - lo) * p * (1.0 - p)
        return out


_BOUNDS = {"lam": LAMBDA_BOUNDS, "beta": DECAY_BOUNDS, "gamma": DECAY_BOUNDS,
           "alpha": ALPHA_BOUNDS}


def _family_parameters(family: str) -> _BoxTransform:
    names = ["lam", *(name for name in _FAMILY_TABLE[family][2] if name != "delta")]
    return _BoxTransform(names, [_BOUNDS[name] for name in names])


_DEFAULT_LAMBDA_GRID = tuple(10.0 ** k for k in range(-4, 5, 2))
_DEFAULT_DECAY_GRID = (0.35, 0.6, 0.8, 0.92, 0.975)
_DEFAULT_ALPHA_GRID = (0.15, 0.5, 0.85)

# BFGS stops at this max-norm of the box-coordinate gradient.  An optimum on
# a box bound (alpha -> 0 or 1) lies at z -> +-inf, where the NLL still
# falls by about the gradient itself, so the tolerance is what such a fit
# leaves on the table.  Interior optima mostly stop earlier, near a gradient
# of 1e-7, where the NLL is flat to its rounding and a line search runs into
# the ``_LINE_SEARCH_EVALS`` cap.
_GRAD_TOL = 1e-8

# Likelihood evaluations one BFGS line search may spend, the first step
# counting its start point: the bound of :func:`minimize`'s search loop,
# which fails the step when it runs out.  Measured on scipy's BFGS without a
# cap, over the 120 fits of the first four ``mc-serial`` benchmark units, 99
# % of accepted steps needed at most 3 evaluations, and the 16 that needed
# more than 10 each lowered the NLL by 0-151 ulps; the 131 line searches
# that failed after more than 10 spent 18-65 evaluations on values a median
# 4 ulps (at most 3e-12 relative) from the incumbent.  A cap of 4 cost one
# fit 1.4e-3 of its NLL; 6 saved only 2 % more evaluations than 10.
_LINE_SEARCH_EVALS = 10


class _Likelihood:
    """Marginal likelihood of one dataset over the box coordinates of one
    kernel family, with its gradient.

    ``[A  y]`` reduces once to ``R0 = [[R, r], [0, rho]]`` (:func:`_reduce_data`).
    The rotated outputs ``r`` then have the covariance ``S = lam R K~ R' +
    sigma2 I = C C'``, ``K~ = K / K[1, 1]``, and the other ``N - T`` are white
    noise of total square ``rho^2``, so

        NLL = (N - T) log sigma2 + rho^2 / sigma2 + 2 sum log C_ii + |C^-1 r|^2,

    equal to :func:`nll_qr` at ``lam / K[1, 1]`` up to rounding.  A point is
    refused (``ConditioningError``) where ``K~`` or its derivatives are not
    finite or ``S`` is not positive definite.
    """

    def __init__(self, dataset: Dataset, family: tuple, T: int, sigma2: float):
        self.family, self.delta = family
        self.T, self.sigma2 = T, sigma2
        R0 = _reduce_data(build_regressor(dataset.u, dataset.n, T), dataset.y)
        self.R, self.r, rho = R0[:T, :T], R0[:T, T], float(R0[T, T])
        self.offset = (dataset.n - T) * math.log(sigma2) + rho * rho / sigma2
        self.transform = _family_parameters(self.family)

    def spec(self, values) -> KernelSpec:
        kw = dict(zip(self.transform.names[1:], values[1:]))
        return KernelSpec(self.family, delta=self.delta, **kw)

    def evaluate(self, values):
        """``(nll, spec, K~, C, C^-1 r)`` at ``values``."""
        spec = self.spec(values)
        K = _unit_kernel(spec, self.T)
        with np.errstate(over="ignore", invalid="ignore"):
            S = values[0] * (self.R @ K @ self.R.T)
        S.flat[:: self.T + 1] += self.sigma2
        C, info = dpotrf(S, lower=1)
        if info != 0:
            raise ConditioningError("lam R K~ R' + sigma2 I is not positive definite")
        v = dtrtrs(C, self.r, lower=1)[0]
        nll = self.offset + 2.0 * float(np.log(C.diagonal()).sum()) + float(v @ v)
        if not math.isfinite(nll):
            raise ConditioningError("likelihood evaluated to a non-finite value")
        return nll, spec, K, C, v

    def _weights(self, C, v) -> np.ndarray:
        """``w = R' S^-1 r``, so that the estimate is ``lam K~ w``."""
        return self.R.T @ dtrtrs(C, v, lower=1, trans=1)[0]

    def value_and_grad(self, z):
        """NLL and its gradient in box coordinates; ``(inf, 0)`` where the
        point is refused.

        With ``w = R' S^-1 r`` and ``P = R' S^-1 R - w w'``, a change ``dK~``
        of the kernel moves the NLL by ``lam sum P o dK~`` (Rasmussen &
        Williams, eq. 5.9): ``log lam`` by ``lam sum P o K~``, and each shape
        parameter by ``lam sum P o dK~_k`` with ``dK~_k`` from
        :func:`~stablekern.kernels._unit_tangents`.  The value is the one
        :meth:`evaluate` gives, to the bit.
        """
        values = self.transform.from_z(z)
        refused = math.inf, np.zeros(len(values))
        try:
            nll, spec, K, C, v = self.evaluate(values)
            dK = _unit_tangents(spec, self.T)
        except ConditioningError:
            return refused
        V = dtrtrs(C, self.R, lower=1)[0]
        w = self._weights(C, v)
        P = V.T @ V - np.outer(w, w)
        grad = values[0] * np.array([np.vdot(P, D) for D in (K, *dK)])
        grad *= self.transform.dvalue_dz(z)
        if not np.isfinite(grad).all():
            return refused
        return nll, grad

    def estimate(self, values) -> "EstimateResult":
        """The fit at ``values``: ``g_hat = lam K~ w`` with the NLL of
        :meth:`evaluate`."""
        nll, spec, K, C, v = self.evaluate(values)
        return EstimateResult(values[0] * (K @ self._weights(C, v)), float(values[0]), spec,
                              float(self.sigma2), nll)


class _Minimum(NamedTuple):
    """The end of a :func:`minimize` run: the last accepted point, its value,
    the evaluations spent, and ``status`` 0 at ``_GRAD_TOL``, 1 at
    ``maxiter`` or 2 when a line search failed or reached the cap."""

    x: np.ndarray
    fun: float
    nfev: int
    status: int


def _cubic_min(a, fa, da, b, fb, db):
    """Minimizer of the cubic with values ``fa, fb`` and slopes ``da, db`` at
    ``a`` and ``b`` (Nocedal & Wright, eq. 3.59), or ``None`` if it has none
    or a value is infinite."""
    d1 = da + db - 3.0 * (fa - fb) / (a - b)
    disc = d1 * d1 - da * db
    if not (math.isfinite(disc) and disc >= 0.0):
        return None
    d2 = math.copysign(math.sqrt(disc), b - a)
    denom = db - da + 2.0 * d2
    return b - (b - a) * (db + d2 - d1) / denom if denom != 0.0 else None


def minimize(fun, z0, maxiter: int) -> _Minimum:
    """BFGS on ``fun``, which returns a value and its gradient, from ``z0``.

    The inverse Hessian is updated as in Nocedal & Wright (2nd ed., Alg.
    6.1), with ``rho = 1000`` where ``y's = 0`` as scipy does.  Each step
    searches for a strong Wolfe point (``c1 = 1e-4``, ``c2 = 0.9``): it
    doubles scipy's first trial step until a bracket holds one (Alg. 3.5),
    then zooms in with cubic steps safeguarded by bisection (Alg. 3.6).  A
    point scored ``(inf, 0)`` fails sufficient decrease, so the bracket
    shrinks toward its low end.  A search that spends ``_LINE_SEARCH_EVALS``
    evaluations (the first counting ``z0``) fails, and the run ends at its
    last accepted point.
    """
    x = np.array(z0, dtype=float)
    f, g = fun(x)
    f, nfev = float(f), 1
    f_prev = f + float(np.linalg.norm(g)) / 2
    H = np.eye(x.size)
    for k in range(maxiter):
        if np.abs(g).max() <= _GRAD_TOL:
            return _Minimum(x, f, nfev, 0)
        p = -H @ g
        d0 = float(g @ p)
        if not d0 < 0.0:
            return _Minimum(x, f, nfev, 2)
        a = 2.02 * (f - f_prev) / d0
        a = min(1.0, a) if a > 0.0 else 1.0
        lo, hi = (0.0, f, d0), None  # (step, value, slope)
        for n in range(_LINE_SEARCH_EVALS - (k == 0)):
            f_a, g_a = fun(x + a * p)
            nfev += 1
            trial = (a, float(f_a), float(g_a @ p))
            if trial[1] > f + 1e-4 * a * d0 or (n and trial[1] >= lo[1]):
                hi = trial  # a Wolfe point lies between lo and the trial
            elif abs(trial[2]) <= -0.9 * d0:
                break
            else:
                if trial[2] * (hi[0] - lo[0] if hi else 1.0) >= 0.0:
                    hi = lo  # the slope turned: one lies behind the trial
                lo = trial
            if hi is None:
                a = 2.0 * a
            else:
                w = hi[0] - lo[0]
                c = _cubic_min(*lo, *hi)
                a = c if c is not None and 0.1 <= (c - lo[0]) / w <= 0.9 else lo[0] + 0.5 * w
        else:
            return _Minimum(x, f, nfev, 2)
        s, y = a * p, g_a - g
        x, f_prev, f, g = x + s, f, trial[1], g_a
        ys = float(y @ s)
        rho = 1.0 / ys if ys != 0.0 else 1000.0
        V = np.eye(x.size) - rho * np.outer(s, y)
        H = V @ H @ V.T + rho * np.outer(s, s)
    return _Minimum(x, f, nfev, 0 if np.abs(g).max() <= _GRAD_TOL else 1)


@single_threaded
def fit_hyperparameters(
    dataset: Dataset,
    template,
    T: int = 50,
    sigma2: float | None = None,
    seeds=None,
    use_default_grid: bool = True,
    refine_starts: int = 2,
    maxiter: int = 200,
) -> EstimateResult:
    """Tune ``(lambda, eta)`` for one kernel family by minimizing the
    marginal likelihood, then return the regularized estimate at the optimum.

    The likelihood is evaluated on the QR-reduced data through the
    covariance ``lam R K~ R' + sigma2 I``, ``K~ = K / K[1, 1]``, with no
    factor of ``K^-1`` (:class:`_Likelihood`); its value and gradient and the
    returned ``nll`` and ``g_hat`` all come from that one core.  The search
    seeds a coarse log-spaced grid, refines the best points with BFGS on the
    gradient (complex-step shape derivatives) in logit/log-transformed
    coordinates, and restarts BFGS until it stops improving, which makes
    refits with the returned point as sole seed reproduce the result bit for
    bit.  A BFGS run (:func:`minimize`) ends at its last accepted step when a
    line search fails: it may spend ``_LINE_SEARCH_EVALS`` evaluations,
    which near an optimum only probe the rounding of the NLL.

    ``template`` names the family (e.g. ``"TC2"``, ``"DC"``; a ``(name,
    delta)`` pair such as ``("TCd", 3)`` or a :class:`KernelSpec` is also
    accepted), read by :func:`~stablekern.kernels.parse_family`; ``sigma2``
    falls back to the dataset's value or to :func:`estimate_sigma2`.
    Kernels are rescaled to unit leading variance inside the objective, so
    the reported ``lam`` is expressed for the unit-scaled kernel regardless
    of family.
    """
    if not isinstance(dataset, Dataset):
        raise ParameterError("dataset must be a Dataset instance")
    T = int(T)
    if T < 1:
        raise DimensionError(f"T must be >= 1; got {T}")
    if isinstance(template, KernelSpec):
        template = template.family, template.delta
    family, delta = (parse_family(*template) if isinstance(template, tuple)
                     else parse_family(template))
    if delta is not None and T < delta + 2:
        raise DimensionError(
            f"order-{delta} families need T >= delta + 2; got T={T}"
        )
    N = dataset.n
    if sigma2 is None:
        sigma2 = dataset.sigma2
    if sigma2 is None:
        sigma2 = _default_sigma2(dataset, T)
    if not sigma2 > 0:
        raise ParameterError(f"sigma2 must be positive; got {sigma2}")

    likelihood = _Likelihood(dataset, (family, delta), T, sigma2)
    transform = likelihood.transform
    names = transform.names

    # seed set: default coarse grid plus any caller-provided points
    seed_values = []
    if use_default_grid:
        etas = [(b,) for b in _DEFAULT_DECAY_GRID]
        if "alpha" in names:
            etas = [(b, a) for (b,) in etas for a in _DEFAULT_ALPHA_GRID]
        for lam in _DEFAULT_LAMBDA_GRID:
            for eta in etas:
                seed_values.append([lam, *eta])
    if seeds is not None:
        for point in seeds:
            point = list(point)
            if len(point) != len(names):
                raise ParameterError(f"seed {point} does not match parameters {names}")
            if not (math.isfinite(point[0]) and point[0] > 0):
                raise ParameterError(f"seed {point}: lam must be finite and positive")
            seed_values.append(point)
    if not seed_values:
        raise OptimizationError("no seed points provided")

    scored = []
    for values in seed_values:
        try:
            f = likelihood.evaluate(values)[0]
        except ConditioningError:
            continue
        scored.append((f, tuple(values)))
    if not scored:
        raise OptimizationError(
            f"all {len(seed_values)} seed points evaluated non-finite for "
            f"family {_display_name(family, delta)} (N={N}, T={T}, sigma2={sigma2:g})"
        )
    scored.sort(key=lambda t: (t[0], t[1]))

    # Refinement tracks the incumbent in parameter space and restarts BFGS
    # from it until no strict improvement remains, so a refit seeded with
    # the returned point replays the same final run and stops.
    best_f, best_values = scored[0][0], list(scored[0][1])
    for f0, v0 in scored[: max(1, refine_starts)]:
        f_cur, v_cur = f0, list(v0)
        while True:
            res = minimize(likelihood.value_and_grad, transform.to_z(v_cur),
                           maxiter * len(v_cur))
            if res.fun < f_cur:
                f_cur, v_cur = float(res.fun), transform.from_z(res.x)
            else:
                break
        if f_cur < best_f:
            best_f, best_values = f_cur, v_cur

    return likelihood.estimate(best_values)
