"""Regularized FIR estimation and marginal-likelihood hyperparameter tuning.

The estimator solves

    min_g  ||y - A g||^2 + (sigma^2 / lambda) * g' K^{-1} g

for an impulse response ``g`` of length ``T``, with the kernel ``K`` drawn
from one of the families in :mod:`stablekern.kernels`.  Hyperparameters are
chosen by minimizing the negative log marginal likelihood, evaluated either
directly on the ``N x N`` output covariance or through a QR factorization of
the stacked least-squares system, which costs ``O(T^3)`` per trial point
after a one-time reduction of the data matrix.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular, toeplitz
from scipy.linalg.lapack import dtpqrt
from scipy.optimize import minimize

from .errors import (
    ConditioningError,
    DimensionError,
    OptimizationError,
    ParameterError,
)
from .kernels import (
    BandedFactor,
    KernelSpec,
    _cached_factor,
    _dense_chol_of_inverse,
    leading_variance,
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
        arr = np.loadtxt(path_or_file, delimiter=",", skiprows=1, ndmin=2)
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


def _family_parameters(template: KernelSpec) -> _BoxTransform:
    names = ["lam"]
    bounds = [LAMBDA_BOUNDS]
    if template.family == "SS":
        names.append("gamma")
        bounds.append(DECAY_BOUNDS)
    else:
        names.append("beta")
        bounds.append(DECAY_BOUNDS)
        if template.family in ("DC", "DCd", "HCd"):
            names.append("alpha")
            bounds.append(ALPHA_BOUNDS)
    return _BoxTransform(names, bounds)


def _spec_from_values(template: KernelSpec, names, values) -> KernelSpec:
    kw = dict(zip(names[1:], values[1:]))
    return KernelSpec(
        template.family,
        beta=kw.get("beta"),
        alpha=kw.get("alpha"),
        delta=template.delta,
        gamma=kw.get("gamma"),
    )


def _template_spec(template) -> KernelSpec:
    """Normalize a family template (compact name or KernelSpec) to a spec
    skeleton carrying only family and order; parameter values are dummies."""
    name = template.display_name if isinstance(template, KernelSpec) else str(template)
    for kw in ({"beta": 0.5}, {"beta": 0.5, "alpha": 0.5}, {"gamma": 0.5}):
        try:
            return KernelSpec.from_name(name, **kw)
        except ParameterError:
            continue
    raise ParameterError(f"unrecognized kernel family template {name!r}")

_DEFAULT_LAMBDA_GRID = tuple(10.0 ** k for k in range(-4, 5, 2))
_DEFAULT_DECAY_GRID = (0.35, 0.6, 0.8, 0.92, 0.975)
_DEFAULT_ALPHA_GRID = (0.15, 0.5, 0.85)


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
    """Tune ``(lambda, eta)`` for one kernel family by minimizing the QR
    marginal likelihood, then return the regularized estimate at the optimum.

    The search seeds a coarse log-spaced grid, refines the best points with
    a Nelder-Mead simplex in logit/log-transformed coordinates, and restarts
    the simplex until it stops improving, which makes refits with the
    returned point as sole seed reproduce the result bit for bit.

    ``template`` names the family (e.g. ``"TC2"``, ``"DC"``, a
    :class:`KernelSpec` is also accepted); ``sigma2`` falls back to the
    dataset's value or to :func:`estimate_sigma2`.  Kernels are rescaled to
    unit leading variance inside the objective, so the reported ``lam`` is
    expressed for the unit-scaled kernel regardless of family.
    """
    if not isinstance(dataset, Dataset):
        raise ParameterError("dataset must be a Dataset instance")
    T = int(T)
    if T < 1:
        raise DimensionError(f"T must be >= 1; got {T}")
    template = _template_spec(template)
    if template.family in ("TCd", "DCd", "HFd", "HCd") and T < template.delta + 2:
        raise DimensionError(
            f"order-{template.delta} families need T >= delta + 2; got T={T}"
        )
    N = dataset.n
    if sigma2 is None:
        sigma2 = dataset.sigma2
    if sigma2 is None:
        sigma2 = estimate_sigma2(dataset.u, dataset.y, order=min(T, max(1, N // 3)))
    if not sigma2 > 0:
        raise ParameterError(f"sigma2 must be positive; got {sigma2}")

    A = build_regressor(dataset.u, N, T)
    R0 = _reduce_data(A, dataset.y)
    transform = _family_parameters(template)
    names = transform.names

    def objective_values(values):
        spec = _spec_from_values(template, names, values)
        factor = _cached_factor(spec, T)
        scale = leading_variance(spec)
        nll, R1, R2 = _nll_from_stack(R0, factor, values[0] / scale, sigma2, N)
        return nll, R1, R2, spec

    def objective_z(z):
        try:
            return objective_values(transform.from_z(z))[0]
        except (ConditioningError, np.linalg.LinAlgError):
            return np.inf

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
            seed_values.append(point)
    if not seed_values:
        raise OptimizationError("no seed points provided")

    scored = []
    for values in seed_values:
        try:
            f = objective_values(values)[0]
        except (ConditioningError, np.linalg.LinAlgError):
            continue
        scored.append((f, tuple(values)))
    if not scored:
        raise OptimizationError(
            f"all {len(seed_values)} seed points evaluated non-finite for "
            f"family {template.display_name} (N={N}, T={T}, sigma2={sigma2:g})"
        )
    scored.sort(key=lambda t: (t[0], t[1]))

    # Refinement tracks the incumbent in parameter space and restarts the
    # simplex from it until no strict improvement remains, so a refit seeded
    # with the returned point replays the same terminal simplex and stops.
    best_f, best_values = scored[0][0], list(scored[0][1])
    for f0, v0 in scored[: max(1, refine_starts)]:
        f_cur, v_cur = f0, list(v0)
        while True:
            res = minimize(
                objective_z,
                transform.to_z(v_cur),
                method="Nelder-Mead",
                options={"xatol": 1e-8, "fatol": 1e-12,
                         "maxiter": maxiter * len(v_cur)},
            )
            if res.fun < f_cur:
                f_cur, v_cur = float(res.fun), transform.from_z(res.x)
            else:
                break
        if f_cur < best_f:
            best_f, best_values = f_cur, v_cur

    nll, R1, R2, spec = objective_values(best_values)
    g_hat = solve_triangular(R1, R2, lower=False)
    return EstimateResult(np.asarray(g_hat), float(best_values[0]), spec,
                          float(sigma2), nll)
