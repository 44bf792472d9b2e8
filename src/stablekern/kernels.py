"""Kernel families with banded inverse structure.

This module builds the covariance (kernel) matrices used for regularized
FIR impulse-response estimation and exposes their structural decompositions:

* first-order families ``DI``, ``TC``, ``DC`` and the stable-spline ``SS``;
* second-order families ``TC2``/``DC2`` with closed-form entries, inverses,
  Cholesky factors and determinants;
* arbitrary-order families ``TCd``/``DCd`` defined through inverses of
  banded Toeplitz operators, evaluated by certified truncated series;
* high-frequency mirrors ``HFd``/``HCd`` obtained by the alternating-sign
  similarity ``S K S`` with ``S = diag(1, -1, 1, ...)``.

The kernels are exponentially convex, ``K[t+1, s+1] = beta * K[t, s]``, so a
series kernel is built from its certified first row alone:
``K[t, s] = beta**(min(t, s) - 1) * K[1, 1 + |t - s|]``.  The row costs
O(n T) time and O(n + T) memory for a truncation after ``n`` terms; each
entry carries a rigorous geometric tail bound at ``_SERIES_TOL``.  Every
series (first row, leading variance, trailing block) starts at the length
where the tail of ``beta**j`` times the binomial growth of the inverse
series would certify, and doubles at most ``_MAX_DOUBLINGS`` times and never
past ``_MAX_SERIES_TERMS`` terms; a series that still does not certify
raises ``ConditioningError``.

Entries use the 1-based convention ``K[t, s]`` for ``t, s = 1..T``; arrays
returned to callers are ordinary 0-based numpy arrays.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg.lapack import dpotrf, dtrtri
from scipy.signal import lfilter
from scipy.special import gammainccinv

from .errors import (
    ConditioningError,
    DecompositionError,
    DimensionError,
    ParameterError,
    SingularOperatorError,
)

__all__ = [
    "FAMILIES",
    "KernelSpec",
    "BandedFactor",
    "toeplitz_inverse",
    "build_kernel",
    "build_inverse",
    "inverse_cholesky",
    "normalization_kappa",
    "leading_variance",
    "matrix_to_csv",
    "matrix_from_csv",
]

#: Canonical family tags.  ``TCd``/``DCd``/``HFd``/``HCd`` carry an integer
#: order ``delta``; the remaining tags are fixed-order families.
FAMILIES = ("DI", "TC", "DC", "SS", "TCd", "DCd", "HFd", "HCd")

_BETA_FAMILIES = ("DI", "TC", "DC", "TCd", "DCd", "HFd", "HCd")
_ALPHA_FAMILIES = ("DC", "DCd", "HCd")
_DELTA_FAMILIES = ("TCd", "DCd", "HFd", "HCd")

_NAME_RE = re.compile(r"^(DI|SS|TC|DC|HF|HC)([0-9]+)?$")

# Relative tail mass permitted when truncating the series evaluation of
# arbitrary-order kernels.
_SERIES_TOL = 1e-13

# Times a series' truncation length may double past its geometric start
# before the series is declared uncertifiable.
_MAX_DOUBLINGS = 6

# Longest truncation a series may try; the start length grows like
# 1 / (1 - beta), so without it a beta near 1 exhausts memory.  One attempt at
# this length peaks at 64 MiB of numpy buffers for order 3, 112 MiB for
# order 6 and 176 MiB for order 10, and takes 0.5-0.9 s for orders 3-6 on a
# 2-vCPU x86-64 VM.  Every beta <= 0.999 starts at <= 58k terms (order 6).
_MAX_SERIES_TERMS = 2 ** 20


@dataclass(frozen=True)
class KernelSpec:
    """Validated hyperparameter set identifying one kernel.

    Parameters
    ----------
    family : str
        One of :data:`FAMILIES`.
    beta : float, optional
        Decay rate, required by every family except ``SS``; ``0 < beta < 1``.
    alpha : float, optional
        Correlation parameter.  ``DC`` admits ``|alpha| < beta**-0.5``;
        ``DCd``/``HCd`` admit ``0 <= alpha <= 1``.
    delta : int, optional
        Order ``>= 1`` of the ``TCd``/``DCd``/``HFd``/``HCd`` families.
    gamma : float, optional
        Stable-spline decay rate, ``0 < gamma < 1``; only for ``SS``.
    """

    family: str
    beta: float | None = None
    alpha: float | None = None
    delta: int | None = None
    gamma: float | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ParameterError(
                f"unknown kernel family {self.family!r}; expected one of {FAMILIES}"
            )
        if self.family in _BETA_FAMILIES:
            if self.beta is None:
                raise ParameterError(f"family {self.family} requires beta")
            if not 0.0 < self.beta < 1.0:
                raise ParameterError(
                    f"beta must lie in the open interval (0, 1); got {self.beta}"
                )
        elif self.beta is not None:
            raise ParameterError(f"family {self.family} does not take beta")

        if self.family in _DELTA_FAMILIES:
            if self.delta is None:
                raise ParameterError(f"family {self.family} requires delta")
            if not isinstance(self.delta, (int, np.integer)) or self.delta < 1:
                raise ParameterError(f"delta must be an integer >= 1; got {self.delta}")
        elif self.delta is not None:
            raise ParameterError(f"family {self.family} does not take delta")

        if self.family in _ALPHA_FAMILIES:
            if self.alpha is None:
                raise ParameterError(f"family {self.family} requires alpha")
            if self.family == "DC":
                bound = self.beta ** -0.5
                if not -bound < self.alpha < bound:
                    raise ParameterError(
                        f"DC requires |alpha| < beta**-0.5 = {bound:.6g}; got {self.alpha}"
                    )
            else:
                if not 0.0 <= self.alpha <= 1.0:
                    raise ParameterError(
                        f"{self.family} requires 0 <= alpha <= 1; got {self.alpha}"
                    )
        elif self.alpha is not None:
            raise ParameterError(f"family {self.family} does not take alpha")

        if self.family == "SS":
            if self.gamma is None:
                raise ParameterError("family SS requires gamma")
            if not 0.0 < self.gamma < 1.0:
                raise ParameterError(
                    f"gamma must lie in the open interval (0, 1); got {self.gamma}"
                )
        elif self.gamma is not None:
            raise ParameterError(f"family {self.family} does not take gamma")

    # -- derived structure -------------------------------------------------

    @property
    def bandwidth(self) -> int | None:
        """Bandwidth of the inverse kernel; ``None`` when it is dense."""
        if self.family == "DI":
            return 0
        if self.family in ("TC", "DC"):
            return 1
        if self.family in _DELTA_FAMILIES:
            return int(self.delta)
        return None  # SS

    @property
    def sign_flipped(self) -> bool:
        return self.family in ("HFd", "HCd")

    def base(self) -> "KernelSpec":
        """The TC/DC-type twin of a sign-flipped family (identity otherwise)."""
        if self.family == "HFd":
            return replace(self, family="TCd", alpha=None)
        if self.family == "HCd":
            return replace(self, family="DCd")
        return self

    @property
    def display_name(self) -> str:
        if self.family in _DELTA_FAMILIES:
            stem = {"TCd": "TC", "DCd": "DC", "HFd": "HF", "HCd": "HC"}[self.family]
            if stem in ("HF", "HC") and self.delta == 1:
                return stem
            return f"{stem}{self.delta}"
        return self.family

    # -- construction / serialization --------------------------------------

    @classmethod
    def from_name(cls, name, *, beta=None, alpha=None, delta=None, gamma=None):
        """Build a spec from a compact family name such as ``TC2`` or ``HF``.

        A trailing integer selects the order of a ``TCd``-type family and
        must not contradict an explicit ``delta``.
        """
        m = _NAME_RE.match(str(name).strip())
        if m is None:
            raise ParameterError(f"unrecognized kernel family name {name!r}")
        stem, digits = m.group(1), m.group(2)
        if stem in ("DI", "SS"):
            if digits is not None:
                raise ParameterError(f"family {stem} does not take an order suffix")
            return cls(stem, beta=beta, alpha=alpha, delta=delta, gamma=gamma)
        order = int(digits) if digits is not None else None
        if order is not None and delta is not None and order != delta:
            raise ParameterError(
                f"order suffix in {name!r} contradicts delta={delta}"
            )
        order = order if order is not None else delta
        if stem in ("HF", "HC"):
            family = "HFd" if stem == "HF" else "HCd"
            return cls(family, beta=beta, alpha=alpha, delta=order or 1, gamma=gamma)
        if order is None or order == 1 and digits is None and delta is None:
            # plain TC / DC
            return cls(stem, beta=beta, alpha=alpha, gamma=gamma)
        family = "TCd" if stem == "TC" else "DCd"
        return cls(family, beta=beta, alpha=alpha, delta=order, gamma=gamma)

    def to_kv(self) -> str:
        """Flat ``key=value`` text form, e.g. ``family=TC2 beta=0.8``."""
        parts = [f"family={self.display_name}"]
        if self.beta is not None:
            parts.append(f"beta={self.beta!r}")
        if self.alpha is not None:
            parts.append(f"alpha={self.alpha!r}")
        if self.gamma is not None:
            parts.append(f"gamma={self.gamma!r}")
        return " ".join(parts)

    @classmethod
    def from_kv(cls, text: str) -> "KernelSpec":
        kv = {}
        for token in text.split():
            if "=" not in token:
                raise ParameterError(f"malformed key=value token {token!r}")
            key, value = token.split("=", 1)
            kv[key] = value
        if "family" not in kv:
            raise ParameterError("missing 'family' key")
        known = {"family", "beta", "alpha", "delta", "gamma"}
        extra = set(kv) - known
        if extra:
            raise ParameterError(f"unknown keys {sorted(extra)}")

        def fget(key):
            return float(kv[key]) if key in kv else None

        delta = int(kv["delta"]) if "delta" in kv else None
        return cls.from_name(
            kv["family"],
            beta=fget("beta"),
            alpha=fget("alpha"),
            delta=delta,
            gamma=fget("gamma"),
        )


@dataclass(frozen=True)
class BandedFactor:
    """Lower-triangular factor ``L`` with ``K^{-1} = L L^T``.

    ``bands[d, t]`` stores ``L[t+d, t]`` (0-based), i.e. row ``d`` of the
    storage holds the ``d``-th subdiagonal of ``L``; entries past ``dim-d``
    are zero padding.  ``logdet_K`` is the log-determinant of the kernel
    ``K`` itself (not of the inverse), so ``logdet_K == -2*sum(log(diag L))``.
    """

    dim: int
    bandwidth: int
    bands: np.ndarray
    logdet_K: float

    def __post_init__(self):
        self.bands.setflags(write=False)

    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(row, col, values)`` of every stored entry ``L[row, col]``."""
        flat, row, col = _band_index(self.dim, self.bandwidth)
        return row, col, self.bands.ravel()[flat]

    def to_dense(self) -> np.ndarray:
        row, col, values = self.entries()
        L = np.zeros((self.dim, self.dim))
        L[row, col] = values
        return L

    @property
    def diagonal(self) -> np.ndarray:
        return self.bands[0]


@lru_cache(maxsize=64)
def _band_index(T: int, bandwidth: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(flat, row, col)``: ``bands.ravel()[flat]`` holds ``L[row, col]``
    for every in-range entry of bands ``0 .. bandwidth`` of a ``T x T``
    factor (``row = col + d``, ``col < T - d``)."""
    d, col = np.nonzero(np.arange(T) < T - np.arange(bandwidth + 1)[:, None])
    return d * T + col, col + d, col


# ---------------------------------------------------------------------------
# Toeplitz machinery
# ---------------------------------------------------------------------------

def toeplitz_inverse(a, n: int) -> np.ndarray:
    """First ``n`` coefficients of the inverse of a lower Toeplitz operator.

    For ``A = tpl(a_0, a_1, ...)`` (banded lower triangular Toeplitz) the
    inverse is the lower Toeplitz operator ``tpl(b_0, b_1, ...)`` with

        b_0 = 1/a_0,    b_k = -(1/a_0) * sum_{j=0}^{k-1} a_{k-j} b_j.

    Evaluated as an IIR recursion, which is this exact formula.

    >>> toeplitz_inverse([1.0, -1.0], 4)
    array([1., 1., 1., 1.])
    >>> toeplitz_inverse([1.0, -2.0, 1.0], 4)
    array([1., 2., 3., 4.])
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    if a.ndim != 1 or a.size == 0:
        raise ParameterError("coefficient sequence must be a nonempty 1-d array")
    if a[0] == 0.0:
        raise SingularOperatorError(
            "leading Toeplitz coefficient is zero; operator is singular"
        )
    n = int(n)
    if n < 1:
        raise DimensionError(f"sequence length must be >= 1; got {n}")
    impulse = np.zeros(n)
    impulse[0] = 1.0
    return lfilter([1.0], a, impulse)


def _binomial_sequence(delta: int, n: int) -> np.ndarray:
    """``x_j = C(j + delta - 2, delta - 1)``: coefficients of ``F**-delta``
    (the unit impulse for ``delta = 0``)."""
    if delta == 0:
        out = np.zeros(n)
        out[0] = 1.0
        return out
    j = np.arange(1, n + 1, dtype=float)
    i = np.arange(1, delta, dtype=float)
    return np.prod((j[:, None] + (i - 1.0)) / i, axis=1)


def _operator_coefficients(spec: KernelSpec) -> np.ndarray:
    """Polynomial coefficients of the banded operator whose weighted Gram
    factorizes the inverse kernel (``F**delta`` or its DC-type mixture)."""
    base = spec.base()
    if base.family in ("TC", "TCd"):
        delta = 1 if base.family == "TC" else base.delta
        return np.array(
            [(-1) ** j * math.comb(delta, j) for j in range(delta + 1)], dtype=float
        )
    if base.family == "DC":
        return np.array([1.0, -base.alpha])
    if base.family == "DCd":
        delta, alpha = base.delta, base.alpha
        return np.array(
            [(-1) ** j * ((1.0 - alpha) * math.comb(delta - 1, j) + alpha * math.comb(delta, j))
             for j in range(delta + 1)]
        )
    raise DecompositionError(
        f"family {spec.family} has no banded Toeplitz-operator decomposition"
    )


def _inverse_series(spec: KernelSpec, n: int) -> np.ndarray:
    """First ``n`` coefficients of the inverse operator.

    The DC-type operator is ``(1 - x)**(delta - 1) * (1 - alpha x)``, so its
    inverse is a geometric filter over binomial coefficients: every term
    carries the sign of ``alpha**j`` and nothing cancels.
    """
    base = spec.base()
    if base.family in ("TC", "TCd"):
        delta = 1 if base.family == "TC" else base.delta
        return _binomial_sequence(delta, n)
    delta = 1 if base.family == "DC" else base.delta
    return lfilter([1.0], [1.0, -base.alpha], _binomial_sequence(delta - 1, n))


def _start_length(spec: KernelSpec) -> int:
    """Start length of the series of an order-``p`` kernel.

    The inverse series grows like the binomial ``j**(p - 1)``, so the sums
    ``sum_j beta**j z_j z_{j+d}`` weigh ``j`` like ``j**(2p - 2) * exp(-j c)``,
    ``c = -log(beta)``: a Gamma(2p - 1) density.  The start is where its upper
    tail ``Q(2p - 1, n c)`` falls below ``_SERIES_TOL / 16`` (the slack
    covers the geometric bound the certificates put on the tail), or below
    the smallest normal double if that comes first.
    """
    tol = max(_SERIES_TOL / 16.0, np.finfo(float).tiny)
    x = gammainccinv(2 * spec.bandwidth - 1, tol)
    return max(4, math.ceil(x / -math.log(spec.beta)))


def _certified(spec: KernelSpec, attempt, what: str):
    """First result of ``attempt(n)`` that is not ``None``, over the lengths
    ``n = _start_length(spec) * 2**k`` for ``k = 0 .. _MAX_DOUBLINGS``.

    ``attempt`` returns ``None`` when its tail certificate fails at ``n``;
    a series that fails at every length, or would need a length past
    ``_MAX_SERIES_TERMS``, raises ``ConditioningError``.
    """
    n = _start_length(spec)
    for _ in range(_MAX_DOUBLINGS + 1):
        if n > _MAX_SERIES_TERMS:
            raise ConditioningError(
                f"{what} needs more than {_MAX_SERIES_TERMS} series terms at "
                f"beta={spec.beta}"
            )
        out = attempt(n)
        if out is not None:
            return out
        n *= 2
    raise ConditioningError(
        f"{what} does not certify to relative tail {_SERIES_TOL:g} within "
        f"{n // 2} terms at beta={spec.beta}"
    )


def normalization_kappa(spec: KernelSpec) -> float:
    """Scalar normalization of the banded-operator decomposition.

    Orders 1 and 2 carry the constants that make the closed-form kernel
    entries come out exactly; higher orders are left unnormalized (the
    constant is absorbed by the scale hyperparameter of the estimator).
    """
    base = spec.base()
    b, a = base.beta, base.alpha
    if base.family in ("DI", "SS"):
        return 1.0
    if base.family == "TC" or (base.family == "TCd" and base.delta == 1):
        return 1.0 - b
    if base.family == "TCd" and base.delta == 2:
        return (1.0 - b) ** 3
    if base.family == "DC" or (base.family == "DCd" and base.delta == 1):
        # PD normalization: the weighted Gram of tpl(1, alpha, alpha^2, ...)
        # sums the geometric series 1/(1 - alpha^2 beta).
        return 1.0 - a * a * b
    if base.family == "DCd" and base.delta == 2:
        return (1.0 - b) * (1.0 - a * b) * (1.0 - a * a * b)
    return 1.0


# ---------------------------------------------------------------------------
# Kernel entries
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _grid(T: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only integer ``max(t, s)``, ``min(t, s)`` and ``|t - s|`` over
    ``t, s = 1 .. T``.  Entries are gathered through them from vectors of
    powers, one ``pow`` per exponent instead of one per entry."""
    t = np.arange(1, T + 1)
    grids = (np.maximum.outer(t, t), np.minimum.outer(t, t), np.abs(np.subtract.outer(t, t)))
    for g in grids:
        g.setflags(write=False)
    return grids


def _powers(x: float, n: int) -> np.ndarray:
    """``x ** k`` for ``k = 0 .. n``."""
    return x ** np.arange(n + 1, dtype=float)


def _order2_entries(T: int, beta: float, alpha: float) -> np.ndarray:
    """DC2 entries in the cumulative-geometric form, stable on all of
    ``0 <= alpha <= 1`` (``alpha = 1`` reproduces TC2 exactly)."""
    mx, _, d = _grid(T)
    S = np.cumsum(_powers(alpha, T - 1))  # S[d] = sum_{j<=d} alpha^j
    Spad = np.concatenate(([0.0, 0.0], S))  # Spad[d] = S[d-2], zero for d < 2
    vals = S[d] - beta * alpha * alpha * Spad[d]
    np.fill_diagonal(vals, 1.0 + alpha * beta)
    return _powers(beta, T)[mx] * vals


def _first_row(spec: KernelSpec, T: int) -> np.ndarray:
    """Certified first row ``r[d] = K[1, 1 + d]``, ``d = 0 .. T-1``, of a
    series kernel:

        r[d] = kappa * beta^(d+1) * sum_j beta^j z_j z_{j+d},

    with ``z`` the inverse series, in O(n T) time and O(n + T) memory for a
    truncation after ``n`` terms.  Every ``|z_{j+1} / z_j|`` is at most
    ``q = |z_{n+1} / z_n|`` for ``j >= n``: ``|z|`` is log-concave (binomial
    coefficients, alone or convolved with ``|alpha|**j``), so its ratios do
    not increase.  Hence the neglected tail of entry ``d`` is at most
    ``beta^(n+1) |z_n| |z_{n+d}| / (1 - beta q^2)`` in units of
    ``kappa * beta^d``; each entry must certify to ``_SERIES_TOL``.
    """
    beta = spec.beta
    kappa = normalization_kappa(spec)

    def attempt(n):
        z = _inverse_series(spec, n + max(T, 2))
        zt = np.abs(z[n:])  # |z_n|, |z_{n+1}|, ...
        q = zt[1] / zt[0]
        rho = beta * q * q
        if not rho < 1.0:
            return None
        w = beta ** np.arange(1, n + 1, dtype=float)
        s = np.empty(T)
        s[0] = np.dot(w, z[:n] ** 2)
        if T > 1:
            s[1:] = np.correlate(z[1 : n + T - 1], w * z[:n], "valid")
        tail = beta ** (n + 1) * (zt[0] * zt[:T]) / (1.0 - rho)
        if not (tail < _SERIES_TOL * np.abs(s)).all():
            return None
        return kappa * beta ** np.arange(T, dtype=float) * s

    return _certified(spec, attempt, f"first row of {spec.display_name}")


def _series_kernel(spec: KernelSpec, T: int) -> np.ndarray:
    """``K[t, s] = beta^(min(t, s) - 1) * r[|t - s|]`` from the certified
    first row ``r``: the kernel is exponentially convex, ``K[t+1, s+1] =
    beta * K[t, s]``."""
    _, mn, d = _grid(T)
    return _powers(spec.beta, T - 1)[mn - 1] * _first_row(spec, T)[d]


def build_kernel(spec: KernelSpec, dim: int) -> np.ndarray:
    """Dense ``dim x dim`` kernel matrix for ``spec``.

    Closed-form entries are used for ``DI``, ``TC``, ``DC``, ``SS`` and the
    order-1/2 graded families; orders above 2 fall back to the certified
    truncated series.  Sign-flipped families multiply entries by
    ``(-1)**|t-s|``.
    """
    T = int(dim)
    if T < 1:
        raise DimensionError(f"kernel dimension must be >= 1; got {dim}")
    base = spec.base()
    mx, mn, d = _grid(T)

    fam = base.family
    b = base.beta
    if fam == "DI":
        K = np.diag(_powers(b, T)[1:])
    elif fam == "TC" or (fam == "TCd" and base.delta == 1):
        K = _powers(b, T)[mx]
    elif fam == "DC" or (fam == "DCd" and base.delta == 1):
        K = _powers(base.alpha, T - 1)[d] * _powers(b, T)[mx]
    elif fam == "SS":
        g = base.gamma
        gp = _powers(g, 2 * T)
        K = gp[mx + mn] * gp[mx] / 2.0 - (g ** (3.0 * np.arange(T + 1)))[mx] / 6.0
    elif fam == "TCd" and base.delta == 2:
        bp = _powers(b, T + 1)
        K = 2.0 * bp[mx + 1] + (1.0 - b) * (1.0 + d) * bp[mx]
    elif fam == "DCd" and base.delta == 2:
        K = _order2_entries(T, b, base.alpha)
    else:
        K = _series_kernel(base, T)

    if spec.sign_flipped:
        K = np.where(d % 2 == 1, -K, K)
    return K


# ---------------------------------------------------------------------------
# Trailing block of the finite-dimensional decomposition
# ---------------------------------------------------------------------------

def _trailing_block_inverse_series(spec: KernelSpec, T: int) -> np.ndarray:
    """``B_T^{-1}`` for arbitrary order, via the cancellation-free tail Gram

        B^{-1} = diag(beta^{T-p+1..T}) + beta^T * sum_i beta^i v_i v_i^T

    where ``v_i`` collects the truncated binomial windows of the operator
    acting past row ``T``.  Algebraically equal to the trailing ``p x p``
    block of ``(F^d)^T K F^d / kappa`` but immune to the catastrophic
    cancellation of forming that product at ``beta`` near 1.
    """
    base = spec.base()
    beta = base.beta
    a = _operator_coefficients(base)
    p = len(a) - 1
    lead = np.diag(beta ** np.arange(T - p + 1, T + 1, dtype=float))
    # -v_i[c] = sum_{k <= c} a[p - c + k] z_{i-1-k}: the windows
    # (z_{i-p}, .., z_{i-1}) times the Hankel matrix H[j, c] = a[2p-1-j-c]
    # (zero past a[p]), with z_j = 0 for j < 0; the sign cancels in G
    k = np.arange(p)
    H = np.concatenate((a, np.zeros(p)))[2 * p - 1 - np.add.outer(k, k)]

    def attempt(n):
        z = np.concatenate((np.zeros(p), _inverse_series(base, n + p)))
        V = sliding_window_view(z[1 : n + p], p) @ H
        wts = beta ** np.arange(1, n + 1, dtype=float)
        G = (V.T * wts) @ V
        r = z[-1] / z[-2]
        rho = beta * r * r
        if rho < 1.0 and beta ** (n + 1) * z[-1] ** 2 / (1.0 - rho) < _SERIES_TOL * max(
            G.max(), 1.0
        ):
            return lead + beta ** float(T) * G
        return None

    return _certified(base, attempt, f"trailing block of {spec.display_name}")


def _trailing_block(spec: KernelSpec, T: int) -> np.ndarray:
    """Closed-form ``B_T`` for orders 1-2, series-built otherwise."""
    base = spec.base()
    b = base.beta
    kappa = normalization_kappa(base)
    bw = base.bandwidth
    if bw == 1:
        return np.array([[kappa * b ** -float(T)]])
    if bw == 2:
        a = 1.0 if base.family == "TCd" else base.alpha
        scale = (1.0 - a * b) * b ** -float(T)
        return scale * np.array(
            [
                [b * (1.0 + a * b), a * b * b * (1.0 + a)],
                [a * b * b * (1.0 + a), (1.0 - b - a * a * b) * (1.0 - a * b) + 2.0 * a * a * b * b],
            ]
        )
    return np.linalg.inv(_trailing_block_inverse_series(base, T))


# ---------------------------------------------------------------------------
# Inverse assembly and Cholesky factor
# ---------------------------------------------------------------------------

def _banded_operator_dense(a: np.ndarray, T: int) -> np.ndarray:
    G = np.zeros((T, T))
    for j, coeff in enumerate(a):
        if j < T:
            idx = np.arange(T - j)
            G[idx + j, idx] = coeff
    return G


def build_inverse(spec: KernelSpec, dim: int) -> np.ndarray:
    """Assemble ``K^{-1}`` from the decomposition ``kappa^{-1} G D_T G^T``.

    Entries with ``|t-s| > bandwidth`` are exact zeros by construction: the
    factors carry structural zeros, never cancellation.  ``SS`` has no banded
    decomposition and is rejected.
    """
    T = int(dim)
    if T < 1:
        raise DimensionError(f"kernel dimension must be >= 1; got {dim}")
    base = spec.base()
    if base.family == "SS":
        raise DecompositionError("SS kernel has no banded inverse decomposition")
    b = base.beta
    if base.family == "DI":
        return np.diag(b ** -np.arange(1, T + 1, dtype=float))

    p = base.bandwidth
    if p > 2 and T < p + 2:
        raise DimensionError(
            f"order-{p} families need dim >= delta + 2 = {p + 2}; got {T}"
        )
    kappa = normalization_kappa(base)
    a = _operator_coefficients(base)
    if T <= p:
        # no room for the graded diagonal part; invert the dense kernel's
        # trailing logic through the factor instead
        L = inverse_cholesky(base, T).to_dense()
        Kinv = L @ L.T
    else:
        B = _trailing_block(base, T)
        G = _banded_operator_dense(a, T)
        D = np.zeros((T, T))
        lead = np.arange(1, T - p + 1, dtype=float)
        D[: T - p, : T - p] = np.diag(b ** -lead)
        D[T - p :, T - p :] = B
        Kinv = (G @ D @ G.T) / kappa
    if spec.sign_flipped:
        t = np.arange(T)
        sign = np.where((np.add.outer(t, t)) % 2 == 1, -1.0, 1.0)
        Kinv = Kinv * sign
    return Kinv


def _order1_bands(T: int, beta: float, sub: float, kappa: float) -> tuple[np.ndarray, float]:
    bands = np.zeros((2, T))
    tt = np.arange(1, T + 1, dtype=float)
    root = kappa ** -0.5 * beta ** (-tt / 2.0)
    bands[0, : T - 1] = root[: T - 1]
    bands[0, T - 1] = beta ** (-T / 2.0)
    if T > 1:
        bands[1, : T - 1] = -sub * root[: T - 1]
    logdet = (T - 1) * np.log(kappa) + np.log(beta) * T * (T + 1) / 2.0
    return bands, logdet


def _order2_bands(T: int, beta: float, alpha: float) -> tuple[np.ndarray, float]:
    """Closed-form Cholesky bands of the order-2 inverse (``alpha = 1``
    reproduces the TC2 factor)."""
    b, a = beta, alpha
    kappa = (1.0 - b) * (1.0 - a * b) * (1.0 - a * a * b)
    bands = np.zeros((3, T))
    tt = np.arange(1, T + 1, dtype=float)
    root = kappa ** -0.5 * b ** (-tt / 2.0)
    if T > 2:
        bands[0, : T - 2] = root[: T - 2]
        bands[1, : T - 2] = -(1.0 + a) * root[: T - 2]
        bands[2, : T - 2] = a * root[: T - 2]
    if T >= 2:
        bands[0, T - 2] = np.sqrt(
            (1.0 + a * b) * b ** (-T + 1.0) / ((1.0 - b) * (1.0 - a * a * b))
        )
        bands[1, T - 2] = -(1.0 + a) * np.sqrt(
            b ** (-T + 1.0) / ((1.0 + a * b) * (1.0 - b) * (1.0 - a * a * b))
        )
    bands[0, T - 1] = np.sqrt(b ** -float(T) / (1.0 + a * b))
    if T == 1:
        logdet = np.log(b) + np.log1p(a * b)
    else:
        logdet = (
            np.log(b) * T * (T + 1) / 2.0
            + (T - 2) * np.log(1.0 - a * b)
            + (T - 1) * np.log(1.0 - b)
            + (T - 1) * np.log(1.0 - a * a * b)
        )
    return bands, logdet


def _dense_chol_of_inverse(K: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of ``inv(K)`` through the flipped factorization
    ``K = U U^T`` (``U`` upper), so ``L = U^{-T}`` is genuinely lower
    triangular.  A diagonal equilibration keeps the factorization of the
    strongly graded kernels accurate.
    """
    diag = np.diag(K)
    if not np.all(np.isfinite(diag)) or np.any(diag <= 0):
        raise DecompositionError("kernel diagonal is not strictly positive")
    dscale = np.sqrt(diag)
    W = K / dscale[:, None] / dscale[None, :]
    Wf = W[::-1, ::-1]
    try:
        Cf = np.linalg.cholesky(Wf)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(f"kernel is numerically indefinite: {exc}") from None
    U = dscale[:, None] * Cf[::-1, ::-1]  # K = U U^T, U upper triangular
    Uinv, info = dtrtri(U, lower=0)
    if info != 0:
        raise DecompositionError("kernel factor is singular")
    return Uinv.T


def inverse_cholesky(spec: KernelSpec, dim: int) -> BandedFactor:
    """Banded lower Cholesky factor ``L`` of ``K^{-1}`` with the kernel's
    log-determinant.

    Orders 1 and 2 fill the bands from closed forms (including the corrected
    trailing entries of the finite-dimensional factor); higher orders build
    the factor from the graded diagonal and the Cholesky of the trailing
    block; ``SS`` falls back to a dense factor of bandwidth ``dim - 1``.
    Sign-flipped families reuse the factor of their base family via the
    similarity ``L -> S L S``, which flips the sign of every odd band.
    """
    T = int(dim)
    if T < 1:
        raise DimensionError(f"kernel dimension must be >= 1; got {dim}")
    base = spec.base()
    b = base.beta
    fam = base.family

    if fam == "SS":
        L = _dense_chol_of_inverse(build_kernel(base, T))
        flat, row, col = _band_index(T, T - 1)
        bands = np.zeros((T, T))
        bands.ravel()[flat] = L[row, col]
        logdet = -2.0 * np.sum(np.log(bands[0]))
        return BandedFactor(T, T - 1, bands, float(logdet))

    if fam == "DI":
        bands = b ** (-np.arange(1, T + 1, dtype=float) / 2.0)
        logdet = np.log(b) * T * (T + 1) / 2.0
        return BandedFactor(T, 0, bands[None, :], float(logdet))

    if fam == "TC" or (fam == "TCd" and base.delta == 1):
        bands, logdet = _order1_bands(T, b, 1.0, 1.0 - b)
        m = 1
    elif fam == "DC" or (fam == "DCd" and base.delta == 1):
        bands, logdet = _order1_bands(T, b, base.alpha, normalization_kappa(base))
        m = 1
    elif fam == "TCd" and base.delta == 2:
        bands, logdet = _order2_bands(T, b, 1.0)
        m = 2
    elif fam == "DCd" and base.delta == 2:
        bands, logdet = _order2_bands(T, b, base.alpha)
        m = 2
    else:
        p = base.bandwidth
        if T < p + 2:
            raise DimensionError(
                f"order-{p} families need dim >= delta + 2 = {p + 2}; got {T}"
            )
        kappa = normalization_kappa(base)
        a = _operator_coefficients(base)
        Binv = _trailing_block_inverse_series(base, T)
        # chol(B) of B = Binv^{-1} with one factorization and no solve: the
        # flipped J Binv J = M M^T gives B = (J M^{-T} J)(J M^{-T} J)^T, and
        # J M^{-T} J is lower triangular with a positive diagonal
        M, info = dpotrf(Binv[::-1, ::-1], lower=1)
        if info == 0:
            Minv, info = dtrtri(M, lower=1)
        if info != 0:
            raise ConditioningError(
                f"trailing {p}x{p} block of {spec.display_name} is numerically indefinite"
            )
        CB = Minv.T[::-1, ::-1]
        bands = np.zeros((p + 1, T))
        tt = np.arange(1, T - p + 1, dtype=float)
        bands[:, : T - p] = np.outer(a, kappa ** -0.5 * b ** (-tt / 2.0))
        # trailing columns: G_p CB with G_p the leading p x p block of the
        # operator, lower Toeplitz in a[0 .. p-1]
        flat, row, col = _band_index(p, p - 1)
        Gp = np.zeros((p, p))
        Gp[row, col] = a[row - col]
        trail = np.zeros((p, p))
        trail.ravel()[flat] = (Gp @ CB)[row, col]
        bands[:p, T - p :] = kappa ** -0.5 * trail
        logdet = -2.0 * float(np.sum(np.log(bands[0])))
        return _apply_sign_flip(spec, BandedFactor(T, p, bands, logdet))

    return _apply_sign_flip(spec, BandedFactor(T, m, bands, float(logdet)))


def _apply_sign_flip(spec: KernelSpec, factor: BandedFactor) -> BandedFactor:
    if not spec.sign_flipped:
        return factor
    bands = factor.bands.copy()
    bands[1::2] *= -1.0
    return BandedFactor(factor.dim, factor.bandwidth, bands, factor.logdet_K)


@lru_cache(maxsize=512)
def _cached_factor(spec: KernelSpec, dim: int) -> BandedFactor:
    return inverse_cholesky(spec, dim)


@lru_cache(maxsize=4096)
def leading_variance(spec: KernelSpec) -> float:
    """``K[1, 1]``: the prior variance of the first impulse coefficient.

    Used to put kernels of different orders on a common scale, since the
    unnormalized high-order families grow like ``(1-beta)**-(2*delta-1)``.
    """
    base = spec.base()
    b = base.beta
    fam = base.family
    if fam in ("DI", "TC") or (fam == "TCd" and base.delta == 1):
        return float(b)
    if fam == "DC" or (fam == "DCd" and base.delta == 1):
        return float(b)
    if fam == "SS":
        return float(base.gamma ** 3 / 3.0)
    if fam == "TCd" and base.delta == 2:
        return float(b * (1.0 + b))
    if fam == "DCd" and base.delta == 2:
        return float(b * (1.0 + base.alpha * b))
    # series: K[1, 1] is the first entry of the certified first row
    return float(_first_row(base, 1)[0])


# ---------------------------------------------------------------------------
# Matrix serialization
# ---------------------------------------------------------------------------

def matrix_to_csv(M: np.ndarray, path_or_file) -> None:
    """Write a dense matrix as CSV in full-precision scientific notation."""
    np.savetxt(path_or_file, np.atleast_2d(M), fmt="%.16e", delimiter=",")


def matrix_from_csv(path_or_file) -> np.ndarray:
    data = np.loadtxt(path_or_file, delimiter=",", ndmin=2)
    return data

