"""Kernel families with banded inverse structure.

This module builds the covariance (kernel) matrices used for regularized
FIR impulse-response estimation and exposes their structural decompositions:

* first-order families ``DI``, ``TC``, ``DC`` and the stable-spline ``SS``;
* second-order families ``TC2``/``DC2`` with closed-form entries, inverses,
  Cholesky factors and determinants;
* arbitrary-order families ``TCd``/``DCd`` defined through inverses of
  banded Toeplitz operators, with closed-form entries too;
* high-frequency mirrors ``HFd``/``HCd`` obtained by the alternating-sign
  similarity ``S K S`` with ``S = diag(1, -1, 1, ...)``.

Every spec reduces to a canonical ``(stem, order)``: stem ``DI``, ``TC``,
``DC`` or ``SS``, order the inverse bandwidth.  ``_RECORDS`` holds the
formulas of each closed form (``DI``, ``SS``, ``TC``/``DC`` at orders 1-2),
orders >= 3 share ``_SERIES_RECORD``, and ``_SERIES`` holds each stem's
operator coefficients and inverse series; so ``TC`` and ``TCd(1)``, or
``HFd`` and ``TCd``, compute alike.  :func:`parse_family` reads every name.

The kernels are exponentially convex, ``K[t+1, s+1] = beta * K[t, s]``, so
an order >= 3 kernel is built from its first row alone, in closed form from
Newton differences, each a sum of positive terms (:func:`_first_row`).  Only
the trailing ``p x p`` corner of the factor has no closed form: it is a
certified series, memoized per spec (:func:`_series`), that starts at the
length where the tail would certify to ``_SERIES_TOL``, doubles at most
``_MAX_DOUBLINGS`` times and never past ``_MAX_SERIES_TERMS`` terms, and
otherwise raises ``ConditioningError``.

``K^{-1}`` has one route, the banded factor ``L`` of :func:`inverse_cholesky`
(``K^{-1} = L L^T``); :func:`build_inverse` multiplies it out.  A series
corner is refused where its estimated backward error exceeds
``_CORNER_TOL``, and a factor where ``L`` or ``L L^T`` would overflow.

Entries use the 1-based convention ``K[t, s]`` for ``t, s = 1..T``; arrays
returned to callers are ordinary 0-based numpy arrays.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import accumulate

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view
from scipy.linalg.lapack import dgeqrf, dtrcon, dtrtri
from scipy.signal import lfilter
from scipy.special import gammainccinv

from ._blas import single_threaded
from .errors import (
    ConditioningError,
    DecompositionError,
    DimensionError,
    ParameterError,
    SingularOperatorError,
)

__all__ = [
    "FAMILIES",
    "MAX_ORDER",
    "KernelSpec",
    "parse_family",
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

#: Highest admitted order ``delta``; one corner series attempt at order 10
#: peaks at 112 MiB (see ``_MAX_SERIES_TERMS``).
MAX_ORDER = 10

# family -> (stem, order, hyperparameters); order None is taken from delta,
# or is the dense SS.  KernelSpec validates the hyperparameters, and the
# estimator searches them in this order.
_FAMILY_TABLE = {
    "DI": ("DI", 0, ("beta",)),
    "TC": ("TC", 1, ("beta",)),
    "DC": ("DC", 1, ("beta", "alpha")),
    "SS": ("SS", None, ("gamma",)),
    "TCd": ("TC", None, ("beta", "delta")),
    "DCd": ("DC", None, ("beta", "alpha", "delta")),
    "HFd": ("TC", None, ("beta", "delta")),
    "HCd": ("DC", None, ("beta", "alpha", "delta")),
}

# The canonical (stem, order) of every admitted (family, delta).
_CANONICAL = {(family, delta): (stem, delta or order)
              for family, (stem, order, takes) in _FAMILY_TABLE.items()
              for delta in (range(1, MAX_ORDER + 1) if "delta" in takes else (None,))}

_NAME_RE = re.compile(r"^(DI|SS|TC|DC|HF|HC)([0-9]+)?$")

# Relative tail mass permitted when truncating the series evaluation of
# arbitrary-order kernels.
_SERIES_TOL = 1e-13

# Times a series' truncation length may double past its geometric start
# before the series is declared uncertifiable.
_MAX_DOUBLINGS = 6

# Longest truncation a series may try; the start length grows like
# 1 / (1 - beta), so without it a beta near 1 exhausts memory.  One corner
# attempt at this length peaks at 56, 80 and 112 MiB for orders 3, 6 and 10,
# TC or DC alike (tracemalloc), and takes 0.1-0.4 s (2-vCPU x86-64 VM).
# Every beta <= 0.999 starts at <= 74k terms (order 10).
_MAX_SERIES_TERMS = 2 ** 20

# Largest estimated backward error ``eps / rcond(U)`` of the trailing corner
# of an order >= 3 factor (see :func:`_series_factor`).  Against a 90-digit
# C0, over TC3-TC6, DC3, DC6 and HC3 (alpha = 0.5) at the kernel-sweep betas
# 0.3 .. 0.999, T = 50, 200, every accepted corner has |L22^T K22 L22 - I|_2
# <= 3.2e-4 (DC6 at 0.99, estimate 1.0e-4), and <= 4.9e-4 at the off-grid
# 0.985 .. 0.9985 (DC6 at 0.993, estimate 5.2e-4); the refused ones measure
# 1.6e-3 to 18.
_CORNER_TOL = 1e-3


def _check_delta(family: str, delta) -> None:
    """The rules for the order ``delta`` of ``family``."""
    if "delta" not in _FAMILY_TABLE[family][2]:
        if delta is not None:
            raise ParameterError(f"family {family} does not take delta")
    elif delta is None:
        raise ParameterError(f"family {family} requires delta")
    elif not isinstance(delta, (int, np.integer)) or isinstance(delta, bool) or delta < 1:
        raise ParameterError(f"delta must be an integer >= 1; got {delta}")
    elif delta > MAX_ORDER:
        raise ParameterError(f"delta must be at most MAX_ORDER = {MAX_ORDER}; got {delta}")


def parse_family(name, delta=None) -> tuple[str, int | None]:
    """Validated ``(family, delta)`` of a tag of :data:`FAMILIES` or of a
    compact name ``DI``, ``SS``, ``TC``, ``DC``, ``HF`` or ``HC`` whose order
    suffix must not contradict ``delta``; ``HF``/``HC`` default to order 1.

    >>> parse_family("TC2"), parse_family("DC"), parse_family("HF"), parse_family("DCd", 3)
    (('TCd', 2), ('DC', None), ('HFd', 1), ('DCd', 3))
    """
    text = str(name).strip()
    if text in FAMILIES and "delta" in _FAMILY_TABLE[text][2]:
        family = text
    else:
        m = _NAME_RE.match(text)
        if m is None:
            raise ParameterError(f"unrecognized kernel family name {name!r}")
        family, digits = m.groups()
        if digits is not None:
            if family in ("DI", "SS"):
                raise ParameterError(f"family {family} does not take an order suffix")
            if delta is not None and int(digits) != delta:
                raise ParameterError(f"order suffix in {name!r} contradicts delta={delta}")
            delta = int(digits)
        if family not in ("DI", "SS") and (delta is not None or family in ("HF", "HC")):
            family, delta = family + "d", 1 if delta is None else delta
    _check_delta(family, delta)
    return family, delta


def _display_name(family: str, delta) -> str:
    """Compact name of a validated ``(family, delta)``, e.g. ``TC2``, ``HF``."""
    if delta is None:
        return family
    return family[:2] if family in ("HFd", "HCd") and delta == 1 else f"{family[:2]}{delta}"


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
        Order ``1 <= delta <= MAX_ORDER`` of the ``TCd``/``DCd``/``HFd``/``HCd``
        families.
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
        takes = _FAMILY_TABLE[self.family][2]
        for name in ("beta", "delta", "alpha", "gamma"):
            value = getattr(self, name)
            if name not in takes:
                if value is not None:
                    raise ParameterError(f"family {self.family} does not take {name}")
            elif value is None:
                raise ParameterError(f"family {self.family} requires {name}")
            elif name == "delta":
                _check_delta(self.family, value)
            elif name != "alpha":
                if not 0.0 < value < 1.0:
                    raise ParameterError(
                        f"{name} must lie in the open interval (0, 1); got {value}"
                    )
            elif self.family == "DC":
                bound = self.beta ** -0.5
                if not -bound < value < bound:
                    raise ParameterError(
                        f"DC requires |alpha| < beta**-0.5 = {bound:.6g}; got {value}"
                    )
            elif not 0.0 <= value <= 1.0:
                raise ParameterError(f"{self.family} requires 0 <= alpha <= 1; got {value}")

    # -- derived structure -------------------------------------------------

    @property
    def bandwidth(self) -> int | None:
        """Bandwidth of the inverse kernel; ``None`` when it is dense."""
        return _CANONICAL[self.family, self.delta][1]

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
        return _display_name(self.family, self.delta)

    # -- construction / serialization --------------------------------------

    @classmethod
    def from_name(cls, name, *, beta=None, alpha=None, delta=None, gamma=None):
        """Build a spec from a family name such as ``TC2``, ``HF`` or the tag
        ``TCd`` with ``delta``; the name is read by :func:`parse_family`."""
        family, delta = parse_family(name, delta)
        return cls(family, beta=beta, alpha=alpha, delta=delta, gamma=gamma)

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
        values = {}
        for key, kind, what in (("beta", float, "a number"), ("alpha", float, "a number"),
                                ("delta", int, "an integer"), ("gamma", float, "a number")):
            if key in kv:
                try:
                    values[key] = kind(kv[key])
                except ValueError:
                    raise ParameterError(f"{key}={kv[key]!r} is not {what}") from None
        return cls.from_name(kv["family"], **values)


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
# Operator series
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
    """``x_j = C(j + delta - 2, delta - 1)``: coefficients of ``F**-delta``,
    ``delta >= 1``."""
    x = np.arange(1, n + 1, dtype=float)[:, None] + np.arange(delta - 1.0)
    x /= np.arange(1, delta, dtype=float)  # in place: one n x (delta - 1) buffer
    return np.prod(x, axis=1)


def _dc_coefficients(p: int, alpha: float) -> np.ndarray:
    """``(1 - alpha) (1 - x)**(p - 1) + alpha (1 - x)**p``: exactly ``(1,
    -alpha)`` at order 1 for ``0 <= alpha <= 1``, the form DC's signed alpha needs."""
    if p == 1:
        return np.array([1.0, -alpha])
    return np.array(
        [(-1) ** j * ((1.0 - alpha) * math.comb(p - 1, j) + alpha * math.comb(p, j))
         for j in range(p + 1)]
    )


# Per stem, any order p: (coefficients(p, alpha), inverse(p, alpha, n)) of
# the operator F**p or (1 - x)**(p - 1) (1 - alpha x).  The DC inverse filters
# binomial coefficients geometrically: each term has the sign of alpha**j.
_SERIES = {
    "TC": (lambda p, a: np.array([(-1) ** j * math.comb(p, j) for j in range(p + 1)], dtype=float),
           lambda p, a, n: _binomial_sequence(p, n)),
    "DC": (_dc_coefficients,
           lambda p, a, n: lfilter([1.0], [1.0, -a], _binomial_sequence(p - 1, n))),
}


def _inverse_series(spec: KernelSpec, n: int) -> np.ndarray:
    """First ``n`` coefficients of the inverse operator."""
    stem, p = _CANONICAL[spec.family, spec.delta]
    return _SERIES[stem][1](p, spec.alpha, n)


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


def _ss_entries(spec: KernelSpec, T: int) -> np.ndarray:
    g = spec.gamma
    mx, mn, _ = _grid(T)
    gp = _powers(g, 2 * T)
    return gp[mx + mn] * gp[mx] / 2.0 - (g ** (3.0 * np.arange(T + 1)))[mx] / 6.0


def _tc2_entries(spec: KernelSpec, T: int) -> np.ndarray:
    b = spec.beta
    mx, _, d = _grid(T)
    bp = _powers(b, T + 1)
    return 2.0 * bp[mx + 1] + (1.0 - b) * (1.0 + d) * bp[mx]


def _order2_entries(T: int, beta: float, alpha: float) -> np.ndarray:
    """DC2 entries in the cumulative-geometric form, stable on all of
    ``0 <= alpha <= 1``."""
    mx, _, d = _grid(T)
    S = np.cumsum(_powers(alpha, T - 1))  # S[d] = sum_{j<=d} alpha^j
    Spad = np.concatenate(([0.0, 0.0], S))  # Spad[d] = S[d-2], zero for d < 2
    vals = S[d] - beta * alpha * alpha * Spad[d]
    np.fill_diagonal(vals, 1.0 + alpha * beta)
    return _powers(beta, T)[mx] * vals


@lru_cache(maxsize=64)
def _binomials(T: int, m: int) -> np.ndarray:
    """Read-only ``C(d, k)`` at ``[d, k]``, ``d < T``, ``k < m``, rounded once."""
    out = np.array([[math.comb(d, k) for k in range(m)] for d in range(T)], dtype=float)
    out.setflags(write=False)
    return out


def _tc_differences(p: int, beta: float) -> np.ndarray:
    """TCp's ``Delta^m s[0]`` (see :func:`_first_row`), ``m < p``, each a sum
    of positive terms, ``beta sum_k C(p-1, k+m) C(p-1-m, k) beta^k /
    (1-beta)^(2p-1-m)`` (for ``m = 0``, the squared binomials' generating
    function)."""
    C = _binomials(p, p)
    m, k = np.arange(p)[:, None], np.arange(p)
    weights = C[p - 1, np.minimum(k + m, p - 1)] * C[p - 1 - m, k]  # zero past k = p-1-m
    return beta * (weights @ _powers(beta, p - 1)) / (1.0 - beta) ** (2 * p - 1 - np.arange(p))


def _dc_differences(p: int, alpha: float, beta: float) -> np.ndarray:
    """DCp's ``Delta^m s[0]`` (see :func:`_first_row`), ``m < q = p - 1``, then
    ``u0``, as sums of positive terms (differencing ``s``, or a monomial form,
    cancels near ``alpha = beta = 1``).  ``z = x^(q) * alpha^i``, ``x^(c)_n =
    C(n+c-1, c-1)``, and ``Delta^m z`` is the order-``b = q-m`` series shifted
    by ``m``; summed over ``i``, the geometric weights leave TC-type sums ``H[i,
    k] = sum_n beta^n C(n+i, i) C(n+k, k)``, with ``y_e`` the ``e``-fold prefix
    sums of ``H[q-1, :]``, ``r = alpha beta``, ``rho = 1 - r`` and ``sigma = 1
    - alpha r`` (formed without cancellation):  ``Delta^m s[0] = beta / sigma
    [sum_{e<=m} alpha^(m-e) y_e[b-1] + r sum_{l<b} y_m[b-1-l] / rho^(l+1) +
    alpha^m r sum_{k<q} H[k, b-1] / rho^(q-k)]``."""
    q, w, r = p - 1, 1.0 - beta, alpha * beta
    rho, sigma = (1.0 - alpha) + alpha * w, (1.0 - alpha) * (1.0 + alpha) + alpha * alpha * w
    C, k = _binomials(q, q), np.arange(q)
    H = (C * _powers(beta, q - 1)) @ C.T / w ** (k[:, None] + k + 1)
    y, last = H[q - 1].tolist(), (rho ** (k - q) @ H).tolist()
    out, u = [], [0.0] * q
    for m in range(q):  # q <= 9: lists beat numpy's per-call cost
        b = q - m
        y = list(accumulate(y)) if m else y
        u = [alpha * ui + yi for ui, yi in zip(u, y)]  # sum_{e<=m} alpha^(m-e) y_e
        inner = sum(y[b - 1 - l] / rho ** (l + 1) for l in range(b))
        out.append(beta / sigma * (u[b - 1] + r * inner + alpha ** m * r * last[b - 1]))
    return np.array(out + [alpha ** q * beta / (rho ** q * sigma)])


def _first_row(spec: KernelSpec, T: int) -> np.ndarray:
    """``r[d] = K[1, 1 + d] = beta^d s[d]``, ``d < T``, of an order ``p >= 3``
    base spec, ``s[d] = sum_j beta^(j+1) z_j z_{j+d}`` (``z`` the inverse
    series), from Newton differences: ``s[d] = sum_{m < p} C(d, m) Delta^m
    s[0]`` for TC; DC's last is ``u0 alpha^d``, so ``s[d] = sum_{m < p-1} C(d,
    m) Delta^m s[0] + u0 z_{d-p+1}``, ``u0 = alpha^(p-1) beta / ((1 - alpha
    beta)^(p-1) (1 - alpha^2 beta))`` (:func:`_tc_differences`,
    :func:`_dc_differences`).  All terms are positive and ``s`` grows
    polynomially in ``d``, so no row of a buildable ``T`` overflows: its largest
    entry ``s[0]`` stays below 6.7e307 (TC10 as ``beta -> 1``; DC's is no larger)."""
    p, beta = spec.bandwidth, spec.beta
    if spec.family == "TCd":
        s = _binomials(T, p) @ _tc_differences(p, beta)
    else:
        diffs = _dc_differences(p, spec.alpha, beta)
        s = _binomials(T, p - 1) @ diffs[:-1]
        if T >= p:  # K[1, 1] alone does not pay for the filter
            s[p - 1:] += diffs[-1] * _inverse_series(spec, T - p + 1)
    return _powers(beta, T - 1) * s


# ---------------------------------------------------------------------------
# Cholesky factors of the inverse
# ---------------------------------------------------------------------------

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


def _dc1_kappa(spec: KernelSpec) -> float:
    # PD normalization: the weighted Gram of tpl(1, alpha, alpha^2, ...)
    # sums the geometric series 1/(1 - alpha^2 beta).
    return 1.0 - spec.alpha * spec.alpha * spec.beta


def _ss_factor(spec: KernelSpec, T: int) -> tuple[np.ndarray, float]:
    """``SS`` has no banded inverse: a dense factor of bandwidth ``T - 1``."""
    L = _dense_chol_of_inverse(build_kernel(spec, T))
    flat, row, col = _band_index(T, T - 1)
    bands = np.zeros((T, T))
    bands.ravel()[flat] = L[row, col]
    return bands, -2.0 * np.sum(np.log(bands[0]))


def _tail_certified(beta: float, n: int, z: np.ndarray, Y: np.ndarray) -> bool:
    """Whether, for each row ``y`` of ``Y``, the tail of ``sum_j beta^(j+1) z_j
    y_j`` past ``j = n`` is below ``_SERIES_TOL`` of the first ``n`` terms:
    ``|z|``, ``|y|`` are log-concave (binomials, alone or convolved with
    ``|alpha|**j``), so a tail is at most ``beta^(n+1) |z_n y_n| / (1 - rho)``,
    ``rho = beta q max(q, |y_{n+1} / y_n|)``, ``q = |z_{n+1} / z_n|``."""
    w = beta ** np.arange(1, n + 1, dtype=float) * z[:n]
    sums = np.array([np.dot(w, y[:n]) for y in Y])  # BLAS dots: a strided matmul sums serially
    q = abs(z[n + 1] / z[n])
    rho = beta * q * np.maximum(q, np.abs(Y[:, n + 1] / Y[:, n]))
    tail = beta ** (n + 1) * abs(z[n]) * np.abs(Y[:, n]) / (1.0 - rho)
    return bool(np.all((rho < 1.0) & (tail < _SERIES_TOL * np.abs(sums))))


@lru_cache(maxsize=1024)
def _series(spec: KernelSpec) -> np.ndarray:
    """The corner of an order ``p >= 3`` base spec, memoized, read-only and a
    function of the spec alone (``HC3`` shares ``DC3``'s): ``U``, upper
    triangular with a positive diagonal and ``J C0 J = U^T U`` (``C0 = K[:p,
    :p]``, ``J`` the reversal).  The windows ``W[m, t] = beta^((m+1)/2)
    z_{m-t}``, ``m = 0 .. n+p-2``, have the Gram ``C0`` and hold every term of
    the certified ``s[d]`` (``C0[t, t+d] = beta^t s[d]``), so their tail is no
    larger; ``U`` is the R factor of the flipped ``W J``."""
    p = spec.bandwidth

    def attempt(n):
        z = _inverse_series(spec, n + p + 1)
        if not _tail_certified(spec.beta, n, z, as_strided(z, (p, n + 2), z.strides * 2)):
            return None  # the rows of the view are z[d:], d < p
        # row m of the view holds z_{m-p+1} .. z_m: the windows, flipped
        W = np.empty((n + p - 1, p), order="F")
        np.multiply(sliding_window_view(np.concatenate((np.zeros(p - 1), z[: n + p - 1])), p),
                    spec.beta ** (np.arange(1, n + p) / 2.0)[:, None], out=W)
        return dgeqrf(W, overwrite_a=1)[0][:p]

    U = np.triu(_certified(spec, attempt, f"series of {spec.display_name}"))
    U *= np.sign(np.diag(U))[:, None]
    U.setflags(write=False)
    return U


def _series_factor(spec: KernelSpec, T: int) -> tuple[np.ndarray, float]:
    """Bands of an order ``p >= 3`` factor: the graded operator columns
    ``beta^(-t/2) a`` for ``t = 1 .. T-p``, then the trailing corner ``L22 =
    beta^(-(T-p)/2) J U^-1 J`` (``K22 = beta^(T-p) C0``, ``J C0 J = U^T U``
    from :func:`_series`), refused where its backward error, about ``eps
    cond(U)``, estimated as ``eps / rcond(U)`` (1-norm, ``dtrcon``), exceeds
    ``_CORNER_TOL``; that keeps the log-determinant within ``p * _CORNER_TOL``.
    """
    stem, p = _CANONICAL[spec.family, spec.delta]
    if T < p + 2:
        raise DimensionError(f"order-{p} families need dim >= delta + 2 = {p + 2}; got {T}")
    U = _series(spec.base())
    rcond = dtrcon(U)[0]
    error = np.finfo(float).eps / rcond if rcond > 0 else math.inf
    if not error <= _CORNER_TOL:
        raise ConditioningError(f"trailing {p}x{p} corner of {spec.display_name} at beta="
                                f"{spec.beta}: estimated backward error {error:.1e} exceeds "
                                f"{_CORNER_TOL:g}")
    Uinv = dtrtri(U, lower=0)[0]
    bands = np.zeros((p + 1, T))  # series kernels are unnormalized: kappa = 1
    bands[:, : T - p] = np.outer(_SERIES[stem][0](p, spec.alpha),
                                 spec.beta ** (-np.arange(1, T - p + 1, dtype=float) / 2.0))
    _, row, col = _band_index(p, p - 1)
    L22 = spec.beta ** (-(T - p) / 2.0) * Uinv[::-1, ::-1]
    bands[row - col, T - p + col] = L22[row, col]
    return bands, -2.0 * float(np.sum(np.log(bands[0])))


# ---------------------------------------------------------------------------
# The family table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Record:
    """Formulas of one ``(stem, order)``: ``entries(spec, T)`` (unflipped),
    ``factor(spec, T) -> (bands of L, log det K)``, ``k11(spec) = K[1, 1]``
    and ``kappa(spec)``; :func:`build_inverse` is ``L L^T`` of the factor."""

    entries: object
    factor: object
    k11: object
    kappa: object = lambda s: 1.0


# Closed forms.  TC2 keeps its own entries and kappa: the DC2 forms at
# alpha = 1 differ from them in the last bit (entries at 776 of 800 (beta, T)
# points, kappa at 109 of 400 betas).
_RECORDS = {
    ("DI", 0): _Record(
        entries=lambda s, T: np.diag(_powers(s.beta, T)[1:]),
        factor=lambda s, T: ((s.beta ** (-np.arange(1, T + 1, dtype=float) / 2.0))[None, :],
                             np.log(s.beta) * T * (T + 1) / 2.0),
        k11=lambda s: float(s.beta),
    ),
    ("SS", None): _Record(
        entries=_ss_entries,
        factor=_ss_factor,
        k11=lambda s: float(s.gamma ** 3 / 3.0),
    ),
    ("TC", 1): _Record(
        entries=lambda s, T: _powers(s.beta, T)[_grid(T)[0]],
        factor=lambda s, T: _order1_bands(T, s.beta, 1.0, 1.0 - s.beta),
        k11=lambda s: float(s.beta),
        kappa=lambda s: 1.0 - s.beta,
    ),
    ("DC", 1): _Record(
        # (alpha beta)^|t-s| beta^min(t, s): |alpha beta| < 1, so no power overflows
        entries=lambda s, T: (_powers(s.alpha * s.beta, T - 1)[_grid(T)[2]]
                              * _powers(s.beta, T)[_grid(T)[1]]),
        factor=lambda s, T: _order1_bands(T, s.beta, s.alpha, _dc1_kappa(s)),
        k11=lambda s: float(s.beta),
        kappa=_dc1_kappa,
    ),
    ("TC", 2): _Record(
        entries=_tc2_entries,
        factor=lambda s, T: _order2_bands(T, s.beta, 1.0),
        k11=lambda s: float(s.beta * (1.0 + s.beta)),
        kappa=lambda s: (1.0 - s.beta) ** 3,
    ),
    ("DC", 2): _Record(
        entries=lambda s, T: _order2_entries(T, s.beta, s.alpha),
        factor=lambda s, T: _order2_bands(T, s.beta, s.alpha),
        k11=lambda s: float(s.beta * (1.0 + s.alpha * s.beta)),
        kappa=lambda s: (
            (1.0 - s.beta) * (1.0 - s.alpha * s.beta) * (1.0 - s.alpha * s.alpha * s.beta)
        ),
    ),
}

# Orders >= 3, unnormalized (the scale hyperparameter absorbs the constant), are
# exponentially convex: K[t, s] = beta^(min(t, s) - 1) r[|t - s|].  The row r,
# and so K[1, 1] = r[0], is closed; only the factor's corner is a series.
_SERIES_RECORD = _Record(
    entries=lambda s, T: (_powers(s.beta, T - 1)[_grid(T)[1] - 1]
                          * _first_row(s.base(), T)[_grid(T)[2]]),
    factor=_series_factor,
    k11=lambda s: float(_first_row(s.base(), 1)[0]),
)


def _record(spec: KernelSpec) -> _Record:
    return _RECORDS.get(_CANONICAL[spec.family, spec.delta], _SERIES_RECORD)


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------

def _dimension(dim) -> int:
    T = int(dim)
    if T < 1:
        raise DimensionError(f"kernel dimension must be >= 1; got {dim}")
    return T


def normalization_kappa(spec: KernelSpec) -> float:
    """Scalar normalization of the banded-operator decomposition.

    Orders 1 and 2 carry the constants that make the closed-form kernel
    entries come out exactly; higher orders are left unnormalized (the
    constant is absorbed by the scale hyperparameter of the estimator).
    """
    return _record(spec).kappa(spec)


@single_threaded
def build_kernel(spec: KernelSpec, dim: int) -> np.ndarray:
    """Dense ``dim x dim`` kernel matrix for ``spec`` from closed-form
    entries, for orders above 2 through Newton differences
    (:func:`_first_row`).  Sign-flipped families multiply entries by
    ``(-1)**|t-s|``.
    """
    return _sign_flip(spec, _record(spec).entries(spec, _dimension(dim)))


def _sign_flip(spec: KernelSpec, K: np.ndarray) -> np.ndarray:
    """``S K S``, ``S = diag(1, -1, 1, ...)``, for a sign-flipped family."""
    if not spec.sign_flipped:
        return K
    return np.where(_grid(len(K))[2] % 2 == 1, -K, K)


@single_threaded
def build_inverse(spec: KernelSpec, dim: int) -> np.ndarray:
    """``K^{-1} = L L^T`` from the factor of :func:`inverse_cholesky`, so it
    is refused exactly where the factor is and carries its tolerance.  One
    triangle is summed band by band and mirrored: the result is exactly
    symmetric, and entries with ``|t-s| > bandwidth`` are exact zeros.
    ``SS`` has no banded inverse and is rejected.
    """
    if spec.family == "SS":
        raise DecompositionError("SS kernel has no banded inverse decomposition")
    factor = inverse_cholesky(spec, dim)
    T, L = factor.dim, factor.bands
    q = min(factor.bandwidth, T - 1)
    # band d of L L^T: (L L^T)[j+d, j] = sum_e L[j+d, j-e] L[j, j-e]
    prod = np.zeros_like(L)
    for d in range(q + 1):
        for e in range(q + 1 - d):
            prod[d, e:] += L[e + d, : T - e] * L[e, : T - e]
    flat, row, col = _band_index(T, factor.bandwidth)
    Kinv = np.zeros((T, T))
    Kinv[row, col] = Kinv[col, row] = prod.ravel()[flat]
    return Kinv


@single_threaded
def inverse_cholesky(spec: KernelSpec, dim: int) -> BandedFactor:
    """Banded lower Cholesky factor ``L`` of ``K^{-1}`` with the kernel's
    log-determinant.

    Orders 1 and 2 fill the bands from closed forms (including the corrected
    trailing entries of the finite-dimensional factor), higher orders by
    :func:`_series_factor`, and ``SS`` falls back to a dense factor of
    bandwidth ``dim - 1``.  Sign-flipped families reuse the factor of their
    base family via the similarity ``L -> S L S``, which flips the sign of
    every odd band.  The columns carry ``beta^(-t/2)``: a factor is refused
    with ``ConditioningError`` unless ``L`` is finite and, but for ``SS``,
    ``2 log max|L| + log(bandwidth + 1) <= log(max double)``, so that ``L
    L^T``, each entry a sum of at most ``bandwidth + 1`` products, fits too.
    """
    T = _dimension(dim)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            bands, logdet = _record(spec).factor(spec, T)
    except OverflowError:
        bands = np.full(1, math.inf)
    big = np.finfo(float).max  # L must fit, and L L^T too except for SS, which forms none
    if not np.abs(bands).max() <= (big if spec.family == "SS" else math.sqrt(big / len(bands))):
        raise ConditioningError(f"{spec.to_kv()}, dim={dim}: L or K^-1 = L L^T exceeds the "
                                f"largest double {big:.4g}")
    if spec.sign_flipped:
        bands[1::2] *= -1.0
    return BandedFactor(T, bands.shape[0] - 1, bands, float(logdet))


@lru_cache(maxsize=512)
def _cached_factor(spec: KernelSpec, dim: int) -> BandedFactor:
    return inverse_cholesky(spec, dim)


@lru_cache(maxsize=4096)
@single_threaded
def leading_variance(spec: KernelSpec) -> float:
    """``K[1, 1]``: the prior variance of the first impulse coefficient.

    Used to put kernels of different orders on a common scale, since the
    unnormalized high-order families grow like ``(1-beta)**-(2*delta-1)``.
    """
    return _record(spec).k11(spec)


# ---------------------------------------------------------------------------
# Matrix serialization
# ---------------------------------------------------------------------------

def matrix_to_csv(M: np.ndarray, path_or_file) -> None:
    """Write a dense matrix as CSV in full-precision scientific notation."""
    np.savetxt(path_or_file, np.atleast_2d(M), fmt="%.16e", delimiter=",")


def matrix_from_csv(path_or_file) -> np.ndarray:
    return np.loadtxt(path_or_file, delimiter=",", ndmin=2)
