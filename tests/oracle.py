"""The suite's independent reference for every kernel family.

It follows the paper's definitions, not the library's formulas, and all but
:func:`closed_form_inverse` runs in mpmath.  Indices are 0-based: ``K[i, j]``
is the paper's ``K[i+1, j+1]``.  A spec reduces to a stem ``DI``, ``TC``,
``DC`` or ``SS`` and an order ``p``, its inverse bandwidth; ``HFd`` and
``HCd`` are ``TCd`` and ``DCd`` flipped, ``K[i, j] -> (-1)^(i+j) K[i, j]``.

* Operator polynomial :func:`operator`: ``a(x) = (1 - x)^p`` for TC (``a =
  1`` for DI) and ``(1 - x)^(p-1) (1 - alpha x)`` for DC.  Its inverse series
  ``1 / a(x) = sum_j z_j x^j`` gives the row ``r[d] = beta^d sum_j
  beta^(j+1) z_j z_(j+d)``, times the paper's ``kappa`` at orders 1-2: ``1 -
  beta`` (TC), ``1 - alpha^2 beta`` (DC), ``(1 - beta)^3`` (TC2), ``(1 -
  beta)(1 - alpha beta)(1 - alpha^2 beta)`` (DC2); 1 above.
* :func:`corner`: ``C0 = K[:p, :p]`` (unnormalized) from a Stein equation,
  free of truncation.  The windows ``x_m = (z_m, .., z_(m-p+1))`` obey
  ``x_(m+1) = A x_m``, ``A`` the companion matrix of ``a``, so ``C0 = beta
  X`` with ``X = e1 e1' + beta A X A'``.
* :func:`row`: ``r[d] = C0[0, d]`` for ``d < p``, then the recursion ``sum_i
  a_i beta^i r[d - i] = 0`` for ``d >= p``, which holds as ``a`` annihilates
  ``z``.
* :func:`kernel`: ``K[i, j] = beta^min(i, j) r[|i - j|]``; DI and SS from
  their entries, ``diag(beta^(i+1))`` and ``gamma^(i+j+M+3) / 2 -
  gamma^(3M+3) / 6``, ``M = max(i, j)``.
* :func:`logdet`: the factor ``L`` of ``K^-1 = L L'`` holds the operator in
  its first ``T - p`` columns, column ``j`` times ``beta^(-(j+1)/2) /
  sqrt(kappa)``, and a corner with ``L22' K22 L22 = I``, ``K22 = kappa
  beta^(T-p) C0``, whose determinant is the mpmath Cholesky's of ``C0``.
* :func:`spectrum`: ``w(d) = e^(-1-d/2) r[d]`` (envelope ``e = beta``,
  ``gamma^3`` for SS) is the autocovariance of ``beta^(j/2) z_j``, so its
  density is ``kappa / |a(sqrt(beta) e^(i theta))|^2``, at ``theta + pi``
  for HF and HC.  SS has ``w(d) = gamma^(d/2) / 2 - gamma^(3d/2) / 6``, the
  Poisson form ``P(sqrt(gamma)) / 2 - P(gamma^(3/2)) / 6``, ``P(rho) = (1 -
  rho^2) / (1 - 2 rho cos theta + rho^2)``.
* :func:`nll`: on reduced data ``R0 = [[R, r], [0, rho]]``, with ``S = lam
  R K~ R' + sigma2 I`` and the unit kernel ``K~ = K / K[0, 0]``, ``(N - T)
  log sigma2 + rho^2 / sigma2 + log det S + r' S^-1 r``.
* :func:`closed_form_inverse`: the paper's ``K^-1 = kappa^-1 G D G'`` of
  orders 0-2, in double precision.

mpmath is imported inside each function by ``pytest.importorskip``, so a
module that imports this one collects without mpmath and each test that
calls it skips.  Keyword arguments of :func:`row` and :func:`kernel` replace
the spec's parameters, with mpmath numbers too: the complex-step tests take
central differences at 1e-40 through them.
"""

import itertools
import math
from functools import lru_cache

import numpy as np
import pytest


def _canonical(spec, given):
    """``(stem, order, flipped, decay, alpha)`` of ``spec``, the parameters in
    ``given`` replacing the spec's; the decay is ``gamma`` for SS."""
    kw = {"beta": spec.beta, "alpha": spec.alpha, "gamma": spec.gamma, **given}
    stem = spec.base().family[:2]
    return (stem, spec.bandwidth or 0, spec.sign_flipped,
            kw["gamma" if stem == "SS" else "beta"], kw["alpha"])


def _kappa(stem, order, beta, alpha):
    mp = pytest.importorskip("mpmath")
    b, a = mp.mpf(beta), mp.mpf(alpha or 0)
    return {("TC", 1): 1 - b, ("DC", 1): 1 - a * a * b, ("TC", 2): (1 - b) ** 3,
            ("DC", 2): (1 - b) * (1 - a * b) * (1 - a * a * b)}.get((stem, order), 1)


def digits(order, beta):
    """Working digits: the corner's equations lose about ``2 p log10(1 / (1 -
    beta))``, so 90 keep 30 or more up to ``beta = 0.999`` and nearer 1 the
    precision grows; never fewer than the caller's."""
    dps = pytest.importorskip("mpmath").mp.dps
    return max(90, 30 + 2 * order * round(-math.log10(1.0 - beta)), dps)


def operator(stem, order, alpha=None):
    """Coefficients ``a_0 .. a_p`` of the operator polynomial, the DC one as
    the mixture ``(1 - alpha)(1 - x)^(p-1) + alpha (1 - x)^p``."""
    mp = pytest.importorskip("mpmath")
    hi = [mp.mpf((-1) ** j * math.comb(order, j)) for j in range(order + 1)]
    if stem != "DC":
        return hi
    al = mp.mpf(alpha)
    lo = [mp.mpf((-1) ** j * math.comb(order - 1, j)) for j in range(order)] + [0]
    return [(1 - al) * l + al * h for l, h in zip(lo, hi)]


@lru_cache(maxsize=None)
def _corner(stem, p, beta, alpha, dps):
    mp = pytest.importorskip("mpmath")
    with mp.workdps(dps):
        b = mp.mpf(beta)
        a = operator(stem, p, alpha)
        row0 = [-a[k + 1] / a[0] for k in range(p)]  # A[0, k]; A[i, k] = [k == i - 1]
        # rows i >= 1 of the Stein equation read X[i, j] = beta X[i-1, j-1], so
        # X[i, j] = beta^min(i, j) x[|i - j|], and row 0 leaves p equations in x
        M, rhs = mp.eye(p), mp.zeros(p, 1)
        rhs[0] = 1
        for k, l in itertools.product(range(p), repeat=2):
            M[0, abs(k - l)] -= b * row0[k] * row0[l] * b ** min(k, l)
        for j, k in itertools.product(range(1, p), range(p)):
            M[j, abs(k - j + 1)] -= b * row0[k] * b ** min(k, j - 1)
        x = mp.lu_solve(M, rhs)
        return mp.matrix([[b ** (min(i, j) + 1) * x[abs(i - j)] for j in range(p)]
                          for i in range(p)])


def corner(spec, **given):
    """``C0`` of a TC- or DC-stem spec, unflipped, as an mpmath matrix."""
    stem, p, _, beta, alpha = _canonical(spec, given)
    return _corner(stem, p, beta, alpha, digits(p, beta))


def row(spec, T, **given):
    """``r[d] = K[0, d]``, ``d < T``, of a TC- or DC-stem spec (HF and HC
    included), as mpmath numbers."""
    mp = pytest.importorskip("mpmath")
    stem, p, flipped, beta, alpha = _canonical(spec, given)
    C0 = corner(spec, **given)
    with mp.workdps(digits(p, beta)):
        b = mp.mpf(beta)
        a = operator(stem, p, alpha)
        bp = [b ** i for i in range(p + 1)]
        r = [C0[0, d] for d in range(min(p, T))]
        for d in range(p, T):
            r.append(-sum(a[i] * bp[i] * r[d - i] for i in range(1, p + 1)) / a[0])
        kappa = _kappa(stem, p, b, alpha)
        return [kappa * (-1) ** (d * flipped) * v for d, v in enumerate(r)]


def kernel(spec, T, **given):
    """The ``T x T`` kernel of ``spec`` as an mpmath matrix."""
    mp = pytest.importorskip("mpmath")
    stem, p, _, decay, _ = _canonical(spec, given)
    t = range(T)
    with mp.workdps(digits(p, decay)):
        x = mp.mpf(decay)
        if stem == "DI":
            return mp.matrix([[x ** (i + 1) if i == j else 0 for j in t] for i in t])
        if stem == "SS":
            return mp.matrix([[x ** (i + j + max(i, j) + 3) / 2 - x ** (3 * max(i, j) + 3) / 6
                               for j in t] for i in t])
        r, e = row(spec, T, **given), [x ** k for k in t]
        return mp.matrix([[e[min(i, j)] * r[abs(i - j)] for j in t] for i in t])


def logdet(spec, T):
    """``log det K`` of a spec with a banded inverse (all but SS): with ``q =
    min(p, T)``, ``((T - q)(T - q + 1) / 2 + q (T - q)) log beta + T log
    kappa + log det C0[:q, :q]``."""
    mp = pytest.importorskip("mpmath")
    stem, p, _, beta, alpha = _canonical(spec, {})
    q = min(p, T)
    with mp.workdps(digits(p, beta)):
        b = mp.mpf(beta)
        out = ((T - q) * (T - q + 1) // 2 + q * (T - q)) * mp.log(b)
        out += T * mp.log(_kappa(stem, p, b, alpha))
        if q:
            C = mp.cholesky(corner(spec)[:q, :q])
            out += 2 * sum(mp.log(C[i, i]) for i in range(q))
        return out


def spectrum(spec, theta):
    """The exact density of the stationary part at the angles ``theta``, as
    doubles."""
    mp = pytest.importorskip("mpmath")
    stem, p, flipped, decay, alpha = _canonical(spec, {})
    with mp.workdps(digits(p, decay)):
        x = mp.mpf(decay)
        if stem == "SS":
            poisson = lambda rho, th: (1 - rho ** 2) / (1 - 2 * rho * mp.cos(th) + rho ** 2)
            return np.array([float(poisson(mp.sqrt(x), th) / 2 - poisson(x * mp.sqrt(x), th) / 6)
                             for th in theta])
        a, kappa = operator(stem, p, alpha)[::-1], _kappa(stem, p, x, alpha)
        shift = mp.pi if flipped else 0
        return np.array([float(kappa / abs(mp.polyval(a, mp.sqrt(x) * mp.expj(th + shift))) ** 2)
                         for th in theta])


def nll(spec, R0, lam, sigma2, N):
    """The unit-kernel likelihood of ``spec`` at ``lam`` on the reduced data
    ``R0``, at 50 digits."""
    mp = pytest.importorskip("mpmath")
    T = R0.shape[0] - 1
    K = kernel(spec, T)
    with mp.workdps(50):
        RA = mp.matrix(R0[:T, :T].tolist())
        s2 = mp.mpf(sigma2)
        C = mp.cholesky(s2 * mp.eye(T) + mp.mpf(lam) * RA * (K / K[0, 0]) * RA.T)
        x = mp.lu_solve(C, mp.matrix(R0[:T, T].tolist()))
        return (mp.mpf(R0[T, T]) ** 2 / s2 + sum(xi ** 2 for xi in x)
                + (N - T) * mp.log(s2) + 2 * sum(mp.log(C[i, i]) for i in range(T)))


def _closed_form_operator(sp):
    """``(coefficients, kappa, B_T(T))`` of an order 0-2 spec."""
    b, a = sp.beta, sp.alpha
    stem, p = sp.family[:2], sp.bandwidth
    if p == 0:
        return [1.0], 1.0, None
    if p == 1:
        sub, kappa = (1.0, 1.0 - b) if stem in ("TC", "HF") else (a, 1.0 - a * a * b)
        return [1.0, -sub], kappa, lambda T: np.array([[kappa * b ** -float(T)]])
    if stem in ("TC", "HF"):
        a = 1.0
    kappa = (1.0 - b) * (1.0 - a * b) * (1.0 - a * a * b)

    def trailing(T):
        scale = (1.0 - a * b) * b ** -float(T)
        return scale * np.array([
            [b * (1.0 + a * b), a * b * b * (1.0 + a)],
            [a * b * b * (1.0 + a),
             (1.0 - b - a * a * b) * (1.0 - a * b) + 2.0 * a * a * b * b],
        ])

    return [1.0, -(1.0 + a), a], kappa, trailing


def closed_form_inverse(sp, T):
    """``K^{-1}`` of an order 0-2 spec (HF/HC twins included) at ``T >= p``,
    from the decomposition alone: ``K^{-1} = kappa^{-1} G D G^T``, ``D =
    diag(beta^-1 .. beta^-(T-p)) + B_T``, with ``G`` the banded lower
    Toeplitz operator of the family and ``B_T`` the ``p x p`` trailing block
    of the finite-dimensional decomposition."""
    p = sp.bandwidth
    if not (p is not None and p <= 2 and T >= p):
        raise ValueError(f"no closed-form inverse for {sp.to_kv()} at T={T}")
    coefficients, kappa, trailing = _closed_form_operator(sp)
    G = sum(c * np.eye(T, k=-j) for j, c in enumerate(coefficients))
    D = np.diag(np.r_[sp.beta ** -np.arange(1.0, T - p + 1), np.zeros(p)])
    if p:
        D[T - p :, T - p :] = trailing(T)
    Kinv = G @ D @ G.T / kappa
    s = (-1.0) ** np.arange(T) if sp.sign_flipped else np.ones(T)
    return Kinv * np.outer(s, s)
