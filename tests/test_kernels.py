"""Kernel construction, inverse decomposition, and Cholesky factor tests.

Expected values come from independent sources: hand-evaluated closed-form
entries, dense numpy/scipy linear algebra on the assembled matrices, the
truncated-series route for the graded families and 90-digit mpmath oracles.
"""

import doctest
import io
import itertools
import math
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import cholesky as dense_cholesky

import stablekern
from stablekern import kernels
from stablekern.errors import (
    ConditioningError,
    DecompositionError,
    DimensionError,
    ParameterError,
    SingularOperatorError,
)
from stablekern.kernels import (
    MAX_ORDER,
    BandedFactor,
    KernelSpec,
    build_inverse,
    build_kernel,
    inverse_cholesky,
    leading_variance,
    matrix_from_csv,
    matrix_to_csv,
    normalization_kappa,
    parse_family,
    toeplitz_inverse,
)
from stablekern.spectral import stationary_part

from closed_form_inverse import closed_form_inverse
from series_kernel import series_kernel


def spec(name, **kw):
    return KernelSpec.from_name(name, **kw)


def maxrel(A, B):
    scale = max(np.max(np.abs(B)), 1e-300)
    return np.max(np.abs(np.asarray(A) - np.asarray(B))) / scale


# a representative parameter set per family, at benign conditioning
CASES = [
    spec("DI", beta=0.55),
    spec("TC", beta=0.5),
    spec("TC", beta=0.9),
    spec("DC", beta=0.7, alpha=-0.6),
    spec("DC", beta=0.7, alpha=0.0),
    spec("DC", beta=0.5, alpha=1.1),
    spec("TC2", beta=0.3),
    spec("TC2", beta=0.85),
    spec("DC2", beta=0.6, alpha=0.25),
    spec("DC2", beta=0.8, alpha=1.0),
    spec("SS", gamma=0.6),
    spec("TC3", beta=0.6),
    spec("DC3", beta=0.7, alpha=0.5),
    spec("TC4", beta=0.5),
    spec("HF", beta=0.5),
    spec("HF2", beta=0.7),
    spec("HC3", beta=0.6, alpha=0.4),
]


# ---------------------------------------------------------------------------
# Toeplitz inverse recursion
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "a, want",
    [
        ([1.0, -1.0], [1.0, 1.0, 1.0, 1.0]),
        ([1.0, -2.0, 1.0], [1.0, 2.0, 3.0, 4.0]),
        ([1.0, -0.5], [1.0, 0.5, 0.25, 0.125]),
    ],
)
def test_toeplitz_inverse_known_sequences(a, want):
    np.testing.assert_allclose(toeplitz_inverse(a, 4), want, rtol=0, atol=0)


def test_toeplitz_inverse_is_an_inverse():
    rng = np.random.default_rng(7)
    a = np.r_[1.5, rng.normal(size=4)]
    n = 40
    b = toeplitz_inverse(a, n)

    def dense(c):
        M = np.zeros((n, n))
        for j, v in enumerate(c[:n]):
            idx = np.arange(n - j)
            M[idx + j, idx] = v
        return M

    prod = dense(a) @ dense(b)
    np.testing.assert_allclose(prod, np.eye(n), atol=1e-10)


def test_docstring_examples_pass():
    result = doctest.testmod(kernels)
    assert result.attempted >= 3 and result.failed == 0


def test_toeplitz_inverse_rejects_singular_and_bad_length():
    with pytest.raises(SingularOperatorError):
        toeplitz_inverse([0.0, 1.0], 3)
    with pytest.raises(DimensionError):
        toeplitz_inverse([1.0, -1.0], 0)


# ---------------------------------------------------------------------------
# Frozen closed-form entries
# ---------------------------------------------------------------------------

def test_tc_entries_frozen():
    K = build_kernel(spec("TC", beta=0.5), 2)
    np.testing.assert_allclose(K, [[0.5, 0.25], [0.25, 0.25]], rtol=0, atol=0)


def test_tc2_entries_and_det_frozen():
    K = build_kernel(spec("TC2", beta=0.5), 2)
    np.testing.assert_allclose(K, [[0.75, 0.5], [0.5, 0.375]], rtol=1e-15)
    assert np.linalg.det(K) == pytest.approx(0.03125, rel=1e-12)


def test_ss_corner_frozen():
    K = build_kernel(spec("SS", gamma=0.5), 1)
    assert K[0, 0] == pytest.approx(1.0 / 24.0, rel=1e-15)


def test_hf_sign_flip_frozen():
    K = build_kernel(spec("HF", beta=0.5), 2)
    assert K[0, 1] == pytest.approx(-0.25, rel=0)
    base = build_kernel(spec("TC", beta=0.5), 2)
    assert K[0, 0] == base[0, 0] and K[1, 1] == base[1, 1]


def test_dc_entry_with_negative_alpha():
    K = build_kernel(spec("DC", beta=0.5, alpha=-0.6), 3)
    assert K[0, 2] == pytest.approx((-0.6) ** 2 * 0.5 ** 3, rel=1e-15)
    assert K[0, 1] == pytest.approx(-0.6 * 0.5 ** 2, rel=1e-15)


def test_dc2_diagonal_frozen():
    K = build_kernel(spec("DC2", beta=0.5, alpha=0.5), 1)
    assert K[0, 0] == pytest.approx(0.5 * 1.25, rel=1e-15)


@pytest.mark.parametrize(
    "sp, want",
    [
        (spec("TC2", beta=0.5), 0.125),
        (spec("DC2", beta=0.5, alpha=0.5), 0.328125),
        (spec("TC4", beta=0.5), 1.0),
        (spec("TC", beta=0.3), 0.7),
        (spec("DC", beta=0.5, alpha=-0.6), 1.0 - 0.36 * 0.5),
        (spec("SS", gamma=0.5), 1.0),
    ],
)
def test_normalization_kappa(sp, want):
    assert normalization_kappa(sp) == pytest.approx(want, rel=1e-15)


def test_cholesky_entries_frozen():
    # generic-region entries of the closed-form factors
    L2 = inverse_cholesky(spec("TC2", beta=0.5), 6).to_dense()
    assert L2[0, 0] == pytest.approx(4.0, rel=1e-13)
    Ld = inverse_cholesky(spec("DC2", beta=0.5, alpha=0.5), 6).to_dense()
    assert Ld[1, 0] == pytest.approx(-1.5 / np.sqrt(0.1640625), rel=1e-13)
    L1 = inverse_cholesky(spec("TC", beta=0.5), 5).to_dense()
    assert L1[0, 0] == pytest.approx(2.0, rel=1e-13)


# ---------------------------------------------------------------------------
# Structural identities against dense linear-algebra oracles
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("sp", CASES, ids=lambda s: s.to_kv())
@pytest.mark.parametrize("T", [1, 2, 3, 6, 12, 25])
def test_inverse_and_factor_match_dense_oracles(sp, T):
    bw = sp.bandwidth
    if bw is not None and bw > 2 and T < bw + 2:
        pytest.skip("below minimal dimension for this order")
    K = build_kernel(sp, T)
    F = inverse_cholesky(sp, T)
    L = F.to_dense()
    np.testing.assert_allclose(K @ (L @ L.T), np.eye(T), atol=1e-8)
    # determinant against the dense Cholesky oracle, in log space
    ld_oracle = 2.0 * np.sum(np.log(np.diag(dense_cholesky(K, lower=True))))
    assert F.logdet_K == pytest.approx(ld_oracle, abs=1e-9 * max(1, abs(ld_oracle)))
    if sp.family != "SS":
        Kinv = build_inverse(sp, T)
        np.testing.assert_allclose(K @ Kinv, np.eye(T), atol=1e-8)
        if bw <= 2 and T >= bw:
            assert maxrel(L @ L.T, closed_form_inverse(sp, T)) < 1e-9


@pytest.mark.parametrize("sp", [c for c in CASES if c.family != "SS"], ids=lambda s: s.to_kv())
def test_inverse_is_banded_with_exact_zeros(sp):
    T = 12
    Kinv = build_inverse(sp, T)
    bw = sp.bandwidth
    t = np.arange(T)
    outside = np.abs(np.subtract.outer(t, t)) > bw
    assert np.all(Kinv[outside] == 0.0)


def test_factor_bands_match_dense_cholesky_of_inverse():
    for sp in (spec("TC", beta=0.8), spec("DC2", beta=0.6, alpha=0.3), spec("TC2", beta=0.4)):
        T = 9
        C = dense_cholesky(closed_form_inverse(sp, T), lower=True)
        L = inverse_cholesky(sp, T).to_dense()
        np.testing.assert_allclose(L, C, rtol=1e-9, atol=1e-9)


def test_banded_factor_storage_layout():
    F = inverse_cholesky(spec("TC2", beta=0.5), 7)
    assert F.bandwidth == 2 and F.dim == 7
    L = F.to_dense()
    for d in range(3):
        np.testing.assert_array_equal(np.diag(L, -d), F.bands[d, : 7 - d])
    assert F.logdet_K == pytest.approx(-2.0 * np.sum(np.log(F.diagonal)), rel=1e-12)
    with pytest.raises(ValueError):
        F.bands[0, 0] = 1.0  # factor is read-only


# ---------------------------------------------------------------------------
# Series route agrees with the closed forms (dual-route check)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "sp",
    [
        spec("TC", beta=0.7),
        spec("TC2", beta=0.7),
        spec("DC2", beta=0.6, alpha=0.45),
        spec("DC", beta=0.6, alpha=0.45),
        spec("DC", beta=0.6, alpha=-0.45),
        spec("TC3", beta=0.7),
        spec("HF5", beta=0.8),
        spec("DC3", beta=0.6, alpha=0.45),
        spec("HC6", beta=0.8, alpha=1.0),
        spec("DC6", beta=0.7, alpha=0.5),
        spec("DC4", beta=0.9, alpha=0.0),
    ],
    ids=lambda s: s.to_kv(),
)
@pytest.mark.parametrize("T", [1, 2, 3, 8])
def test_series_route_reproduces_closed_forms(sp, T):
    # T <= p - 1 leaves DC's u0 z term out of every entry
    assert maxrel(series_kernel(sp, T), build_kernel(sp, T)) < 1e-12


def test_order_one_family_collapses_to_tc_and_dc():
    b = 0.65
    np.testing.assert_array_equal(
        build_kernel(spec("TC1", beta=b), 6), build_kernel(spec("TC", beta=b), 6)
    )
    a = 0.4
    np.testing.assert_allclose(
        build_kernel(KernelSpec("DCd", beta=b, alpha=a, delta=1), 6),
        build_kernel(spec("DC", beta=b, alpha=a), 6),
        rtol=1e-13,
    )


def _outputs(sp, T):
    """Every output of ``sp`` at dimension ``T`` as raw bytes, or the class
    and message of the refusal."""
    calls = {
        "kernel": lambda: build_kernel(sp, T),
        "factor": lambda: inverse_cholesky(sp, T).bands,
        "logdet": lambda: np.float64(inverse_cholesky(sp, T).logdet_K),
        "inverse": lambda: build_inverse(sp, T),
        "leading_variance": lambda: np.float64(leading_variance.__wrapped__(sp)),
        "kappa": lambda: np.float64(normalization_kappa(sp)),
        "stationary": lambda: stationary_part(sp, T).w,
    }
    out = {}
    for name, call in calls.items():
        try:
            out[name] = call().tobytes()
        except Exception as exc:  # refusals must match too
            out[name] = (type(exc), str(exc))
    return out


@pytest.mark.parametrize("T", [1, 2, 3, 50])
@pytest.mark.parametrize("beta", [0.3, 0.8, 0.999])
@pytest.mark.parametrize(
    "pair",
    [("TC", {}, "TCd"), ("DC", {"alpha": 0.0}, "DCd"), ("DC", {"alpha": 0.3}, "DCd"),
     ("DC", {"alpha": 1.0}, "DCd"), ("HF", {}, "HFd"), ("HC", {"alpha": 0.3}, "HCd")],
    ids=["TC", "DC-0", "DC-0.3", "DC-1", "HF", "HC"],
)
def test_order_one_families_are_bitwise_identical(pair, beta, T):
    # TC and TCd(1), DC and DCd(1) share one representation: every output,
    # and every refusal, is the same to the last bit
    name, kw, tag = pair
    fixed = spec(name, beta=beta, **kw)
    order1 = KernelSpec(tag, beta=beta, delta=1, **kw)
    assert _outputs(fixed, T) == _outputs(order1, T)


def test_dc2_alpha_limits():
    b = 0.55
    np.testing.assert_array_equal(
        build_kernel(spec("DC2", beta=b, alpha=0.0), 20),
        build_kernel(spec("TC", beta=b), 20),
    )
    near = build_kernel(spec("DC2", beta=b, alpha=1.0 - 1e-6), 20)
    tc2 = build_kernel(spec("TC2", beta=b), 20)
    assert np.max(np.abs(near - tc2)) < 1e-4


def test_sign_flip_is_a_similarity():
    b = 0.7
    K = build_kernel(spec("TC2", beta=b), 8)
    Kf = build_kernel(spec("HF2", beta=b), 8)
    s = (-1.0) ** np.arange(8)
    np.testing.assert_array_equal(Kf, K * np.outer(s, s))
    # same determinant, same spectrum scale
    F, Ff = inverse_cholesky(spec("TC2", beta=b), 8), inverse_cholesky(spec("HF2", beta=b), 8)
    assert F.logdet_K == Ff.logdet_K
    np.testing.assert_array_equal(np.abs(F.to_dense()), np.abs(Ff.to_dense()))


def test_leading_variance_matches_corner_entry():
    for sp in CASES:
        want = build_kernel(sp, 1)[0, 0] if (sp.bandwidth or 0) <= 2 else build_kernel(sp, sp.bandwidth + 2)[0, 0]
        assert leading_variance(sp) == pytest.approx(want, rel=1e-11), sp


def _mpmath_operator(base):
    """Coefficients of the operator polynomial of a TC/DC-stem base spec in
    mpmath: ``(1-x)^p``, or the DC mixture ``(1-a)(1-x)^(p-1) + a(1-x)^p``."""
    mp = pytest.importorskip("mpmath")
    p = base.delta
    hi = [mp.mpf((-1) ** j * math.comb(p, j)) for j in range(p + 1)]
    if base.family == "TCd":
        return hi
    al = mp.mpf(base.alpha)
    lo = [mp.mpf((-1) ** j * math.comb(p - 1, j)) for j in range(p)] + [0]
    return [(1 - al) * l + al * h for l, h in zip(lo, hi)]


def _mpmath_digits(base):
    return max(90, 30 + 2 * base.delta * round(-math.log10(1.0 - base.beta)))


@lru_cache(maxsize=None)
def _mpmath_corner(base):
    """``C0 = K[:p, :p]`` of an order-``p`` series kernel to well over 40
    digits, independent of any truncation: the windows ``x_m = (z_m, ..,
    z_{m-p+1})`` of the inverse series obey ``x_{m+1} = A x_m`` with ``A``
    the companion matrix of the operator polynomial, so ``C0 = beta X`` where
    ``X = e1 e1' + beta A X A'`` (a Stein equation, solved at 90 digits).
    Rows ``i >= 1`` of the equation read ``X[i, j] = beta X[i-1, j-1]``, so
    ``X[i, j] = beta^min(i, j) x[|i - j|]`` and row 0 leaves ``p`` equations
    in ``x``, which lose about ``2 p log10(1 / (1 - beta))`` digits; 90 keep
    30 or more up to ``beta = 0.999``, and nearer 1 the precision grows."""
    mp = pytest.importorskip("mpmath")
    p = base.delta
    with mp.workdps(_mpmath_digits(base)):
        b = mp.mpf(base.beta)
        a = _mpmath_operator(base)
        row0 = [-a[k + 1] / a[0] for k in range(p)]  # A[0, k]; A[i, k] = [k == i - 1]
        M, rhs = mp.eye(p), mp.zeros(p, 1)
        rhs[0] = 1
        for k, l in itertools.product(range(p), repeat=2):
            M[0, abs(k - l)] -= b * row0[k] * row0[l] * b ** min(k, l)
        for j, k in itertools.product(range(1, p), range(p)):
            M[j, abs(k - j + 1)] -= b * row0[k] * b ** min(k, j - 1)
        x = mp.lu_solve(M, rhs)
        return mp.matrix([[b ** (min(i, j) + 1) * x[abs(i - j)] for j in range(p)]
                          for i in range(p)])


@lru_cache(maxsize=None)
def _mpmath_first_row(base, T):
    """``K[1, 1 .. T]`` of an order-``p`` series kernel: ``r[d] = C0[0, d]``
    for ``d < p`` from the Stein corner, extended at the same precision by the
    operator recursion ``sum_i a_i s[d-i] = 0`` (``d >= p``), which ``s[d] =
    r[d] / beta^d`` obeys because ``a`` annihilates the inverse series."""
    mp = pytest.importorskip("mpmath")
    p = base.delta
    C0 = _mpmath_corner(base)
    with mp.workdps(_mpmath_digits(base)):
        b = mp.mpf(base.beta)
        a = _mpmath_operator(base)
        r = [C0[0, d] for d in range(p)]
        for d in range(p, T):
            r.append(-sum(a[i] * b ** i * r[d - i] for i in range(1, p + 1)) / a[0])
        return np.array([float(v) for v in r[:T]])


FIRST_ROW_CASES = ([(f"TC{p}", None) for p in range(3, MAX_ORDER + 1)]
                   + [(f"DC{p}", a) for p in range(3, MAX_ORDER + 1)
                      for a in (0.0, 0.5, 0.999, 1.0)])


@pytest.mark.parametrize("beta", [0.3, 0.9, 0.99, 0.999])
@pytest.mark.parametrize("name, alpha", FIRST_ROW_CASES,
                         ids=[f"{n}" if a is None else f"{n}-{a}" for n, a in FIRST_ROW_CASES])
def test_first_row_matches_mpmath(name, alpha, beta):
    # the closed Newton-difference rows against the 90-digit Stein corner and
    # recursion; alpha = 0.999 is where a monomial form of DC's would cancel
    sp = spec(name, beta=beta, **({} if alpha is None else {"alpha": alpha}))
    T = 200
    want = _mpmath_first_row(sp, T)
    np.testing.assert_allclose(build_kernel(sp, T)[0], want, rtol=1e-14, atol=0)
    for short in (1, 2, 3):
        np.testing.assert_allclose(build_kernel(sp, short)[0], want[:short], rtol=1e-14, atol=0)
    assert leading_variance.__wrapped__(sp) == pytest.approx(want[0], rel=1e-14, abs=0)


@pytest.mark.parametrize(
    "sp",
    [spec("TC3", beta=0.9), spec("DC3", beta=0.95, alpha=0.3),
     spec("TC6", beta=0.8), spec("HC3", beta=0.9, alpha=0.6)],
    ids=lambda s: s.to_kv(),
)
def test_series_kernel_shift_identity(sp):
    # exponential convexity: K[t+1, s+1] = beta * K[t, s]
    K = build_kernel(sp, 40)
    np.testing.assert_allclose(K[1:, 1:], sp.beta * K[:-1, :-1], rtol=1e-14, atol=0)


def _clear_caches():
    for cache in (kernels._series, kernels._cached_factor, leading_variance,
                  kernels._binomials, kernels._grid, kernels._band_index):
        cache.cache_clear()


def test_series_loops_are_bounded(monkeypatch):
    # a zero tolerance never certifies: the one series that remains, the
    # corner's, must give up after its fixed number of doublings instead of
    # growing without end
    _clear_caches()
    dc = spec("DC3", beta=0.9, alpha=0.5)
    inverse_cholesky(dc, 10)  # its corner certifies at the documented tolerance
    monkeypatch.setattr(kernels, "_SERIES_TOL", 0.0)
    for sp in (spec("TC3", beta=0.9), spec("DC3", beta=0.8, alpha=0.5)):
        with pytest.raises(ConditioningError, match="does not certify"):
            inverse_cholesky(sp, 10)
        # rows and leading variances are closed forms: no series to bound
        assert np.all(np.isfinite(build_kernel(sp, 10))) and leading_variance.__wrapped__(sp) > 0


@pytest.mark.parametrize(
    "name, kw, call",
    [("TC3", {}, "inverse_cholesky(sp, 8)"), ("TC6", {}, "inverse_cholesky(sp, 8)"),
     ("DC3", {"alpha": 0.5}, "inverse_cholesky(sp, 8)")],
    ids=["TC3-factor", "TC6-factor", "DC3-factor"],
)
def test_series_near_unit_decay_is_refused_by_length(name, kw, call):
    # at beta = 1 - 1e-7 a series would start at ~5e8 terms; it must be
    # refused before any attempt, not exhaust memory or the clock
    code = (
        "import sys\n"
        "from stablekern.errors import StableKernError\n"
        "from stablekern.kernels import (KernelSpec, build_kernel, inverse_cholesky,\n"
        "                                leading_variance)\n"
        f"sp = KernelSpec.from_name({name!r}, beta=1 - 1e-7, **{kw!r})\n"
        "try:\n"
        f"    {call}\n"
        "except StableKernError as exc:\n"
        "    sys.exit(f'error: {exc}')\n"
    )
    src = str(Path(stablekern.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert done.returncode == 1, done.stderr
    assert done.stderr.startswith("error:") and "series terms" in done.stderr


@pytest.mark.parametrize(
    "name, kw, beta",
    [("TC3", {}, 1 - 1e-7), ("TC6", {}, 1 - 1e-7), ("DC3", {"alpha": 0.5}, 1 - 1e-7),
     ("DC6", {"alpha": 0.5}, 1 - 1e-7), ("DC3", {"alpha": 0.5}, 1e-30),
     ("DC6", {"alpha": 0.5}, 1e-30)],
    ids=["TC3", "TC6", "DC3", "DC6", "DC3-tiny", "DC6-tiny"],
)
def test_closed_form_rows_need_no_series_near_unit_decay(name, kw, beta):
    # where the corner's series is refused by length, the rows are still
    # closed forms, and so they are where beta^n underflows
    sp = spec(name, beta=beta, **kw)
    want = _mpmath_first_row(sp, 5)
    np.testing.assert_allclose(build_kernel(sp, 5)[0], want, rtol=1e-14, atol=0)
    assert leading_variance.__wrapped__(sp) == pytest.approx(want[0], rel=1e-14, abs=0)


@pytest.mark.parametrize(
    "sp", [spec("TC3", beta=0.999), spec("TC6", beta=0.999), spec("DC6", beta=0.999, alpha=0.5)],
    ids=lambda s: s.to_kv(),
)
def test_series_length_bound_leaves_room_at_the_fitting_box_edge(sp):
    # the fitting box ends at beta = 0.999; series up to order 6 may still
    # double four times there before the length bound
    assert kernels._start_length(sp) * 2 ** 4 <= kernels._MAX_SERIES_TERMS


@pytest.mark.parametrize("beta", [0.35, 0.6, 0.8, 0.92, 0.975])
@pytest.mark.parametrize(
    "name, kw",
    [("TC3", {}), ("TC4", {}), ("TC5", {}), ("TC6", {}),
     ("DC3", {"alpha": 0.5}), ("DC6", {"alpha": 0.5})],
    ids=["TC3", "TC4", "TC5", "TC6", "DC3", "DC6"],
)
def test_series_certify_at_their_first_length(monkeypatch, name, kw, beta):
    # the start length allows for the binomial growth of the inverse
    # series, so no query pays for a failed attempt; from cleared caches a
    # spec runs one series, the corner's
    attempts = []
    certified = kernels._certified

    def counting(spec_, attempt, what):
        def counted(n):
            out = attempt(n)
            attempts.append((what, out is not None))
            return out
        return certified(spec_, counted, what)

    monkeypatch.setattr(kernels, "_certified", counting)
    _clear_caches()
    sp = spec(name, beta=beta, **kw)
    try:
        inverse_cholesky(sp, 50)
    except ConditioningError as exc:
        assert "backward error" in str(exc)  # refused after its one attempt
    leading_variance.__wrapped__(sp)
    build_kernel(sp, 50)
    assert [ok for _, ok in attempts] == [True], attempts


@pytest.mark.parametrize(
    "sp",
    [spec("TC3", beta=0.9), spec("TC10", beta=0.999), spec("HF6", beta=0.5),
     spec("DC3", beta=0.9, alpha=0.5), spec("DC10", beta=0.999, alpha=1.0),
     spec("HC6", beta=0.5, alpha=0.3), spec("DC", beta=0.1, alpha=-2.0)],
    ids=lambda s: s.to_kv(),
)
def test_rows_and_leading_variances_run_no_series(monkeypatch, sp):
    # from cleared caches, a kernel and its leading variance are closed forms:
    # only the factor's corner reaches the certified series
    attempts = []
    monkeypatch.setattr(kernels, "_certified", lambda *args: attempts.append(args))
    _clear_caches()
    build_kernel(sp, 50)
    leading_variance(sp)
    assert attempts == []


PURITY_SPECS = [spec("TC3", beta=0.999), spec("DC3", beta=0.999, alpha=0.5),
                spec("HC3", beta=0.999, alpha=0.5), spec("DC6", beta=0.999, alpha=0.5)]


def test_series_memo_is_a_pure_function_of_the_spec():
    # every output, and every refusal (DC6's corner), is the same to the last
    # bit whatever T, query order and entry point first filled the memo (HC3
    # shares DC3's entry; the reverse run asks for the leading variances first,
    # which leave it empty)
    runs = []
    for order in (PURITY_SPECS, PURITY_SPECS[::-1]):
        _clear_caches()
        dims = (200, 50) if order is PURITY_SPECS else (50, 200)
        if order is not PURITY_SPECS:
            for sp in order:
                leading_variance(sp)
        runs.append({(sp, T): _outputs(sp, T) for T in dims for sp in order})
    assert runs[0] == runs[1]


CORNER_CASES = [("TC3", {}), ("TC4", {}), ("TC5", {}), ("TC6", {}),
                ("DC3", {"alpha": 0.5}), ("DC6", {"alpha": 0.5}), ("HC3", {"alpha": 0.5})]


@pytest.mark.parametrize("beta", [0.3, 0.5, 0.7, 0.8, 0.9, 0.95, 0.98, 0.99, 0.999,
                                  0.985, 0.993, 0.996, 0.997, 0.9985])
@pytest.mark.parametrize("name, kw", CORNER_CASES, ids=[n for n, _ in CORNER_CASES])
def test_series_corner_matches_mpmath_or_is_refused(name, kw, beta):
    # the trailing corner L22 of the factor must satisfy L22' K22 L22 = I to
    # the documented tolerance, with K22 = beta^(T-p) C0 from the mpmath
    # oracle; build_inverse is refused exactly where the factor is (DC6 at
    # beta = 0.95, T = 50 once returned an inverse with an eigenvalue of
    # -6.5e-5 of the largest where the factor refused), and where it returns
    # it is exactly symmetric with exact zeros off the band
    mp = pytest.importorskip("mpmath")
    sp = spec(name, beta=beta, **kw)
    p = sp.bandwidth
    C0 = _mpmath_corner(sp.base())
    assert maxrel(np.array(C0.tolist(), dtype=float), build_kernel(sp.base(), p)) < 1e-13
    for T in (50, 200):
        try:
            L22 = inverse_cholesky(sp, T).to_dense()[T - p :, T - p :]
        except ConditioningError as exc:
            assert "backward error" in str(exc)
            with pytest.raises(ConditioningError, match="backward error"):
                build_inverse(sp, T)
            continue
        s = (-1.0) ** np.arange(T - p, T) if sp.sign_flipped else np.ones(p)
        with mp.workdps(60):
            K22 = mp.mpf(sp.beta) ** (T - p) * C0
            L = mp.matrix((L22 * s[:, None] * s[None, :]).tolist())
            E = np.array((L.T * K22 * L - mp.eye(p)).tolist(), dtype=float)
        assert np.linalg.norm(E, 2) <= kernels._CORNER_TOL, (T, np.linalg.norm(E, 2))
        Kinv = build_inverse(sp, T)
        np.testing.assert_array_equal(Kinv, Kinv.T)
        t = np.arange(T)
        assert np.all(Kinv[np.abs(np.subtract.outer(t, t)) > p] == 0.0)


@pytest.mark.parametrize("T", [25, 50])
@pytest.mark.parametrize("beta", [0.5, 0.8])
@pytest.mark.parametrize(
    "name, kw", [("TC4", {}), ("TC5", {}), ("TC6", {}), ("DC6", {"alpha": 0.5})],
    ids=["TC4", "TC5", "TC6", "DC6"],
)
def test_series_factor_matches_dense_oracles(name, kw, beta, T):
    # the trailing factor comes from one QR of the series windows and a
    # triangular inverse.  cond(K) exceeds 1e10 at every point here, mostly from the
    # beta**t grading of the diagonal, so the identity is checked on the
    # equilibrated W = S^-1 K S^-1 (S = sqrt(diag K)), as W (S L L' S) = I,
    # at the forward-error bound T * cond(W) * eps
    sp = spec(name, beta=beta, **kw)
    K = build_kernel(sp, T)
    s = np.sqrt(np.diag(K))
    W = K / np.outer(s, s)
    cond = np.linalg.cond(W)
    if not cond < 1e10:
        pytest.skip(f"cond(W) = {cond:.1e}: no dense oracle")
    tol = T * cond * np.finfo(float).eps
    F = inverse_cholesky(sp, T)
    SL = s[:, None] * F.to_dense()
    assert np.max(np.abs(W @ SL @ SL.T - np.eye(T))) <= tol
    ld_oracle = 2.0 * np.sum(np.log(np.diag(dense_cholesky(K, lower=True))))
    assert abs(F.logdet_K - ld_oracle) <= tol * max(1.0, abs(ld_oracle))


@pytest.mark.parametrize(
    "sp, T, fits",
    [(spec("DI", beta=1.5e-238), 5, 1), (spec("DC", beta=4e-121, alpha=1.0), 3, 2),
     (spec("TC", beta=5e-4), 200, 50), (spec("TC", beta=1e-3), 200, 100),
     (spec("HF4", beta=1e-3), 200, 100)],
    ids=["DI", "DC", "TC-5e-4", "TC-1e-3", "HF4"],
)
def test_factor_past_the_largest_double_is_refused(sp, T, fits):
    # L carries beta^(-T/2) and L L' its square: where either would overflow
    # the factor and the inverse are refused, while the kernel stays finite;
    # a smaller dimension still fits
    for call in (inverse_cholesky, build_inverse):
        with pytest.raises(ConditioningError, match="largest double"):
            call(sp, T)
    assert np.all(np.isfinite(build_kernel(sp, T)))
    assert np.all(np.isfinite(inverse_cholesky(sp, fits).bands))
    assert np.all(np.isfinite(build_inverse(sp, fits)))


def test_ss_factor_needs_only_a_finite_l():
    # SS forms no L L^T: its dense factor at gamma = 0.3, T = 200 peaks at 1.4e157
    assert np.all(np.isfinite(inverse_cholesky(spec("SS", gamma=0.3), 200).bands))


@pytest.mark.parametrize("bandwidth", [0, 1, 2, 4, 8])
def test_to_dense_matches_per_band_construction(bandwidth):
    # bands 0, 1, 2, an order p and the dense T - 1 of SS
    T = 9
    bands = np.random.default_rng(bandwidth).normal(size=(bandwidth + 1, T))
    for d in range(bandwidth + 1):
        bands[d, T - d :] = 0.0  # padding past dim - d
    want = np.zeros((T, T))
    for d in range(bandwidth + 1):
        want += np.diag(bands[d, : T - d], -d)
    F = BandedFactor(T, bandwidth, bands, 0.0)
    np.testing.assert_array_equal(F.to_dense(), want)
    row, col, values = F.entries()
    np.testing.assert_array_equal(want[row, col], values)
    assert row.size == sum(T - d for d in range(bandwidth + 1))


# ---------------------------------------------------------------------------
# Validation and serialization
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "kw",
    [
        dict(family="TC", beta=1.0),
        dict(family="TC", beta=0.0),
        dict(family="TC"),
        dict(family="DC", beta=0.5, alpha=1.5),
        dict(family="DC", beta=0.5),
        dict(family="DCd", beta=0.5, alpha=-0.1, delta=2),
        dict(family="DCd", beta=0.5, alpha=0.5, delta=0),
        dict(family="SS", gamma=1.2),
        dict(family="SS", gamma=0.5, beta=0.5),
        dict(family="TC", beta=0.5, gamma=0.5),
        dict(family="XX", beta=0.5),
        dict(family="TCd", beta=0.5),
        dict(family="TCd", beta=0.5, delta=True),
    ],
)
def test_spec_validation_rejects(kw):
    with pytest.raises(ParameterError):
        KernelSpec(**kw)


def test_order_is_capped():
    assert build_kernel(KernelSpec("TCd", beta=0.5, delta=MAX_ORDER), 4).shape == (4, 4)
    for delta in (MAX_ORDER + 1, 1100):
        with pytest.raises(ParameterError, match="MAX_ORDER"):
            KernelSpec("TCd", beta=0.5, delta=delta)
        with pytest.raises(ParameterError, match="MAX_ORDER"):
            spec(f"DC{delta}", beta=0.5, alpha=0.5)


def test_dc_alpha_bound_tracks_beta():
    KernelSpec("DC", beta=0.5, alpha=1.3)  # 1.3 < 0.5**-0.5 ~ 1.414
    with pytest.raises(ParameterError):
        KernelSpec("DC", beta=0.8, alpha=1.3)


@pytest.mark.parametrize(
    "name, family, delta",
    [
        ("TC", "TC", None),
        ("TC2", "TCd", 2),
        ("TC6", "TCd", 6),
        ("DC3", "DCd", 3),
        ("HF", "HFd", 1),
        ("HF4", "HFd", 4),
        ("HC", "HCd", 1),
    ],
)
def test_from_name_parsing(name, family, delta):
    kw = {"beta": 0.5}
    if family in ("DC", "DCd", "HCd"):
        kw["alpha"] = 0.5
    sp = KernelSpec.from_name(name, **kw)
    assert sp.family == family and sp.delta == delta


# (name, delta) -> (family, delta), or None where the pair is refused
NAME_TABLE = [
    (("DI", None), ("DI", None)),
    (("SS", None), ("SS", None)),
    (("TC", None), ("TC", None)),
    (("DC", None), ("DC", None)),
    (("TC", 1), ("TCd", 1)),
    (("TC1", None), ("TCd", 1)),
    (("TC1", 1), ("TCd", 1)),
    (("DC1", None), ("DCd", 1)),
    (("TC2", 2), ("TCd", 2)),
    (("DC", 3), ("DCd", 3)),
    (("TC10", None), ("TCd", 10)),
    (("HF", None), ("HFd", 1)),
    (("HF", 1), ("HFd", 1)),
    (("HF3", None), ("HFd", 3)),
    (("HC", 2), ("HCd", 2)),
    (("TCd", 3), ("TCd", 3)),
    (("DCd", 1), ("DCd", 1)),
    (("HFd", 1), ("HFd", 1)),
    (("HCd", 4), ("HCd", 4)),
    (("TCd", None), None),
    (("HFd", None), None),
    (("TC3", 4), None),
    (("HF2", 1), None),
    (("DI", 2), None),
    (("DI3", None), None),
    (("SS2", None), None),
    (("SS", 1), None),
    (("TC0", None), None),
    (("HF0", None), None),
    (("TCd", 0), None),
    (("TC11", None), None),
    (("TCd", 11), None),
    (("TCd3", None), None),
    (("XX", None), None),
    (("tc2", None), None),
]


@pytest.mark.parametrize("given, want", NAME_TABLE, ids=[f"{n}-{d}" for (n, d), _ in NAME_TABLE])
def test_name_table(given, want):
    # the parser, from_name and from_kv read every name alike
    name, delta = given
    kw = {"gamma": 0.5} if name.startswith("SS") else {"beta": 0.5}
    if name[:2] in ("DC", "HC"):
        kw["alpha"] = 0.5
    kv = f"family={name}" + ("" if delta is None else f" delta={delta}")
    kv += "".join(f" {k}={v}" for k, v in kw.items())
    if want is None:
        for call in (lambda: parse_family(name, delta),
                     lambda: KernelSpec.from_name(name, delta=delta, **kw),
                     lambda: KernelSpec.from_kv(kv)):
            with pytest.raises(ParameterError):
                call()
        return
    assert parse_family(name, delta) == want
    family, order = want
    expected = KernelSpec(family, delta=order, **kw)
    assert KernelSpec.from_name(name, delta=delta, **kw) == expected
    assert KernelSpec.from_kv(kv) == expected
    assert KernelSpec.from_kv(expected.to_kv()) == expected


@pytest.mark.parametrize("bad", ["TCX", "SS2", "DI3", "", "tc2 "])
def test_from_name_rejects(bad):
    with pytest.raises(ParameterError):
        KernelSpec.from_name(bad, beta=0.5)


def test_kv_round_trip():
    specs = [
        spec("TC", beta=0.8),
        spec("DC", beta=0.7, alpha=-0.3),
        spec("TC2", beta=0.8),
        spec("DC5", beta=0.9, alpha=0.1),
        spec("HF", beta=0.25),
        spec("SS", gamma=0.95),
    ]
    for sp in specs:
        assert KernelSpec.from_kv(sp.to_kv()) == sp
    # documented example form
    assert KernelSpec.from_kv("family=TC2 beta=0.8") == spec("TC2", beta=0.8)
    assert KernelSpec.from_kv("family=TC2 beta=0.8 delta=2") == spec("TC2", beta=0.8)


def test_kv_rejects_malformed():
    with pytest.raises(ParameterError):
        KernelSpec.from_kv("family=TC beta")
    with pytest.raises(ParameterError):
        KernelSpec.from_kv("beta=0.5")
    with pytest.raises(ParameterError):
        KernelSpec.from_kv("family=TC beta=0.5 rho=2")
    with pytest.raises(ParameterError):
        KernelSpec.from_kv("family=TC3 beta=0.5 delta=4")


@pytest.mark.parametrize("text, key, value", [
    ("family=TC beta=x", "beta", "x"),
    ("family=DC beta=0.5 alpha=-", "alpha", "-"),
    ("family=SS gamma=0,5", "gamma", "0,5"),
    ("family=TC2 delta=two beta=0.5", "delta", "two"),
    ("family=TCd delta=2.0 beta=0.5", "delta", "2.0"),
])
def test_kv_rejects_non_numeric_values(text, key, value):
    with pytest.raises(ParameterError, match=f"{key}='{value}'"):
        KernelSpec.from_kv(text)


def test_matrix_csv_round_trip():
    M = build_kernel(spec("TC2", beta=0.7), 5)
    buf = io.StringIO()
    matrix_to_csv(M, buf)
    buf.seek(0)
    back = matrix_from_csv(buf)
    np.testing.assert_allclose(back, M, rtol=1e-15)
    assert "e-" in buf.getvalue() or "e+" in buf.getvalue()


def test_ss_has_no_banded_inverse():
    with pytest.raises(DecompositionError):
        build_inverse(spec("SS", gamma=0.5), 4)


def test_dimension_guards():
    with pytest.raises(DimensionError):
        build_kernel(spec("TC", beta=0.5), 0)
    with pytest.raises(DimensionError):
        inverse_cholesky(spec("TC4", beta=0.5), 4)  # needs T >= 6
