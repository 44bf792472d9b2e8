"""Estimator tests: regressor assembly, the two likelihood routes, the
regularized solver, noise-variance estimation, and hyperparameter fitting.

The central check is the cross-implementation identity between the direct
O(N^3) likelihood and the QR route; each is also pinned independently to
hand-derived special cases.
"""

import io
import itertools
import json
import math
import warnings

import numpy as np
import pytest
from scipy.linalg import solve_triangular
from scipy.optimize import minimize

from stablekern import estimator, kernels, simulation
from stablekern.errors import (
    ConditioningError,
    DecompositionError,
    DimensionError,
    OptimizationError,
    ParameterError,
    StableKernError,
)
from stablekern.estimator import (
    Dataset,
    EstimateResult,
    build_regressor,
    estimate_sigma2,
    fit_hyperparameters,
    nll_direct,
    nll_qr,
    rls_estimate,
)
from stablekern.kernels import (
    BandedFactor,
    KernelSpec,
    build_kernel,
    inverse_cholesky,
    leading_variance,
    parse_family,
)

import oracle


def spec(name, **kw):
    return KernelSpec.from_name(name, **kw)


# ---------------------------------------------------------------------------
# regression matrix
# ---------------------------------------------------------------------------

def test_regressor_impulse_and_step():
    np.testing.assert_array_equal(
        build_regressor([1, 0, 0], 3, 2), [[0, 0], [1, 0], [0, 1]]
    )
    np.testing.assert_array_equal(
        build_regressor([1, 1, 1], 3, 3), [[0, 0, 0], [1, 0, 0], [1, 1, 0]]
    )


def test_regressor_matches_direct_convolution():
    rng = np.random.default_rng(0)
    u = rng.normal(size=30)
    g = rng.normal(size=7)
    A = build_regressor(u, 30, 7)
    direct = np.zeros(30)
    for t in range(1, 31):
        direct[t - 1] = sum(
            g[k - 1] * u[t - k - 1] for k in range(1, 8) if t - k >= 1
        )
    np.testing.assert_allclose(A @ g, direct, rtol=1e-13)


def test_regressor_flags_underdetermined_and_rejects_short_input():
    with pytest.warns(RuntimeWarning):
        build_regressor(np.ones(3), 3, 5)
    with pytest.raises(DimensionError):
        build_regressor(np.ones(3), 5, 2)


# ---------------------------------------------------------------------------
# regularized least squares
# ---------------------------------------------------------------------------

@pytest.fixture()
def small_problem():
    rng = np.random.default_rng(42)
    N, T = 40, 8
    u = rng.normal(size=N)
    A = build_regressor(u, N, T)
    y = rng.normal(size=N)
    K = build_kernel(spec("TC2", beta=0.7), T)
    return A, y, K


def test_rls_zero_output_gives_zero(small_problem):
    A, _, K = small_problem
    g = rls_estimate(A, np.zeros(A.shape[0]), K, 1.0, 1.0)
    np.testing.assert_array_equal(g, np.zeros(A.shape[1]))


def test_rls_reduces_to_ls_when_penalty_vanishes(small_problem):
    A, y, K = small_problem
    gls, *_ = np.linalg.lstsq(A, y, rcond=None)
    g = rls_estimate(A, y, K, 1.0, 1e-12)
    assert np.max(np.abs(g - gls)) < 1e-6


def test_rls_agrees_with_dual_form(small_problem):
    A, y, K = small_problem
    lam, s2 = 2.5, 0.4
    g = rls_estimate(A, y, K, lam, s2)
    N = A.shape[0]
    dual = lam * K @ A.T @ np.linalg.solve(lam * A @ K @ A.T + s2 * np.eye(N), y)
    assert np.max(np.abs(g - dual)) / np.max(np.abs(dual)) < 1e-8


def test_rls_accepts_banded_factor(small_problem):
    A, y, K = small_problem
    F = inverse_cholesky(spec("TC2", beta=0.7), A.shape[1])
    g1 = rls_estimate(A, y, K, 1.5, 0.2)
    g2 = rls_estimate(A, y, F, 1.5, 0.2)
    np.testing.assert_allclose(g1, g2, rtol=1e-9)


def test_rls_rejects_indefinite_kernel(small_problem):
    A, y, _ = small_problem
    bad = -np.eye(A.shape[1])
    with pytest.raises(DecompositionError):
        rls_estimate(A, y, bad, 1.0, 1.0)
    with pytest.raises(ParameterError):
        rls_estimate(A, y, np.eye(A.shape[1]), -1.0, 1.0)


# ---------------------------------------------------------------------------
# likelihood routes
# ---------------------------------------------------------------------------

def test_nll_direct_zero_regressor():
    rng = np.random.default_rng(1)
    y = rng.normal(size=12)
    A = np.zeros((12, 4))
    K = build_kernel(spec("TC", beta=0.5), 4)
    v = nll_direct(y, A, K, 1.0, 0.7)
    assert v == pytest.approx(12 * np.log(0.7) + y @ y / 0.7, rel=1e-12)


def test_nll_direct_small_lambda_limit(small_problem):
    A, y, K = small_problem
    N = A.shape[0]
    want = N * np.log(0.3) + y @ y / 0.3
    assert nll_direct(y, A, K, 1e-14, 0.3) == pytest.approx(want, abs=1e-6)


def test_nll_qr_zero_regressor_reduction():
    rng = np.random.default_rng(2)
    y = rng.normal(size=15)
    A = np.zeros((15, 5))
    F = inverse_cholesky(spec("DC2", beta=0.6, alpha=0.3), 5)
    v = nll_qr(y, A, F, 3.7, 0.9)
    assert v == pytest.approx(15 * np.log(0.9) + y @ y / 0.9, rel=1e-12)


def test_nll_routes_agree_on_small_instance():
    rng = np.random.default_rng(3)
    N, T = 8, 3
    u, y = rng.normal(size=N), rng.normal(size=N)
    A = build_regressor(u, N, T)
    sp = spec("TC", beta=0.6)
    v1 = nll_direct(y, A, build_kernel(sp, T), 1.3, 0.5)
    v2 = nll_qr(y, A, inverse_cholesky(sp, T), 1.3, 0.5)
    assert v2 == pytest.approx(v1, rel=1e-10)


def _identity_instances(n_instances, seed):
    """Randomized (spec, N, T, lam, sigma2) instances spanning every family.

    High orders are kept out of the condition-number regime where a kernel
    and its factor can no longer agree at the 1e-8 level in doubles.
    """
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n_instances:
        for N in (5, 20, 100):
            for T in (2, 5, 30):
                fam = rng.choice(
                    ["DI", "TC", "DC", "SS", "TC2", "DC2", "TC3", "DC3",
                     "TC4", "DC4", "TC6", "HF2", "HC3"]
                )
                delta = int(fam[2]) if len(fam) > 2 else (2 if fam[-1] == "2" else 1)
                hi = 0.95 if delta <= 2 else (0.85 if delta <= 4 else 0.6)
                kw = {}
                if fam == "SS":
                    kw["gamma"] = rng.uniform(0.2, hi)
                else:
                    kw["beta"] = rng.uniform(0.2, hi)
                if fam.startswith(("DC", "HC")):
                    lo_a = -0.8 if fam == "DC" else 0.0
                    kw["alpha"] = rng.uniform(lo_a, 1.0)
                sp = KernelSpec.from_name(fam, **kw)
                if sp.bandwidth is not None and sp.bandwidth > 2 and T < sp.bandwidth + 2:
                    continue
                lam = 10 ** rng.uniform(-3, 3) / leading_variance(sp)
                s2 = 10 ** rng.uniform(-2, 1)
                u, y = rng.normal(size=N), rng.normal(size=N)
                out.append((sp, N, T, u, y, lam, s2))
                if len(out) >= n_instances:
                    return out
    return out


def test_nll_identity_randomized_sweep():
    worst = 0.0
    for sp, N, T, u, y, lam, s2 in _identity_instances(40, seed=7):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            A = build_regressor(u, N, T)
        v1 = nll_direct(y, A, build_kernel(sp, T), lam, s2)
        v2 = nll_qr(y, A, inverse_cholesky(sp, T), lam, s2)
        worst = max(worst, abs(v1 - v2) / max(abs(v1), 1.0))
    assert worst < 1e-8


def _reduce(u, y, T):
    return estimator._reduce_data(build_regressor(u, len(y), T), y)


def _study_run(T):
    """Run 1 of study 1 at seed 0 (N = 500), with the default noise variance
    at ``T``."""
    rng = simulation._run_rng(0, 1)
    system = simulation.sample_impulse_response(1, rng, T=50)
    u = simulation.generate_input(500, 0.2, rng)
    y, _ = simulation.simulate_output(system, u, 1.0, rng)
    return Dataset(u, y, sigma2=estimator._default_sigma2(Dataset(u, y), T))


@pytest.mark.parametrize("beta, rtol", [(0.79, 1e-10), (0.9, 1e-9)])
def test_tc6_qr_likelihood_matches_mpmath(beta, rtol):
    # run 1 of study 1 at seed 0, unit-scaled lam = 1, T = 50: the order-6
    # trailing corner once put the QR likelihood off by 8.9e-9 at beta =
    # 0.79 and 1.1e-3 at beta = 0.9
    T = 50
    ds = _study_run(T)
    R0 = _reduce(ds.u, ds.y, T)
    sp = spec("TC6", beta=beta)
    lam = 1.0 / leading_variance(sp)
    got = estimator._nll_from_stack(R0, inverse_cholesky(sp, T), lam, ds.sigma2, ds.n)[0]
    want = oracle.nll(sp, R0, 1.0, ds.sigma2, ds.n)
    assert abs(float((got - want) / want)) <= rtol


@pytest.mark.parametrize("N", [5, 12, 13])
@pytest.mark.parametrize(
    "sp", [spec("TC", beta=0.8), spec("DC2", beta=0.7, alpha=0.4), spec("TC3", beta=0.6),
           spec("SS", gamma=0.7)],
    ids=lambda s: s.to_kv(),
)
def test_nll_qr_matches_direct_with_padded_reduction(sp, N):
    # N < T + 1 leaves the reduced [A y] short of T + 1 rows; it is padded
    # with zero rows before the triangular QR update (T = 12: N = 5, T, T + 1)
    T = 12
    rng = np.random.default_rng(N)
    u, y = rng.normal(size=N), rng.normal(size=N)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        A = build_regressor(u, N, T)
    v1 = nll_direct(y, A, build_kernel(sp, T), 0.7, 0.4)
    v2 = nll_qr(y, A, inverse_cholesky(sp, T), 0.7, 0.4)
    assert v2 == pytest.approx(v1, rel=1e-10)


def test_nll_qr_residual_is_quadratic_in_y(small_problem):
    A, y, _ = small_problem
    F = inverse_cholesky(spec("TC", beta=0.75), A.shape[1])
    v0 = nll_qr(np.zeros_like(y), A, F, 2.0, 0.5)
    v1 = nll_qr(y, A, F, 2.0, 0.5)
    v2 = nll_qr(2.0 * y, A, F, 2.0, 0.5)
    # log-det terms cancel in differences; the residual term scales as c^2
    assert v2 - v0 == pytest.approx(4.0 * (v1 - v0), rel=1e-10)


def test_nll_scaling_invariance(small_problem):
    A, y, _ = small_problem
    T = A.shape[1]
    F = inverse_cholesky(spec("TC2", beta=0.8), T)
    c = 4.0
    scaled = BandedFactor(F.dim, F.bandwidth, F.bands / np.sqrt(c),
                          F.logdet_K + T * np.log(c))
    v1 = nll_qr(y, A, scaled, 0.9, 0.3)   # kernel scaled by c
    v2 = nll_qr(y, A, F, c * 0.9, 0.3)    # lambda scaled by c
    assert v1 == pytest.approx(v2, rel=1e-13)


def test_nll_validation():
    y = np.ones(4)
    A = np.zeros((4, 2))
    F = inverse_cholesky(spec("TC", beta=0.5), 2)
    with pytest.raises(ParameterError):
        nll_qr(y, A, F, -1.0, 1.0)
    with pytest.raises(ParameterError):
        nll_direct(y, A, np.eye(2), 1.0, 0.0)
    with pytest.raises(DimensionError):
        nll_qr(y, np.zeros((4, 3)), F, 1.0, 1.0)


# ---------------------------------------------------------------------------
# noise variance estimation
# ---------------------------------------------------------------------------

def test_sigma2_exact_fir_fit():
    rng = np.random.default_rng(4)
    u = rng.normal(size=400)
    g = 0.6 ** np.arange(1, 9)
    y = build_regressor(u, 400, 8) @ g
    assert estimate_sigma2(u, y, order=8) < 1e-20


def test_sigma2_pure_noise_accuracy():
    rng = np.random.default_rng(5)
    true = 0.09
    fails = 0
    vals = []
    for _ in range(100):
        u = rng.normal(size=500)
        y = rng.normal(scale=np.sqrt(true), size=500)
        s2 = estimate_sigma2(u, y)
        vals.append(s2)
        if abs(s2 - true) > 0.2 * true:
            fails += 1
    # 20% is ~2.6 sampling stds at this order; a few excursions are expected
    assert fails <= 5
    assert np.mean(vals) == pytest.approx(true, rel=0.05)


def test_sigma2_quadruples_when_noise_doubles():
    rng = np.random.default_rng(6)
    u = rng.normal(size=300)
    e = rng.normal(size=300)
    s1 = estimate_sigma2(u, e, order=10)
    s4 = estimate_sigma2(u, 2.0 * e, order=10)
    assert s4 == pytest.approx(4.0 * s1, rel=1e-12)


def test_sigma2_requires_enough_samples():
    with pytest.raises(DimensionError):
        estimate_sigma2(np.ones(5), np.ones(5), order=5)


# ---------------------------------------------------------------------------
# hyperparameter fitting
# ---------------------------------------------------------------------------

def _synthetic_dataset(seed=12, N=200, T=20, snr=20.0):
    rng = np.random.default_rng(seed)
    u = rng.normal(size=N)
    t = np.arange(1, T + 1)
    g = 2.5 * np.cos(0.4 * t) * 0.85 ** t
    clean = build_regressor(u, N, T) @ g
    s2 = np.var(clean) / snr
    y = clean + rng.normal(scale=np.sqrt(s2), size=N)
    return Dataset(u, y, sigma2=s2), g


def test_fit_never_loses_to_truth():
    ds, _ = _synthetic_dataset()
    lam0, beta0 = 1.0, 0.85
    res = fit_hyperparameters(ds, "TC", T=20, seeds=[(lam0, beta0)])
    A = build_regressor(ds.u, ds.n, 20)
    truth = nll_qr(ds.y, A, inverse_cholesky(spec("TC", beta=beta0), 20),
                   lam0 / leading_variance(spec("TC", beta=beta0)), ds.sigma2)
    assert res.nll <= truth


def test_fit_refit_is_bit_identical():
    ds, _ = _synthetic_dataset()
    res = fit_hyperparameters(ds, "DC", T=15)
    seed_pt = (res.lam, res.spec.beta, res.spec.alpha)
    res2 = fit_hyperparameters(ds, "DC", T=15, seeds=[seed_pt],
                               use_default_grid=False)
    assert res2.nll == res.nll
    assert res2.lam == res.lam
    assert res2.spec == res.spec
    np.testing.assert_array_equal(res2.g_hat, res.g_hat)


FITTED_FAMILIES = ("DI", "TC", "DC", "SS", "TC2", "DC2", "TC3", "DC3", "TC6")


def _likelihood(name, ds, T=20):
    return estimator._Likelihood(ds, parse_family(name), T, ds.sigma2)


def _central_difference(f, z, h=1e-4):
    """Five-point central difference of ``f`` at ``z``, one coordinate at a
    time."""
    grad = np.empty(len(z))
    for i in range(len(z)):
        e = np.zeros(len(z))
        e[i] = h
        grad[i] = (f(z - 2 * e) - 8 * f(z - e) + 8 * f(z + e) - f(z + 2 * e)) / (12 * h)
    return grad


# five interior box points per family: (z_lam, z_decay[, z_alpha]), at
# decays 0.12, 0.27, 0.38, 0.80 and 0.95
GRADIENT_POINTS = ((-0.5, -2.0, -0.8), (0.3, -1.0, 0.4), (1.0, -0.5, 1.2), (-0.2, 1.39, 0.3),
                   (0.6, 2.96, -0.5))


def _qr_value(like, ds):
    """The likelihood of ``like`` in box coordinates by the paper's route:
    :func:`nll_qr` on the banded factor at ``lam / K[1, 1]``."""
    A = build_regressor(ds.u, ds.n, like.T)

    def f(z):
        values = like.transform.from_z(z)
        sp = like.spec(values)
        return nll_qr(ds.y, A, inverse_cholesky(sp, like.T), values[0] / leading_variance(sp),
                      like.sigma2)

    return f


@pytest.mark.parametrize("name", FITTED_FAMILIES)
def test_likelihood_gradient_matches_differences(name):
    # the reference differences the QR value, whose rounding is smoother
    # than that of lam R K~ R' + sigma2 I (DC3 at the last point: 3.3e-6
    # against 3.7e-7 at most here)
    ds, _ = _synthetic_dataset()
    like = _likelihood(name, ds)
    d = len(like.transform.names)
    for point in GRADIENT_POINTS:
        z = np.array(point[:d])
        f, grad = like.value_and_grad(z)
        ref = _central_difference(_qr_value(like, ds), z)
        assert np.isfinite(f)
        np.testing.assert_allclose(grad, ref, rtol=1e-6, atol=0)


@pytest.mark.parametrize("name", FITTED_FAMILIES)
def test_likelihood_value_with_gradient_is_the_evaluated_value(name):
    # value_and_grad, the seed grid and the returned estimate share one
    # core: the values must agree to the bit, or refits would not repeat
    ds, _ = _synthetic_dataset()
    like = _likelihood(name, ds)
    d = len(like.transform.names)
    for point in GRADIENT_POINTS:
        z = np.array(point[:d])
        assert like.value_and_grad(z)[0] == like.evaluate(like.transform.from_z(z))[0]


@pytest.mark.parametrize("name", FITTED_FAMILIES)
def test_fit_agrees_with_the_direct_likelihood_and_estimate(name):
    # the returned nll and g_hat come from the tuner's core; at the returned
    # (lam, spec) they are the N x N likelihood and the stacked least-squares
    # estimate, which the Monte Carlo benchmark checks its fits against
    ds, _ = _synthetic_dataset()
    T = 20
    res = fit_hyperparameters(ds, name, T=T)
    A = build_regressor(ds.u, ds.n, T)
    K = build_kernel(res.spec, T)
    lam = res.lam / leading_variance(res.spec)
    assert res.nll == pytest.approx(nll_direct(ds.y, A, K, lam, res.sigma2), rel=1e-10, abs=0)
    want = rls_estimate(A, ds.y, K, lam, res.sigma2)
    assert np.abs(res.g_hat - want).max() <= 1e-8 * np.abs(want).max()


@pytest.mark.parametrize("N", [5, 12, 13])
@pytest.mark.parametrize("name", ["TC", "DC2", "TC3", "SS"])
def test_likelihood_matches_direct_with_padded_reduction(name, N):
    # N < T + 1 pads the reduced [A y] with zero rows, as for nll_qr
    T = 12
    rng = np.random.default_rng(N)
    u, y = rng.normal(size=N), rng.normal(size=N)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        like = _likelihood(name, Dataset(u, y, sigma2=0.4), T=T)
        A = build_regressor(u, N, T)
    values = [0.7, 0.6] + ([0.4] if name.startswith("DC") else [])
    nll, sp = like.evaluate(values)[:2]
    want = nll_direct(y, A, build_kernel(sp, T), 0.7 / leading_variance(sp), 0.4)
    assert nll == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("beta", [0.79, 0.9, 0.99])
def test_tc6_unit_likelihood_matches_mpmath(beta):
    # the data of test_tc6_qr_likelihood_matches_mpmath; the tuner's core
    # needs no trailing corner, so it holds where the factor is refused too
    # (beta = 0.99; measured: at most 6.3e-16)
    T = 50
    ds = _study_run(T)
    got = _likelihood("TC6", ds, T=T).evaluate([1.0, beta])[0]
    want = oracle.nll(spec("TC6", beta=beta), _reduce(ds.u, ds.y, T), 1.0, ds.sigma2, ds.n)
    assert abs(float((got - want) / want)) <= 1e-13


@pytest.mark.parametrize("name", [*FITTED_FAMILIES, "HF2", "HC3"])
def test_unit_likelihood_matches_mpmath_across_the_box(name):
    # the tuner's core against the oracle over the box, decay 1e-3 .. 0.999,
    # alpha 1e-6 .. 1 - 1e-6 and lam 1e-4 .. 1e4, to the rounding the core
    # meets: eps |NLL| for the sums, T cond2(S) eps for the Cholesky of S,
    # and eps lam sum |P o K~| for the rounding of the kernel's entries, which
    # moves the NLL by lam sum P o dK~.  The first two alone do not hold: at
    # HC3, lam = 1e4, beta = 0.999, alpha = 1e-6 the error is 161 eps (|NLL|
    # + T cond2(S)) (measured: at most 0.68 eps times the whole scale)
    T = 12
    ds = _study_run(T)
    R0 = _reduce(ds.u, ds.y, T)
    like = _likelihood(name, ds, T=T)
    alphas = [[1e-6], [0.5], [1 - 1e-6]] if "alpha" in like.transform.names else [[]]
    for decay, alpha, lam in itertools.product([1e-3, 0.5, 0.9, 0.999], alphas, [1e-4, 1, 1e4]):
        got, sp, K, C, v = like.evaluate([lam, decay, *alpha])
        V = solve_triangular(C, like.R, lower=True)
        w = V.T @ v
        P = V.T @ V - np.outer(w, w)
        scale = abs(got) + T * np.linalg.cond(C) ** 2 + lam * np.abs(P * K).sum()
        err = abs(got - float(oracle.nll(sp, R0, lam, ds.sigma2, ds.n)))
        assert err <= 8 * np.finfo(float).eps * scale, (sp, lam, err / scale)


@pytest.mark.parametrize("name", ["TC3", "DC3"])
def test_cold_gradient_runs_no_certified_series(monkeypatch, name):
    # the likelihood and its gradient read the closed kernel entries alone:
    # the factor's series corner is the paper's route to K^-1, not the tuner's
    calls = []
    real = kernels._certified

    def counted(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(kernels, "_certified", counted)
    kernels._series.cache_clear()
    ds, _ = _synthetic_dataset()
    like = _likelihood(name, ds)
    f, grad = like.value_and_grad(np.array([0.3, 0.2, 0.1][: len(like.transform.names)]))
    assert np.isfinite(f) and np.all(np.isfinite(grad))
    assert calls == []


@pytest.mark.parametrize("name", FITTED_FAMILIES)
def test_fit_is_a_minimum_for_the_simplex(name):
    # a Nelder-Mead restart from the returned point finds nothing better
    ds, _ = _synthetic_dataset()
    res = fit_hyperparameters(ds, name, T=20)
    like = _likelihood(name, ds)
    values = [res.lam, *(getattr(res.spec, n) for n in like.transform.names[1:])]
    polish = minimize(lambda z: like.value_and_grad(z)[0], like.transform.to_z(values),
                      method="Nelder-Mead", options={"xatol": 1e-8, "fatol": 1e-12})
    assert res.nll - polish.fun <= 1e-8 * abs(res.nll)


@pytest.mark.parametrize("name", ["TC3", "DC3", "SS"])
def test_fit_refit_is_bit_identical_for_series_and_dense_factors(name):
    ds, _ = _synthetic_dataset()
    res = fit_hyperparameters(ds, name, T=15)
    like = _likelihood(name, ds, T=15)
    seed = [res.lam, *(getattr(res.spec, n) for n in like.transform.names[1:])]
    res2 = fit_hyperparameters(ds, name, T=15, seeds=[seed], use_default_grid=False)
    assert (res2.nll, res2.lam, res2.spec) == (res.nll, res.lam, res.spec)
    np.testing.assert_array_equal(res2.g_hat, res.g_hat)


def test_refused_points_give_inf_and_their_neighbours_a_gradient():
    # with sigma2 = 1e-6 the rounding of K~ leaves S = lam R K~ R' + sigma2 I
    # indefinite for TC6 at beta = 0.999 above some lam (accepted at z_lam =
    # 0, refused at 20); bisected to within the old difference step of 1e-5,
    # the last accepted point still gets a gradient, as it needs no neighbour
    ds, _ = _synthetic_dataset()
    like = _likelihood("TC6", Dataset(ds.u, ds.y, sigma2=1e-6), T=50)
    lo, hi = 0.0, 20.0
    assert np.isfinite(like.value_and_grad(np.array([lo, 40.0]))[0])
    while hi - lo > 1e-5:
        mid = 0.5 * (lo + hi)
        accepted = np.isfinite(like.value_and_grad(np.array([mid, 40.0]))[0])
        lo, hi = (mid, hi) if accepted else (lo, mid)
    f, grad = like.value_and_grad(np.array([lo, 40.0]))
    assert np.isfinite(f) and np.all(np.isfinite(grad))
    # a refused centre scores (inf, 0), and its refusal names the cause
    f2, none = like.value_and_grad(np.array([hi, 40.0]))
    assert f2 == np.inf and np.array_equal(none, np.zeros(2))
    with pytest.raises(ConditioningError, match="not positive definite"):
        like.evaluate(like.transform.from_z(np.array([hi, 40.0])))
    # the same centre at the dataset's own sigma2 scores a finite value,
    # though the paper's factor refuses its trailing corner there
    like = _likelihood("TC6", ds, T=50)
    f3, grad3 = like.value_and_grad(np.array([0.0, 40.0]))
    assert np.isfinite(f3) and np.all(np.isfinite(grad3))
    with pytest.raises(ConditioningError, match="backward error"):
        inverse_cholesky(like.spec(like.transform.from_z(np.array([0.0, 40.0]))), 50)


def test_fit_past_the_largest_double_finishes_or_is_refused():
    # at T = 300 the seed beta = 1e-3 puts beta^-150 into the factor, which
    # once escaped as a raw OverflowError; now the point is refused like any
    ds, _ = _synthetic_dataset(N=600)
    try:
        res = fit_hyperparameters(ds, "TC", T=300, seeds=[[1.0, 1e-3]], use_default_grid=False)
    except StableKernError:
        return
    assert np.isfinite(res.nll)


def test_fit_runs_through_refused_grid_points_without_warnings():
    # with sigma2 = 1e-10, S = lam R K~ R' + sigma2 I is indefinite to
    # rounding for TC6 at the default grid's lam = 1e4 and beta = 0.92, 0.975
    ds, _ = _synthetic_dataset(N=300)
    ds = Dataset(ds.u, ds.y, sigma2=1e-10)
    like = _likelihood("TC6", ds, T=50)
    refused = 0
    for lam in estimator._DEFAULT_LAMBDA_GRID:
        for beta in estimator._DEFAULT_DECAY_GRID:
            try:
                like.evaluate([lam, beta])
            except ConditioningError:
                refused += 1
    assert 0 < refused < len(estimator._DEFAULT_LAMBDA_GRID) * len(estimator._DEFAULT_DECAY_GRID)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = fit_hyperparameters(ds, "TC6", T=50)
    assert np.isfinite(res.nll)


def _spy_on_steps(monkeypatch, counter):
    """Record, for every BFGS run of the estimator, the calls ``counter[0]``
    counts in each step's line search (the first counting the start point)
    and, last, in the search that ended the run.  The loop is deterministic,
    so the run is replayed with ``maxiter = 1, 2, ...`` until it stops on
    its own, and each step spends the difference of two replays."""
    runs = []
    real = estimator.minimize

    def spy(fun, z0, maxiter):
        spent = []
        for steps in range(1, maxiter + 1):
            counter[0] = 0
            res = real(fun, z0, steps)
            spent.append(counter[0])
            if res.status != 1:
                break
        runs.append(np.diff(spent, prepend=0).tolist())
        return res

    monkeypatch.setattr(estimator, "minimize", spy)
    return runs


def _rounded_quadratic(z):
    # smooth, but its value is rounded to a grid of 1e-9: near the minimum a
    # line search finds no decrease and fails, as on the rounded NLL
    r = z - np.linspace(-1.0, 1.0, 6)
    grad = (np.diag(np.logspace(0.0, 2.0, 6)) + 0.3) @ r
    return round(0.5 * r @ grad / 1e-9) * 1e-9, grad


def test_bfgs_cap_ends_a_failing_search_at_the_last_accepted_step(monkeypatch):
    cap = estimator._LINE_SEARCH_EVALS
    z0 = np.full(6, 2.0)
    calls = [0]

    def counted(z):
        calls[0] += 1
        return _rounded_quadratic(z)

    real = estimator.minimize
    runs = _spy_on_steps(monkeypatch, calls)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = estimator.minimize(counted, z0, 400)
    # the final search fails at the cap, every accepted step before it
    # needed at most the cap, and together they needed more, so the count
    # restarts at every step
    (run,) = runs
    assert res.status == 2 and run[-1] == cap
    assert max(run) <= cap < sum(run) == res.nfev
    # the run ends at the last accepted step, with its value
    last = real(counted, z0, len(run) - 1)
    assert last.status == 1
    assert np.array_equal(res.x, last.x) and res.fun == last.fun
    assert res.fun == _rounded_quadratic(res.x)[0]


@pytest.mark.parametrize("name", ["DC3", "DC2", "SS", "TC3", "TC6"])
def test_fit_line_searches_stay_within_the_cap(monkeypatch, name):
    # families whose fits of this dataset reach the cap; DI, TC, DC and TC2
    # meet the gradient tolerance first, at most 4 evaluations a step
    cap = estimator._LINE_SEARCH_EVALS
    calls = [0]
    real = estimator._Likelihood.value_and_grad

    def counted(self, z):
        calls[0] += 1
        return real(self, z)

    monkeypatch.setattr(estimator._Likelihood, "value_and_grad", counted)
    runs = _spy_on_steps(monkeypatch, calls)
    ds, _ = _synthetic_dataset()
    fit_hyperparameters(ds, name, T=20)
    assert max(max(run) for run in runs) == cap
    # the count restarts at every accepted step, so a run may spend more
    assert max(sum(run) for run in runs) > cap


def _rosenbrock(z):
    x, y = z
    return (1 - x) ** 2 + 100 * (y - x * x) ** 2, np.array(
        [-2 * (1 - x) - 400 * x * (y - x * x), 200 * (y - x * x)])


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_bfgs_minimizes_a_convex_quadratic_to_the_gradient_tolerance(dim):
    rng = np.random.default_rng(dim)
    Q = rng.standard_normal((dim, dim))
    H = Q @ Q.T + np.diag(np.logspace(0.0, 2.0, dim))
    m = rng.standard_normal(dim)

    def quadratic(z):
        return 0.5 * (z - m) @ H @ (z - m), H @ (z - m)

    res = estimator.minimize(quadratic, np.full(dim, 3.0), 200)
    assert res.status == 0
    assert np.abs(quadratic(res.x)[1]).max() <= estimator._GRAD_TOL
    assert res.fun == quadratic(res.x)[0]


def test_bfgs_backs_off_from_refused_points():
    # the minimum lies beyond a wall at z[0] = 1, past which points are
    # refused as the likelihood refuses them, with (inf, 0)
    refused = [0]

    def walled(z):
        if z[0] > 1.0:
            refused[0] += 1
            return math.inf, np.zeros(2)
        r = z - np.array([5.0, 0.0])
        return 0.5 * r @ r, r

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = estimator.minimize(walled, np.array([0.0, 0.5]), 200)
    assert refused[0] > 0
    assert math.isfinite(res.fun) and res.x[0] <= 1.0
    assert res.fun == walled(res.x)[0] < walled(np.array([0.0, 0.5]))[0]


def test_bfgs_stops_at_maxiter():
    res = estimator.minimize(_rosenbrock, np.array([-1.2, 1.0]), 3)
    assert res.status == 1 and res.nfev > 3
    assert res.fun == _rosenbrock(res.x)[0] < _rosenbrock(np.array([-1.2, 1.0]))[0]


def test_bfgs_runs_are_bit_identical():
    one = estimator.minimize(_rosenbrock, np.array([-1.2, 1.0]), 400)
    two = estimator.minimize(_rosenbrock, np.array([-1.2, 1.0]), 400)
    assert one.status == 0
    assert np.array_equal(one.x, two.x) and (one.fun, one.nfev) == (two.fun, two.nfev)


def test_fit_recovers_impulse_response_shape():
    ds, g = _synthetic_dataset(seed=30, N=300)
    res = fit_hyperparameters(ds, "TC2", T=20)
    err = np.linalg.norm(res.g_hat - g) / np.linalg.norm(g)
    assert err < 0.3
    assert res.spec.family == "TCd" and res.spec.delta == 2


def test_fit_estimates_sigma2_when_unknown():
    ds, _ = _synthetic_dataset(seed=13)
    blind = Dataset(ds.u, ds.y)  # no sigma2
    res = fit_hyperparameters(blind, "TC", T=20)
    assert res.sigma2 == pytest.approx(ds.sigma2, rel=0.6)


def test_fit_rejects_bad_templates_and_dimensions():
    ds, _ = _synthetic_dataset()
    with pytest.raises(ParameterError):
        fit_hyperparameters(ds, "XX", T=10)
    with pytest.raises(DimensionError):
        fit_hyperparameters(ds, "TC6", T=6)
    with pytest.raises(ParameterError):
        fit_hyperparameters(ds, "TC", T=10, seeds=[(1.0, 0.5, 0.5)])
    for lam in (-1.0, 0.0):
        with pytest.raises(ParameterError, match=r"seed \[" + str(lam)):
            fit_hyperparameters(ds, "TC", T=10, seeds=[[lam, 0.5]], use_default_grid=False)


def test_fit_raises_when_everything_overflows():
    ds = Dataset(np.ones(10) * 1e200, np.ones(10) * 1e200, sigma2=1.0)
    with pytest.raises(OptimizationError):
        fit_hyperparameters(ds, "TC", T=4)


def test_monotone_shrinkage_in_noise():
    ds, _ = _synthetic_dataset(seed=21)
    A = build_regressor(ds.u, ds.n, 20)
    K = build_kernel(spec("TC", beta=0.8), 20)
    norms = [
        np.linalg.norm(rls_estimate(A, ds.y, K, 1.0, s2))
        for s2 in np.logspace(-3, 5, 12)
    ]
    assert all(a >= b for a, b in zip(norms, norms[1:]))
    assert norms[-1] < 1e-2 * norms[0]


# ---------------------------------------------------------------------------
# containers and serialization
# ---------------------------------------------------------------------------

def test_dataset_validation():
    with pytest.raises(DimensionError):
        Dataset(np.ones(3), np.ones(4))
    with pytest.raises(ParameterError):
        Dataset(np.array([1.0, np.nan]), np.ones(2))
    with pytest.raises(ParameterError):
        Dataset(np.ones(2), np.ones(2), sigma2=0.0)
    with pytest.raises(DimensionError):
        Dataset(np.array([]), np.array([]))


def test_dataset_csv_round_trip():
    ds = Dataset(np.array([0.1, -0.2, 0.3]), np.array([1.0, 2.0, -3.0]), sigma2=0.5)
    buf = io.StringIO()
    ds.to_csv(buf)
    text = buf.getvalue()
    assert text.splitlines()[0] == "t,u,y"
    back = Dataset.from_csv(io.StringIO(text), sigma2=0.5)
    np.testing.assert_array_equal(back.u, ds.u)
    np.testing.assert_array_equal(back.y, ds.y)
    assert back.sigma2 == 0.5


def test_dataset_csv_names_the_line_of_a_bad_row():
    # file lines, header, comments and blank lines counted
    text = "t,u,y\n# comment\n1,0.5,1.0\n\n2,-0.3\n"
    with pytest.raises(ParameterError, match="dataset CSV, line 5: 2 columns, the first row has 3"):
        Dataset.from_csv(io.StringIO(text))
    with pytest.raises(ParameterError, match="dataset CSV, line 4, column 2: 'u'"):
        Dataset.from_csv(io.StringIO(text.replace("\n\n", "\n2,u,1\n")))


def test_estimate_result_json_round_trip():
    ds, _ = _synthetic_dataset()
    res = fit_hyperparameters(ds, "TC", T=10)
    d = json.loads(res.to_json())
    assert set(d) == {"family", "beta", "alpha", "delta", "gamma", "lambda",
                      "sigma2", "nll", "g_hat"}
    back = EstimateResult.from_json(res.to_json())
    assert back.spec == res.spec
    assert back.nll == res.nll
    np.testing.assert_array_equal(back.g_hat, res.g_hat)
