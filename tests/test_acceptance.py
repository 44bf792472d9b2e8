"""Acceptance gate: one test per release criterion.

Each test prints a single summary line (visible with ``pytest -v -s`` or in
the captured output on failure) of the form::

    [criterion N] PASS <label>: <measured numbers> (<elapsed>s)

and enforces the stated numeric tolerance plus the runtime budget.  The
criteria cross-check independent implementation routes: closed-form banded
algebra vs dense LAPACK, band completion vs direct construction, QR vs
direct likelihood, and the Monte Carlo benchmark trends.
"""

import time
import warnings

import numpy as np
import pytest

from stablekern.estimator import build_regressor, nll_direct, nll_qr
from stablekern.kernels import (
    KernelSpec,
    build_inverse,
    build_kernel,
    inverse_cholesky,
    leading_variance,
)
from stablekern.maxent import BandSpec, maxent_completion
from stablekern.simulation import ExperimentConfig, run_monte_carlo
from stablekern.spectral import low_frequency_mass, psd, stationary_part

from oracle import closed_form_inverse


def spec(name, **kw):
    return KernelSpec.from_name(name, **kw)


def maxrel(A, B, floor=1.0):
    scale = max(np.max(np.abs(B)), floor)
    return np.max(np.abs(np.asarray(A) - np.asarray(B))) / scale


def report(num, label, ok, detail, elapsed, budget):
    line = (f"[criterion {num}] {'PASS' if ok else 'FAIL'} {label}: "
            f"{detail} ({elapsed:.1f}s / budget {budget:.0f}s)")
    print(line)
    assert ok, line
    assert elapsed < budget, line


BETAS = (0.1, 0.3, 0.5, 0.7, 0.9)
ALPHAS_SIGNED = (-0.75, -0.3, 0.2, 0.55, 0.9)   # DC correlation, signed
ALPHAS_UNIT = (0.05, 0.275, 0.5, 0.725, 0.95)   # mixing weight, [0, 1]


def closed_form_grid():
    out = []
    for b in BETAS:
        for name in ("DI", "TC", "HF", "TC2", "HF2"):
            out.append(spec(name, beta=b))
        out.extend(spec("DC", beta=b, alpha=a) for a in ALPHAS_SIGNED)
        for name in ("HC", "DC2", "HC2"):
            out.extend(spec(name, beta=b, alpha=a) for a in ALPHAS_UNIT)
    return out


def test_criterion_1_closed_form_consistency():
    t0 = time.perf_counter()
    worst_id = worst_chol = worst_det = 0.0
    for sp in closed_form_grid():
        for T in range(2, 21):
            K = build_kernel(sp, T)
            Kinv = build_inverse(sp, T)
            factor = inverse_cholesky(sp, T)
            L = factor.to_dense()
            worst_id = max(worst_id, maxrel(K @ Kinv, np.eye(T)))
            worst_chol = max(worst_chol, maxrel(L @ L.T, closed_form_inverse(sp, T)))
            sign, ld = np.linalg.slogdet(K)
            assert sign > 0
            worst_det = max(worst_det, abs(np.expm1(factor.logdet_K - ld)))
    elapsed = time.perf_counter() - t0
    ok = worst_id < 1e-8 and worst_chol < 1e-8 and worst_det < 1e-10
    report(1, "closed-form consistency",
           ok,
           f"max |K*Kinv - I| {worst_id:.2e}, max |L*L' - GDG'/kappa| {worst_chol:.2e}, "
           f"max det mismatch {worst_det:.2e}",
           elapsed, 30)


def test_criterion_2_maxent_reproduces_order2_kernels():
    t0 = time.perf_counter()
    specs = [spec("TC2", beta=b) for b in (0.3, 0.8)]
    specs += [spec("DC2", beta=b, alpha=a)
              for b in (0.3, 0.8) for a in (0.2, 0.7)]
    worst = 0.0
    for sp in specs:
        K = build_kernel(sp, 10)
        res = maxent_completion(BandSpec.from_matrix(K, 2))
        worst = max(worst, maxrel(res.matrix, K))

    # entropy optimality: no feasible perturbation of the free entries ties
    # or beats the completion's log det
    min_loss = np.inf
    for sp in (spec("TC2", beta=0.6), spec("DC2", beta=0.7, alpha=0.4)):
        K = build_kernel(sp, 6)
        res = maxent_completion(BandSpec.from_matrix(K, 2))
        free = [(t, s) for t in range(6) for s in range(t + 3, 6)]
        lam_min = np.linalg.eigvalsh(res.matrix)[0]
        rng = np.random.default_rng(20260814)
        accepted = 0
        while accepted < 200:
            M = res.matrix.copy()
            noise = rng.normal(scale=0.2 * lam_min, size=len(free))
            for (t, s), dv in zip(free, noise):
                M[t, s] += dv
                M[s, t] += dv
            if np.linalg.eigvalsh(M)[0] <= 0:
                continue
            accepted += 1
            sign, ld = np.linalg.slogdet(M)
            assert sign > 0
            min_loss = min(min_loss, res.entropy - ld)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and min_loss > 1e-9
    report(2, "max-entropy band extension",
           ok,
           f"max completion error {worst:.2e}, "
           f"smallest entropy loss under 400 perturbations {min_loss:.2e}",
           elapsed, 10)


def test_criterion_3_higher_order_band_completion():
    t0 = time.perf_counter()
    specs = []
    for d in (3, 4):
        specs += [spec(f"TC{d}", beta=b) for b in (0.5, 0.8)]
        specs += [spec(f"DC{d}", beta=b, alpha=a)
                  for b in (0.5, 0.8) for a in (0.2, 0.7)]
    worst = 0.0
    for sp in specs:
        K = build_kernel(sp, 10)
        res = maxent_completion(BandSpec.from_matrix(K, sp.delta))
        worst = max(worst, maxrel(res.matrix, K))
    elapsed = time.perf_counter() - t0
    report(3, "order-3/4 bands complete to the series kernels",
           worst < 1e-7,
           f"max completion error {worst:.2e} over {len(specs)} kernels",
           elapsed, 10)


def random_instance_spec(rng, family):
    # beta ranges keep cond(K) inside the region where any double-precision
    # route can represent the identity to 1e-8 (see estimator tests)
    caps = {3: 0.85, 4: 0.85, 6: 0.6}
    if family == "SS":
        return spec("SS", gamma=rng.uniform(0.05, 0.9))
    d = int(family[2:]) if family[2:] else 1
    beta = rng.uniform(0.05, caps.get(d, 0.95))
    if family == "DC":
        return spec(family, beta=beta, alpha=rng.uniform(-0.9, 0.9))
    if family.startswith(("DC", "HC")):
        return spec(family, beta=beta, alpha=rng.uniform(0.05, 0.95))
    return spec(family, beta=beta)


def test_criterion_4_likelihood_identity():
    t0 = time.perf_counter()
    families = ("DI", "TC", "DC", "SS", "TC2", "DC2", "HF", "HC",
                "HF2", "HC2", "TC3", "DC3", "TC4", "DC4", "TC6")
    rng = np.random.default_rng(20260814)
    worst = 0.0
    for i in range(100):
        sp = random_instance_spec(rng, families[i % len(families)])
        N = int(rng.choice([5, 20, 100]))
        # order-delta series kernels are defined for T >= delta + 2
        floor_t = (sp.delta or 1) + 2 if (sp.bandwidth or 0) > 2 else 0
        T = int(rng.choice([t for t in (2, 5, 30) if t >= floor_t]))
        # lambda expressed for the unit-leading-variance kernel, as in fits
        lam = 10.0 ** rng.uniform(-3, 3) / leading_variance(sp)
        sigma2 = 10.0 ** rng.uniform(-2, 1)
        u = rng.normal(size=N)
        y = rng.normal(size=N)
        with warnings.catch_warnings():
            # the T > N advisory is expected here: the identity must hold
            # on underdetermined instances too
            warnings.simplefilter("ignore", RuntimeWarning)
            A = build_regressor(u, N, T)
        v1 = nll_direct(y, A, build_kernel(sp, T), lam, sigma2)
        v2 = nll_qr(y, A, inverse_cholesky(sp, T), lam, sigma2)
        worst = max(worst, abs(v1 - v2) / max(abs(v1), 1.0))
    elapsed = time.perf_counter() - t0
    report(4, "QR likelihood equals the direct form",
           worst < 1e-8,
           f"max relative gap {worst:.2e} over 100 instances",
           elapsed, 60)


def test_criterion_5_spectral_certificates():
    t0 = time.perf_counter()
    closed = [spec("DI", beta=0.8), spec("TC", beta=0.8),
              spec("DC", beta=0.8, alpha=0.5), spec("TC2", beta=0.8),
              spec("DC2", beta=0.8, alpha=0.5), spec("SS", gamma=0.8),
              spec("HF", beta=0.8), spec("HC", beta=0.8, alpha=0.5),
              spec("HF2", beta=0.8), spec("HC2", beta=0.8, alpha=0.5)]
    series = [spec(f"TC{d}", beta=0.8) for d in (3, 4, 5, 6)]
    series += [spec(f"DC{d}", beta=0.8, alpha=0.5) for d in (3, 4, 5, 6)]
    series += [spec("HF3", beta=0.8), spec("HC4", beta=0.8, alpha=0.5)]
    worst_closed = max(stationary_part(sp).spread for sp in closed)
    worst_series = max(stationary_part(sp).spread for sp in series)

    # the delta = 5, 6 residual masses sit at 1e-9 .. 1e-10, so the trend
    # check needs a 400-tap window to push series truncation below them
    low = [low_frequency_mass(
               psd(stationary_part(spec(f"TC{d}" if d > 1 else "TC",
                                        beta=0.8), T=400)),
               np.pi / 4)
           for d in range(1, 7)]
    high = [1.0 - low_frequency_mass(
                psd(stationary_part(spec(f"HF{d}" if d > 1 else "HF",
                                         beta=0.8), T=400)),
                3 * np.pi / 4)
            for d in range(1, 7)]
    low_up = all(b > a for a, b in zip(low, low[1:]))
    high_up = all(b > a for a, b in zip(high, high[1:]))
    elapsed = time.perf_counter() - t0
    ok = worst_closed < 1e-10 and worst_series < 1e-7 and low_up and high_up
    report(5, "stationary-part and frequency-content certificates",
           ok,
           f"spread closed {worst_closed:.2e} series {worst_series:.2e}, "
           f"lowpass residual {['%.1e' % (1 - m) for m in low]}, "
           f"highpass residual {['%.1e' % (1 - m) for m in high]}",
           elapsed, 30)


# Fixed benchmark configurations.  The trends are ordinal statements about
# medians of 50 runs, so they are checked exactly as stated; the 5-point
# band on |TC2 - SS| is the one quantitative tolerance.
STUDY1 = dict(study=1, runs=50, N=500, T=50, seed=0, sigma2_mode="estimated")
STUDY2 = dict(study=2, runs=50, N=500, T=50, seed=21, sigma2_mode="estimated")


@pytest.mark.slow
def test_criterion_6_monte_carlo_trends():
    t0 = time.perf_counter()
    med1 = run_monte_carlo(ExperimentConfig(**STUDY1)).median_airf()
    med2 = run_monte_carlo(ExperimentConfig(**STUDY2)).median_airf()
    elapsed = time.perf_counter() - t0

    order1 = all(med1[name] >= med1[d1]
                 for name in ("TC3", "DC3") for d1 in ("DI", "TC", "DC"))
    di_rank = sorted(med1.values()).index(med1["DI"])
    study1_ok = order1 and di_rank <= 1

    dc2_ok = med2["DC2"] >= med2["TC"]
    band_ok = abs(med2["TC2"] - med2["SS"]) <= 5.0
    tc6_ok = med2["TC6"] == min(med2.values())
    study2_ok = dc2_ok and band_ok and tc6_ok

    fmt1 = " ".join(f"{k}={v:.2f}" for k, v in sorted(med1.items()))
    fmt2 = " ".join(f"{k}={v:.2f}" for k, v in sorted(med2.items()))
    report(6, "Monte Carlo benchmark trends",
           study1_ok and study2_ok,
           f"study1[{fmt1}] order-3-top={order1} DI-rank={di_rank} | "
           f"study2[{fmt2}] DC2>=TC={dc2_ok} |TC2-SS|<=5={band_ok} "
           f"TC6-lowest={tc6_ok}",
           elapsed, 1800)


def test_criterion_7_dc2_interpolates_tc_to_tc2():
    t0 = time.perf_counter()
    worst_hi = 0.0
    exact = True
    for b in BETAS:
        at0 = build_kernel(spec("DC2", beta=b, alpha=0.0), 20)
        tc = build_kernel(spec("TC", beta=b), 20)
        exact = exact and np.array_equal(at0, tc)
        at1 = build_kernel(spec("DC2", beta=b, alpha=1.0 - 1e-6), 20)
        tc2 = build_kernel(spec("TC2", beta=b), 20)
        worst_hi = max(worst_hi, np.max(np.abs(at1 - tc2)))
    elapsed = time.perf_counter() - t0
    report(7, "second-order correlated kernel endpoints",
           exact and worst_hi < 1e-4,
           f"alpha=0 exact={exact}, max |alpha->1 gap| {worst_hi:.2e}",
           elapsed, 1)
