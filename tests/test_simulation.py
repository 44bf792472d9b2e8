"""Tests for the Monte Carlo benchmark machinery."""

import io
import math

import numpy as np
import pytest

from stablekern import estimator
from stablekern.errors import (
    DegenerateSystemError,
    DimensionError,
    ParameterError,
)
from stablekern.simulation import (
    ExperimentConfig,
    MCResult,
    MCRow,
    TrueSystem,
    airf,
    default_estimators,
    generate_input,
    run_monte_carlo,
    sample_impulse_response,
    simulate_output,
)
from stablekern.estimator import Dataset, fit_hyperparameters


def _rng(seed=0, run=1):
    return np.random.Generator(np.random.Philox(key=[seed, run]))


# ---------------------------------------------------------------------------
# impulse response sampling
# ---------------------------------------------------------------------------

def test_midpoint_system_first_coefficient():
    # midpoint parameters a=0.85, b=0.45, c=0 for all three components;
    # at t=1 the decay base enters linearly, g1 = 3 * 0.85 * cos(0.45)
    t = np.arange(1, 51)
    g = 3 * 0.85 ** t * np.cos(0.45 * t)
    assert g[0] == pytest.approx(2.2961401, abs=1e-6)
    assert g[0] == pytest.approx(3 * 0.85 * math.cos(0.45))
    sys_mid = TrueSystem(g, (0.85,) * 3, (0.45,) * 3, (0.0,) * 3)
    assert abs(sys_mid.g[-1]) < 1e-2  # practical length: decayed by t=50


@pytest.mark.parametrize("study,lo,hi", [(1, 0.8, 0.9), (2, 0.63, 0.73)])
def test_amplitude_supports(study, lo, hi):
    for run in range(1, 30):
        sys_r = sample_impulse_response(study, _rng(4, run))
        assert all(lo <= a <= hi for a in sys_r.a)
        assert all(0.4 <= b <= 0.5 for b in sys_r.b)
        assert all(0.0 <= c <= np.pi for c in sys_r.c)


def test_sampled_system_matches_cosine_form():
    sys_r = sample_impulse_response(1, _rng(9), T=30)
    t = np.arange(1, 31)
    g = sum(a ** t * np.cos(b * t + c)
            for a, b, c in zip(sys_r.a, sys_r.b, sys_r.c))
    np.testing.assert_allclose(sys_r.g, g, rtol=0, atol=1e-14)
    assert sys_r.g.shape == (30,)


def test_sampling_is_deterministic():
    s1 = sample_impulse_response(1, _rng(3))
    s2 = sample_impulse_response(1, _rng(3))
    np.testing.assert_array_equal(s1.g, s2.g)
    assert s1.a == s2.a and s1.b == s2.b and s1.c == s2.c


def test_sample_rejects_unknown_study():
    with pytest.raises(ParameterError):
        sample_impulse_response(3, _rng())


# ---------------------------------------------------------------------------
# input generation
# ---------------------------------------------------------------------------

def test_input_unit_sample_variance_and_determinism():
    u1 = generate_input(400, 0.2, _rng(5))
    u2 = generate_input(400, 0.2, _rng(5))
    np.testing.assert_array_equal(u1, u2)
    assert u1.var() == pytest.approx(1.0, rel=1e-12)


def test_input_is_band_limited():
    # >= 90% of periodogram mass below 0.25*pi when the cutoff is 0.2
    u = generate_input(5000, 0.2, _rng(6))
    spectrum = np.abs(np.fft.rfft(u)) ** 2
    freqs = np.linspace(0, np.pi, spectrum.size)
    mass = spectrum[freqs < 0.25 * np.pi].sum() / spectrum.sum()
    assert mass >= 0.90


def test_input_full_band_is_white():
    u = generate_input(5000, 1.0, _rng(7))
    r1 = np.dot(u[:-1], u[1:]) / np.dot(u, u)
    assert abs(r1) < 0.1


@pytest.mark.parametrize("f_c", [0.05, 0.2, 0.33, 0.5, 0.8, 0.9])
def test_input_filter_equals_firwin_lfilter_to_the_bit(f_c):
    from scipy.signal import firwin, lfilter

    taps = firwin(101, f_c, window="hamming")
    for N in (101, 500, 2000):
        white = _rng(N).standard_normal(N)
        shaped = lfilter(taps, [1.0], white)
        np.testing.assert_array_equal(generate_input(N, f_c, _rng(N)), shaped / shaped.std())


def test_input_length_and_cutoff_guards():
    with pytest.raises(DimensionError):
        generate_input(100, 0.2, _rng())
    generate_input(101, 0.2, _rng())
    for bad in (0.0, -0.1, 1.2):
        with pytest.raises(ParameterError):
            generate_input(500, bad, _rng())


# ---------------------------------------------------------------------------
# output simulation
# ---------------------------------------------------------------------------

def test_delay_system_output():
    g = np.zeros(5)
    g[0] = 1.0
    sys_d = TrueSystem(g, (0,) * 3, (0,) * 3, (0,) * 3)
    rng = _rng(8)
    u = rng.standard_normal(40)
    y, _ = simulate_output(sys_d, u, 1e18, _rng(9))
    np.testing.assert_allclose(y[1:], u[:-1], rtol=0, atol=1e-7)
    assert y[0] == pytest.approx(0.0, abs=1e-7)


def test_snr_identity_exact():
    sys_r = sample_impulse_response(1, _rng(10))
    u = generate_input(300, 0.2, _rng(11))
    for snr in (0.5, 1.0, 4.0):
        _, sigma2 = simulate_output(sys_r, u, snr, _rng(12))
        y_clean = np.r_[0.0, np.convolve(u, sys_r.g)][:300]
        assert np.var(y_clean) / sigma2 == pytest.approx(snr, rel=1e-14)


def test_noiseless_limit():
    sys_r = sample_impulse_response(2, _rng(13))
    u = generate_input(200, 0.2, _rng(14))
    y, sigma2 = simulate_output(sys_r, u, 1e16, _rng(15))
    y_clean = np.r_[0.0, np.convolve(u, sys_r.g)][:200]
    assert sigma2 == pytest.approx(np.var(y_clean) * 1e-16)
    np.testing.assert_allclose(y, y_clean, atol=1e-5)


def test_zero_variance_output_rejected():
    g = np.zeros(5)
    sys0 = TrueSystem(g, (0,) * 3, (0,) * 3, (0,) * 3)
    u = generate_input(200, 0.2, _rng(16))
    with pytest.raises(DegenerateSystemError):
        simulate_output(sys0, u, 1.0, _rng(17))


def test_simulate_rejects_bad_snr():
    sys_r = sample_impulse_response(1, _rng(18))
    u = generate_input(200, 0.2, _rng(19))
    with pytest.raises(ParameterError):
        simulate_output(sys_r, u, 0.0, _rng(20))


# ---------------------------------------------------------------------------
# AIRF
# ---------------------------------------------------------------------------

def test_airf_frozen_hand_value():
    # g=(1,2,3), ghat=(1,1,1): 100*(1 - sqrt(5)/sqrt(2))
    assert airf([1, 2, 3], [1, 1, 1]) == pytest.approx(
        100 * (1 - math.sqrt(5) / math.sqrt(2)), abs=1e-10
    )
    assert airf([1, 2, 3], [1, 1, 1]) == pytest.approx(-58.1139, abs=1e-4)


def test_airf_perfect_and_reference():
    g = np.array([0.5, -1.0, 2.0, 0.25])
    assert airf(g, g) == 100.0
    assert airf(g, np.full(4, g.mean())) == pytest.approx(0.0, abs=1e-12)


def test_airf_translation_covariance():
    rng = _rng(21)
    g = rng.standard_normal(30)
    gh = g + 0.1 * rng.standard_normal(30)
    base = airf(g, gh)
    for c in (-3.0, 0.7, 12.0):
        assert airf(g + c, gh + c) == pytest.approx(base, rel=1e-12)


def test_airf_never_exceeds_100():
    rng = _rng(22)
    for _ in range(20):
        g = rng.standard_normal(15)
        gh = rng.standard_normal(15)
        assert airf(g, gh) <= 100.0


def test_airf_sum_reference_mode():
    g = np.array([1.0, 2.0, 3.0])
    gh = np.array([1.0, 1.0, 1.0])
    ref = g.sum()
    expect = 100 * (1 - np.linalg.norm(g - gh) / np.linalg.norm(g - ref))
    assert airf(g, gh, reference="sum") == pytest.approx(expect, rel=1e-12)
    with pytest.raises(ParameterError):
        airf(g, gh, reference="median")


def test_airf_degenerate_reference():
    with pytest.raises(DegenerateSystemError):
        airf([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])


def test_airf_shape_guard():
    with pytest.raises(DimensionError):
        airf([1.0, 2.0], [1.0, 2.0, 3.0])


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_default_estimator_sets():
    assert default_estimators(1) == ("DI", "TC", "DC", "SS", "TC2", "DC2",
                                     "TC3", "DC3")
    assert default_estimators(2) == ("DI", "TC", "DC", "SS", "TC2", "DC2",
                                     "TC6")
    with pytest.raises(ParameterError):
        default_estimators(0)


def test_config_defaults_and_json_round_trip():
    cfg = ExperimentConfig(study=2, runs=3, seed=42)
    assert cfg.estimators == default_estimators(2)
    assert cfg.N == 500 and cfg.T == 50 and cfg.snr == 1.0
    back = ExperimentConfig.from_json(cfg.to_json())
    assert back == cfg


def test_config_validation():
    with pytest.raises(ParameterError):
        ExperimentConfig(study=5)
    with pytest.raises(ParameterError):
        ExperimentConfig(study=1, runs=0)
    with pytest.raises(ParameterError):
        ExperimentConfig(study=1, snr=-1.0)
    with pytest.raises(ParameterError):
        ExperimentConfig(study=1, sigma2_mode="oracle")
    with pytest.raises(ParameterError):
        ExperimentConfig(study=1, estimators=("TC", "XX9"))


# ---------------------------------------------------------------------------
# Monte Carlo driver
# ---------------------------------------------------------------------------

SMALL = dict(runs=2, N=150, T=20, seed=101, snr=1.0)


def test_monte_carlo_determinism():
    cfg = ExperimentConfig(study=1, estimators=("TC", "DI"), **SMALL)
    r1 = run_monte_carlo(cfg)
    r2 = run_monte_carlo(cfg)
    assert r1 == r2
    buf1, buf2 = io.StringIO(), io.StringIO()
    r1.to_csv(buf1)
    r2.to_csv(buf2)
    assert buf1.getvalue() == buf2.getvalue()


def test_monte_carlo_data_independent_of_estimator_list():
    # per-run draws happen before the estimator loop, so adding estimators
    # must not change the scores of the ones already present
    cfg_a = ExperimentConfig(study=1, estimators=("TC",), **SMALL)
    cfg_b = ExperimentConfig(study=1, estimators=("TC", "DI", "TC2"), **SMALL)
    ra = run_monte_carlo(cfg_a)
    rb = run_monte_carlo(cfg_b)
    tc_a = [r.airf for r in ra.rows if r.estimator == "TC"]
    tc_b = [r.airf for r in rb.rows if r.estimator == "TC"]
    assert tc_a == tc_b


def test_monte_carlo_parallel_matches_serial():
    cfg = ExperimentConfig(study=1, estimators=("TC",), **SMALL)
    serial = run_monte_carlo(cfg, workers=1)
    parallel = run_monte_carlo(cfg, workers=2)
    assert [r.airf for r in serial.rows] == [r.airf for r in parallel.rows]
    assert [r.spec for r in serial.rows] == [r.spec for r in parallel.rows]


def test_monte_carlo_scores_are_reasonable():
    cfg = ExperimentConfig(study=1, estimators=("TC",), runs=3, N=400, T=50,
                           seed=7, snr=1.0)
    res = run_monte_carlo(cfg)
    assert all(r.error is None for r in res.rows)
    assert all(r.airf <= 100.0 for r in res.rows)
    assert res.median_airf()["TC"] > 50.0


def test_monte_carlo_true_sigma2_mode():
    cfg = ExperimentConfig(study=1, estimators=("TC",), sigma2_mode="true",
                           **SMALL)
    res = run_monte_carlo(cfg)
    assert all(r.error is None for r in res.rows)


def test_monte_carlo_csv_format():
    cfg = ExperimentConfig(study=1, estimators=("TC", "DC2"), runs=1, N=150,
                           T=20, seed=33)
    res = run_monte_carlo(cfg)
    buf = io.StringIO()
    res.to_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "run,estimator,airf,beta,alpha,delta,gamma,lambda,sigma2"
    assert len(lines) == 3
    tc = lines[1].split(",")
    assert tc[0] == "1" and tc[1] == "TC"
    assert tc[4] == "" and tc[6] == ""  # TC has no alpha, no gamma
    dc2 = lines[2].split(",")
    assert dc2[1] == "DC2" and dc2[4] != "" and dc2[5] == "2"
    buf2 = io.StringIO()
    res.to_csv(buf2, include_timing=True)
    timed = buf2.getvalue().strip().splitlines()
    assert timed[0].endswith(",seconds")
    assert len(timed[1].split(",")) == 10


def test_monte_carlo_records_failures():
    cfg = ExperimentConfig(study=1, estimators=("TC",), **SMALL)
    res = run_monte_carlo(cfg)
    bad = MCRow(1, "TC", float("nan"), None, float("nan"), 1.0, 0.0,
                error="synthetic failure")
    patched = MCResult(res.config, res.rows + (bad,))
    med = patched.median_airf()["TC"]
    clean = [r.airf for r in res.rows if r.error is None]
    assert med == pytest.approx(float(np.median(clean)))
    buf = io.StringIO()
    patched.to_csv(buf)
    last = buf.getvalue().strip().splitlines()[-1].split(",")
    assert last[2] == "nan" and last[3] == ""


def test_monte_carlo_estimates_sigma2_once_per_run(monkeypatch):
    # the estimators of a run share one noise pre-fit, and their rows are
    # those of fits that make the pre-fit themselves
    cfg = ExperimentConfig(study=1, estimators=("TC", "DI", "TC2"), **SMALL)
    calls = []
    original = estimator.estimate_sigma2

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(estimator, "estimate_sigma2", counting)
    res = run_monte_carlo(cfg)
    assert len(calls) == cfg.runs
    for run in range(1, cfg.runs + 1):
        rng = _rng(cfg.seed, run)
        system = sample_impulse_response(cfg.study, rng, T=cfg.T)
        u = generate_input(cfg.N, cfg.f_c, rng)
        y, _ = simulate_output(system, u, cfg.snr, rng)
        for name in cfg.estimators:
            ref = fit_hyperparameters(Dataset(u, y), name, T=cfg.T)
            row, = [r for r in res.rows if r.run == run and r.estimator == name]
            assert (row.spec, row.lam, row.sigma2) == (ref.spec, ref.lam, ref.sigma2)
            assert row.airf == airf(system.g, ref.g_hat)
