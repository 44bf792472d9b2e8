"""Spectral decomposition tests.

Oracles: hand-evaluated stationary closed forms, the AR(1) spectrum in
closed form, the exact spectrum of every family from ``oracle.py``, exact
trapezoidal integration facts for flat spectra, the per-diagonal extraction
loop that the packed one replaced, and the direct cosine sum.
"""

import io

import numpy as np
import pytest
from scipy.linalg import toeplitz

from stablekern.errors import DecompositionError, DimensionError, ParameterError
from stablekern.kernels import KernelSpec, build_kernel
from stablekern.spectral import (
    PSD,
    SPREAD_TOL_CLOSED,
    StationaryKernel,
    low_frequency_mass,
    psd,
    stationary_part,
)

import oracle


def spec(name, **kw):
    return KernelSpec.from_name(name, **kw)


# ---------------------------------------------------------------------------
# stationary part
# ---------------------------------------------------------------------------

def test_di_is_white():
    sk = stationary_part(spec("DI", beta=0.6), T=40)
    np.testing.assert_allclose(sk.w[0], 1.0, rtol=1e-14)
    assert np.max(np.abs(sk.w[1:])) < 1e-14


def test_tc2_and_dc2_zero_lag_hand_values():
    assert stationary_part(spec("TC2", beta=0.5), T=30).w[0] == pytest.approx(1.5, rel=1e-12)
    sk = stationary_part(spec("DC2", beta=0.5, alpha=0.5), T=30)
    assert sk.w[0] == pytest.approx(1.25, rel=1e-12)


def test_tc_lags_are_half_power_decay():
    b = 0.7
    sk = stationary_part(spec("TC", beta=b), T=25)
    np.testing.assert_allclose(sk.w, b ** (np.arange(25) / 2.0), rtol=1e-12)


def test_ss_lags_closed_form():
    g = 0.8
    sk = stationary_part(spec("SS", gamma=g), T=25)
    tau = np.arange(25)
    want = g ** (tau / 2.0) / 2.0 - g ** (1.5 * tau) / 6.0
    np.testing.assert_allclose(sk.w, want, rtol=1e-11)


def test_hf_alternates_sign():
    sk = stationary_part(spec("HF", beta=0.7), T=20)
    base = stationary_part(spec("TC", beta=0.7), T=20)
    np.testing.assert_allclose(sk.w, base.w * (-1.0) ** np.arange(20), rtol=1e-12)


@pytest.mark.parametrize(
    "sp",
    [
        spec("TC", beta=0.8),
        spec("DC", beta=0.8, alpha=-0.4),
        spec("TC2", beta=0.9),
        spec("DC2", beta=0.8, alpha=0.6),
        spec("SS", gamma=0.9),
        spec("HC2", beta=0.85, alpha=0.5),
    ],
    ids=lambda s: s.to_kv(),
)
def test_spread_certificate_closed_forms(sp):
    sk = stationary_part(sp, T=200)
    assert sk.spread < SPREAD_TOL_CLOSED


@pytest.mark.parametrize("delta", [3, 4, 5, 6])
def test_spread_certificate_series_families(delta):
    sk = stationary_part(spec(f"TC{delta}", beta=0.8), T=120)
    assert sk.spread < SPREAD_TOL_CLOSED
    skd = stationary_part(spec(f"DC{delta}", beta=0.8, alpha=0.5), T=120)
    assert skd.spread < SPREAD_TOL_CLOSED


def test_wrong_envelope_raises():
    with pytest.raises(DecompositionError):
        stationary_part(spec("TC", beta=0.8), T=50, envelope=0.5)
    with pytest.raises(ParameterError):
        stationary_part(spec("TC", beta=0.8), T=50, envelope=1.5)


def test_subnormal_diagonal_is_reported_as_underflow():
    # SS gamma=0.3 at T=200: K[200, 200] = gamma**600 / 3 ~ 1e-314 is
    # subnormal, not zero; the diagnosis must still be underflow, not a
    # wrong envelope
    sp = spec("SS", gamma=0.3)
    assert 0.0 < build_kernel(sp, 200)[-1, -1] < np.finfo(float).tiny
    with pytest.raises(DecompositionError, match="underflow.*reduce T"):
        stationary_part(sp, T=200)
    assert stationary_part(sp, T=100).spread < SPREAD_TOL_CLOSED


def test_ss_envelope_is_gamma_cubed():
    # the SS kernel with gamma = beta**(1/3) shares the envelope of a
    # beta-decay family, which is what makes the families comparable
    b = 0.512
    sk = stationary_part(spec("SS", gamma=b ** (1.0 / 3.0)), T=30)
    tc = stationary_part(spec("TC", beta=b), T=30)
    assert sk.w.shape == tc.w.shape
    assert sk.spread < SPREAD_TOL_CLOSED


def loop_stationary(sp, T, envelope=None):
    """``(w, spread)`` by one pass per diagonal, the extraction that the
    packed gather replaced; refusals raise as ``stationary_part`` does."""
    env = (sp.gamma ** 3 if sp.family == "SS" else sp.beta) if envelope is None else envelope
    K = build_kernel(sp, T)
    if np.any(np.abs(np.diag(K)) < np.finfo(float).tiny):
        raise DecompositionError("kernel entries underflow at this working length; reduce T")
    t = np.arange(1, T + 1)
    halfsum = np.add.outer(t, t) / 2.0
    with np.errstate(divide="ignore"):
        logmag = np.where(K == 0.0, -np.inf, np.log(np.abs(K)))
    wmat = np.sign(K) * np.exp(logmag - halfsum * np.log(env))
    w = np.empty(T)
    scale = 0.0
    spreads = np.empty(T)
    for tau in range(T):
        vals = np.diag(wmat, tau)
        w[tau] = vals.mean()
        spreads[tau] = vals.max() - vals.min()
        scale = max(scale, np.max(np.abs(vals)))
    spread = float(np.max(spreads) / scale)
    if spread > SPREAD_TOL_CLOSED:
        raise DecompositionError("rescaled kernel is not stationary")
    return w, spread


ORACLE_SPECS = [
    spec("DI", beta=0.6),
    spec("TC", beta=0.8),
    spec("DC", beta=0.8, alpha=-0.4),
    spec("SS", gamma=0.9),
    spec("SS", gamma=0.3),
    spec("TC2", beta=0.95),
    spec("DC2", beta=0.7, alpha=0.6),
    spec("TC3", beta=0.8),
    spec("DC3", beta=0.9, alpha=0.5),
    spec("TC6", beta=0.5),
    spec("HF", beta=0.7),
    spec("HC2", beta=0.85, alpha=0.5),
    spec("HF3", beta=0.8),
    spec("HC3", beta=0.99, alpha=0.5),
]


@pytest.mark.parametrize("T", [1, 2, 3, 50, 200])
@pytest.mark.parametrize("sp", ORACLE_SPECS, ids=lambda s: s.to_kv())
@pytest.mark.parametrize("envelope", [None, 0.5], ids=["own", "wrong"])
def test_stationary_part_matches_loop_oracle_bitwise(sp, T, envelope):
    try:
        want = loop_stationary(sp, T, envelope)
    except DecompositionError as exc:
        with pytest.raises(DecompositionError, match=str(exc).split(";")[0]):
            stationary_part(sp, T, envelope=envelope)
        return
    sk = stationary_part(sp, T, envelope=envelope)
    assert sk.w.tobytes() == want[0].tobytes()
    assert sk.spread == want[1]


def test_loop_oracle_sees_both_refusals():
    # the bitwise comparison above covers a wrong envelope and an underflow
    with pytest.raises(DecompositionError, match="not stationary"):
        loop_stationary(spec("TC", beta=0.8), 50, 0.5)
    with pytest.raises(DecompositionError, match="underflow"):
        loop_stationary(spec("SS", gamma=0.3), 200)


def _ar1_shifted(c, n=50, rho=0.5):
    """AR(1) autocovariance with ``w(0)`` lowered until the Toeplitz
    matrix's smallest eigenvalue is ``-c w(0)``, and that eigenvalue."""
    w = rho ** np.arange(n)
    lam = np.linalg.eigvalsh(toeplitz(w))[0]
    w[0] -= (lam + c) / (1.0 + c)
    return w, np.linalg.eigvalsh(toeplitz(w))[0]


def test_toeplitz_just_below_the_psd_tolerance_is_refused():
    w, eig = _ar1_shifted(1.5e-8)
    assert -2e-8 * w[0] < eig < -1e-8 * w[0]
    with pytest.raises(ParameterError, match=f"min eigenvalue {eig:.3e}"):
        StationaryKernel(w)


def test_toeplitz_just_above_the_psd_tolerance_passes():
    w, eig = _ar1_shifted(0.5e-8)
    assert -1e-8 * w[0] < eig < 0.0
    StationaryKernel(w)


@pytest.mark.parametrize("w", [np.ones(5), np.cos(0.3 * np.arange(50))],
                         ids=["constant", "cosine"])
def test_singular_psd_autocovariance_passes(w):
    # rank 1 and rank 2 Toeplitz matrices: PSD with zero eigenvalues
    assert np.linalg.matrix_rank(toeplitz(w)) < w.size
    assert np.array_equal(StationaryKernel(w).w, w)


def test_stationary_kernel_validation():
    with pytest.raises(ParameterError):
        StationaryKernel(np.array([-1.0, 0.0]))
    with pytest.raises(ParameterError):
        StationaryKernel(np.array([1.0, 2.0]))  # not a PSD autocovariance
    with pytest.raises(DimensionError):
        StationaryKernel(np.array([]))


# ---------------------------------------------------------------------------
# PSD evaluation
# ---------------------------------------------------------------------------

def test_flat_spectrum_for_white_autocovariance():
    sk = StationaryKernel(np.r_[1.0, np.zeros(9)])
    p = psd(sk, M=64)
    np.testing.assert_allclose(p.phi, np.ones(64), rtol=1e-14)
    assert p.theta[0] == 0.0 and p.theta[-1] == pytest.approx(np.pi)


def test_ar1_spectrum_oracle():
    rho = 0.5
    sk = StationaryKernel(rho ** np.arange(200))
    p = psd(sk, M=256)
    want = (1 - rho ** 2) / (1 - 2 * rho * np.cos(p.theta) + rho ** 2)
    assert np.max(np.abs(p.phi - want) / want) < 1e-3


EXACT_SPECTRUM_CASES = [
    spec("DI", beta=0.5), spec("TC", beta=0.5), spec("DC", beta=0.5, alpha=0.5),
    spec("SS", gamma=0.5), spec("TC2", beta=0.5), spec("DC2", beta=0.5, alpha=0.5),
    spec("TC3", beta=0.5), spec("DC3", beta=0.5, alpha=0.5), spec("TC6", beta=0.5),
    spec("HF2", beta=0.5), spec("HC3", beta=0.5, alpha=0.5),
]


@pytest.mark.parametrize("sp", EXACT_SPECTRUM_CASES, ids=lambda s: s.to_kv())
def test_psd_matches_the_exact_spectrum(sp):
    # at beta = 0.5 the cosine series of w has converged by lag 200, so psd
    # is the exact density of the oracle to 1e-10 of its peak (measured: at
    # most 1.9e-14, SS); nearer beta = 1 it has not (7e-7 at beta = 0.8)
    p = psd(stationary_part(sp, 200), M=512)
    want = oracle.spectrum(sp, p.theta)
    assert np.max(np.abs(p.phi - want)) <= 1e-10 * want.max()


def test_psd_normalization():
    sk = stationary_part(spec("TC", beta=0.8), T=100)
    p = psd(sk, M=128, normalize=True)
    assert p.normalized and p.phi.max() == pytest.approx(1.0, abs=0)
    raw = psd(sk, M=128)
    np.testing.assert_allclose(p.phi, raw.phi / raw.phi.max(), rtol=1e-14)


def test_tc2_concentrates_lower_than_tc():
    b = 0.8
    p1 = psd(stationary_part(spec("TC", beta=b), T=200), M=257, normalize=True)
    p2 = psd(stationary_part(spec("TC2", beta=b), T=200), M=257, normalize=True)
    sel = p1.theta >= np.pi / 2
    assert np.all(p2.phi[sel] < p1.phi[sel])


def test_reconstruction_recovers_autocovariance():
    sk = stationary_part(spec("TC2", beta=0.8), T=200)
    p = psd(sk, M=4096)
    for tau in range(11):
        # w(tau) = (1/pi) * int_0^pi phi(theta) cos(theta tau) dtheta
        val = np.trapezoid(p.phi * np.cos(p.theta * tau), p.theta) / np.pi
        assert val == pytest.approx(sk.w[tau], abs=1e-6)


@pytest.mark.parametrize("M", [2, 64, 512])
@pytest.mark.parametrize("T", [1, 2, 50, 200])
def test_psd_equals_direct_cosine_sum_bitwise(T, M):
    sk = stationary_part(spec("DC2", beta=0.8, alpha=0.6), T=T)
    p = psd(sk, M=M)
    theta = np.linspace(0.0, np.pi, M)
    tau = np.arange(1, T)
    want = sk.w[0] + 2.0 * np.cos(np.outer(theta, tau)) @ sk.w[1:]
    assert p.theta.tobytes() == theta.tobytes()
    assert p.phi.tobytes() == want.tobytes()


def test_psd_validation():
    sk = StationaryKernel(np.array([1.0]))
    with pytest.raises(DimensionError):
        psd(sk, M=1)
    with pytest.raises(ParameterError):
        PSD(np.linspace(0, np.pi, 4), np.full(4, 0.5), normalized=True)


def test_psd_csv_dump():
    p = psd(StationaryKernel(np.array([1.0, 0.25])), M=8)
    buf = io.StringIO()
    p.to_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "theta,phi" and len(lines) == 9


# ---------------------------------------------------------------------------
# frequency mass
# ---------------------------------------------------------------------------

def test_mass_of_flat_spectrum():
    p = psd(StationaryKernel(np.r_[1.0, np.zeros(5)]), M=101)
    assert low_frequency_mass(p, np.pi / 2) == pytest.approx(0.5, rel=1e-12)
    assert low_frequency_mass(p, 1.0) == pytest.approx(1.0 / np.pi, rel=1e-12)
    assert low_frequency_mass(p, 0.0) == 0.0
    assert low_frequency_mass(p, np.pi) == 1.0
    assert low_frequency_mass(p, 5.0) == 1.0


def test_mass_monotone_in_cutoff():
    p = psd(stationary_part(spec("TC2", beta=0.8), T=150), M=301)
    cuts = np.linspace(0.05, np.pi - 0.05, 20)
    vals = [low_frequency_mass(p, c) for c in cuts]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert all(0.0 <= v <= 1.0 for v in vals)


def test_low_mass_ordering_in_delta():
    masses = []
    for d in (1, 2, 3):
        name = "TC" if d == 1 else f"TC{d}"
        p = psd(stationary_part(spec(name, beta=0.8), T=150), M=513)
        masses.append(low_frequency_mass(p, np.pi / 4))
    assert masses[0] < masses[1] < masses[2]


def test_high_mass_ordering_for_sign_flipped():
    masses = []
    for d in (1, 2, 3):
        name = "HF" if d == 1 else f"HF{d}"
        p = psd(stationary_part(spec(name, beta=0.8), T=150), M=513)
        masses.append(1.0 - low_frequency_mass(p, 3 * np.pi / 4))
    assert masses[0] < masses[1] < masses[2]
