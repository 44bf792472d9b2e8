"""Band extension tests.

The completion is checked against three oracles: hand-derived one-step
values, a golden-section search maximizing log det over a single free entry,
and random feasible perturbations that must never beat the completion's
entropy.
"""

import io

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from stablekern.errors import (
    DimensionError,
    InfeasibleExtensionError,
    ParameterError,
)
from stablekern.kernels import KernelSpec, build_kernel, build_inverse
from stablekern.maxent import (
    BandSpec,
    check_feasibility,
    maxent_completion,
    one_step_extension,
)


def kernel_bands(name, T, m=None, **kw):
    sp = KernelSpec.from_name(name, **kw)
    K = build_kernel(sp, T)
    return BandSpec.from_matrix(K, sp.bandwidth if m is None else m), K


# ---------------------------------------------------------------------------
# one-step extension
# ---------------------------------------------------------------------------

def test_one_step_tc_hand_value():
    # 3x3 TC partial with unknown corner; y = (4, -4) gives x = 0.125 = beta^3
    C = np.array([[0.5, 0.25, 0.0], [0.25, 0.25, 0.125], [0.0, 0.125, 0.125]])
    x = one_step_extension(C)
    assert x == pytest.approx(0.125, rel=1e-14)
    # hand-check the intermediate solve
    y = np.linalg.solve(C[:2, :2], [1.0, 0.0])
    np.testing.assert_allclose(y, [4.0, -4.0], rtol=1e-13)


def test_one_step_tc2_value_against_search_oracle():
    _, K = kernel_bands("TC2", 4, beta=0.5)
    partial = K.copy()
    partial[0, 3] = partial[3, 0] = 0.0
    x = one_step_extension(partial)
    assert x == pytest.approx(0.1875, rel=1e-13)  # 2 b^5 + 4 (1-b) b^4 at b = 1/2

    def det_at(v):
        M = partial.copy()
        M[0, 3] = M[3, 0] = v
        return np.linalg.det(M)

    # det is quadratic in the corner entry; PD exactly between its roots
    coeffs = np.polyfit([0.0, 0.2, 0.4], [det_at(v) for v in (0.0, 0.2, 0.4)], 2)
    lo, hi = np.sort(np.roots(coeffs))

    def neg_entropy(v):
        d = det_at(v)
        return 1e6 if d <= 0 else -np.log(d)

    res = minimize_scalar(neg_entropy, bounds=(lo + 1e-9, hi - 1e-9),
                          method="bounded", options={"xatol": 1e-12})
    assert lo < x < hi
    assert x == pytest.approx(res.x, abs=1e-8)


def test_one_step_block_diagonal_is_zero():
    C = np.diag([2.0, 3.0, 1.5, 0.5])
    assert one_step_extension(C) == 0.0


def test_one_step_scaling_homogeneity():
    rng = np.random.default_rng(11)
    A = rng.normal(size=(5, 5))
    C = A @ A.T + 5 * np.eye(5)
    x = one_step_extension(C)
    assert one_step_extension(3.7 * C) == pytest.approx(3.7 * x, rel=1e-12)


def test_one_step_rejects_infeasible_and_bad_shapes():
    C = np.eye(3)
    C[0, 0] = -1.0
    with pytest.raises(InfeasibleExtensionError):
        one_step_extension(C)
    with pytest.raises(DimensionError):
        one_step_extension(np.ones((1, 1)))
    with pytest.raises(DimensionError):
        one_step_extension(np.ones((2, 3)))


# ---------------------------------------------------------------------------
# feasibility
# ---------------------------------------------------------------------------

def test_feasibility_identity_and_rank_deficient():
    ident = BandSpec.from_matrix(np.eye(6), 2)
    assert check_feasibility(ident) == (True, None)
    data = np.ones((2, 4))  # c_tt = 1, c_{t,t+1} = 1: singular 2x2 blocks
    bad = BandSpec(4, 1, data)
    assert check_feasibility(bad) == (False, 1)


def test_feasibility_tc2_large():
    band, _ = kernel_bands("TC2", 50, beta=0.9)
    assert check_feasibility(band) == (True, None)


def test_completion_reports_first_failure_index():
    M = build_kernel(KernelSpec.from_name("TC", beta=0.5), 5)
    M[2, 2] = -1.0  # poison the block starting at t = 2
    band = BandSpec.from_matrix(M, 1)
    with pytest.raises(InfeasibleExtensionError) as exc:
        maxent_completion(band)
    assert exc.value.index == 2
    # several failing blocks: the first one is reported by both entry points
    M = build_kernel(KernelSpec.from_name("TC", beta=0.5), 8)
    M[2, 2] = M[5, 5] = -1.0
    band = BandSpec.from_matrix(M, 1)
    assert check_feasibility(band) == (False, 2)
    with pytest.raises(InfeasibleExtensionError) as exc:
        maxent_completion(band)
    assert exc.value.index == 2


# ---------------------------------------------------------------------------
# completions reproduce the kernels
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("beta", [0.3, 0.8])
def test_completion_reproduces_tc2(beta):
    band, K = kernel_bands("TC2", 10, beta=beta)
    res = maxent_completion(band)
    assert np.max(np.abs(res.matrix - K)) < 1e-10


@pytest.mark.parametrize("alpha", [0.2, 0.5, 0.7])
def test_completion_reproduces_dc2(alpha):
    band, K = kernel_bands("DC2", 10, beta=0.8, alpha=alpha)
    res = maxent_completion(band)
    assert np.max(np.abs(res.matrix - K)) < 1e-10


@pytest.mark.parametrize(
    "name, kw",
    [
        ("TC", dict(beta=0.6)),
        ("DC", dict(beta=0.6, alpha=-0.5)),
        ("HF2", dict(beta=0.7)),
        ("DI", dict(beta=0.6)),  # m = 0: completes to a diagonal
    ],
)
def test_completion_reproduces_banded_families(name, kw):
    band, K = kernel_bands(name, 9, **kw)
    res = maxent_completion(band)
    assert np.max(np.abs(res.matrix - K)) < 1e-10


@pytest.mark.parametrize(
    "name, kw",
    [("TC3", dict(beta=0.8)), ("DC3", dict(beta=0.8, alpha=0.5))],
)
def test_completion_reproduces_series_built_kernels(name, kw):
    band, K = kernel_bands(name, 10, **kw)
    res = maxent_completion(band)
    assert np.max(np.abs(res.matrix - K)) < 1e-8


def test_completion_reproduces_long_tc3_band():
    # The one-step loop and the diagonal fill both land near 5e-13 of max|K|
    # here; inverting the summed clique and separator inverses densely lands
    # near 2e-10, so this bound tells the routes apart.
    band, K = kernel_bands("TC3", 100, beta=0.78)
    res = maxent_completion(band)
    assert np.max(np.abs(res.matrix - K)) < 1e-11 * np.max(np.abs(K))


def test_complete_spec_returned_unchanged():
    _, K = kernel_bands("TC", 5, beta=0.5)
    band = BandSpec.from_matrix(K, 4)
    res = maxent_completion(band)
    np.testing.assert_array_equal(res.matrix, K)


def test_completion_result_invariants():
    band, _ = kernel_bands("DC2", 8, beta=0.7, alpha=0.3)
    res = maxent_completion(band)
    M = res.matrix
    np.testing.assert_array_equal(M, M.T)
    assert np.linalg.eigvalsh(M)[0] > 0
    # agrees with the band data
    for d in range(band.bandwidth + 1):
        np.testing.assert_array_equal(np.diag(M, d), band.data[d, : band.dim - d])
    assert res.entropy == pytest.approx(np.linalg.slogdet(M)[1], rel=1e-12)
    with pytest.raises(ValueError):
        M[0, 0] = 9.0  # result is read-only


def test_completed_inverse_is_banded():
    band, _ = kernel_bands("TC2", 12, beta=0.6)
    res = maxent_completion(band)
    Kinv = np.linalg.inv(res.matrix)
    t = np.arange(12)
    outside = np.abs(np.subtract.outer(t, t)) > 2
    assert np.max(np.abs(Kinv[outside])) < 1e-9 * np.max(np.abs(Kinv))


def test_each_filled_entry_is_one_step_of_its_window():
    for name, T, kw in [("DC2", 7, dict(beta=0.75, alpha=0.4)),
                        ("TC3", 12, dict(beta=0.8)),
                        ("DC", 20, dict(beta=0.6, alpha=-0.5))]:
        band, _ = kernel_bands(name, T, **kw)
        M = maxent_completion(band).matrix
        for d in range(band.bandwidth + 1, T):
            for t in range(T - d):
                window = M[t : t + d + 1, t : t + d + 1].copy()
                window[0, -1] = window[-1, 0] = 0.0
                assert one_step_extension(window) == pytest.approx(M[t, t + d], rel=1e-12)


# ---------------------------------------------------------------------------
# entropy optimality (random falsification)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "name, T, kw",
    [("TC", 5, dict(beta=0.5)), ("TC2", 6, dict(beta=0.6)),
     ("DC2", 6, dict(beta=0.7, alpha=0.4))],
)
def test_completion_beats_random_feasible_completions(name, T, kw):
    band, _ = kernel_bands(name, T, **kw)
    res = maxent_completion(band)
    m = band.bandwidth
    free = [(t, s) for t in range(T) for s in range(t + m + 1, T)]
    lam_min = np.linalg.eigvalsh(res.matrix)[0]
    rng = np.random.default_rng(101)
    accepted = 0
    draws = 0
    while accepted < 200 and draws < 5000:
        draws += 1
        M = res.matrix.copy()
        noise = rng.normal(scale=0.2 * lam_min, size=len(free))
        for (t, s), dv in zip(free, noise):
            M[t, s] += dv
            M[s, t] += dv
        if np.linalg.eigvalsh(M)[0] <= 0:
            continue  # projection by rejection: keep only feasible draws
        accepted += 1
        sign, ld = np.linalg.slogdet(M)
        assert sign > 0
        assert res.entropy - ld > 1e-9 or np.allclose(noise, 0)
    assert accepted == 200


# ---------------------------------------------------------------------------
# BandSpec plumbing
# ---------------------------------------------------------------------------

def test_band_spec_entry_accessor():
    band, K = kernel_bands("TC2", 6, beta=0.5)
    assert band.entry(2, 4) == K[1, 3]
    assert band.entry(4, 2) == K[1, 3]
    with pytest.raises(ParameterError):
        band.entry(1, 5)


def test_band_spec_validation():
    with pytest.raises(ParameterError):
        BandSpec(4, 4, np.zeros((5, 4)))
    with pytest.raises(DimensionError):
        BandSpec(4, 1, np.zeros((3, 4)))
    for bad in (np.nan, np.inf, -np.inf):
        for d, t in [(0, 5), (2, 1)]:  # a diagonal entry, an outer band entry
            data = np.ones((3, 6))
            data[d, t] = bad
            with pytest.raises(ParameterError, match="finite"):
                BandSpec(6, 2, data)
        M = np.eye(6)
        M[1, 3] = M[3, 1] = bad
        with pytest.raises(ParameterError, match="finite"):
            BandSpec.from_matrix(M, 2)
        data = np.ones((3, 6))
        data[2, 4:] = bad  # past dim - d: ignored
        assert np.all(np.isfinite(BandSpec(6, 2, data).to_matrix()))
    asym = np.eye(3)
    asym[0, 1] = 0.5
    with pytest.raises(ParameterError):
        BandSpec.from_matrix(asym, 1)


def test_band_spec_csv_round_trip():
    band, _ = kernel_bands("DC2", 7, beta=0.8, alpha=0.25)
    buf = io.StringIO()
    band.to_csv(buf)
    buf.seek(0)
    back = BandSpec.from_csv(buf)
    assert back.dim == band.dim and back.bandwidth == band.bandwidth
    np.testing.assert_allclose(back.to_matrix(), band.to_matrix(), rtol=1e-15)


def test_band_spec_csv_rejects_conflicts_and_gaps():
    with pytest.raises(ParameterError):
        BandSpec.from_csv(io.StringIO("1,1,1.0\n2,2,1.0\n1,2,0.5\n2,1,0.6\n"))
    with pytest.raises(ParameterError):
        # T = 3 with bandwidth 1 but the (2, 3) entry missing
        BandSpec.from_csv(io.StringIO("1,1,1.0\n2,2,1.0\n3,3,1.0\n1,2,0.5\n"))
    with pytest.raises(ParameterError, match="diagonal 1 incomplete"):
        # as many rows as entries, but (1, 2) twice and (2, 3) missing
        BandSpec.from_csv(io.StringIO("1,1,1.0\n2,2,1.0\n3,3,1.0\n1,2,0.5\n1,2,0.5\n"))


@pytest.mark.parametrize(
    "text, message",
    [("nan,1,1.0\n1,2,0.5\n", r"row 1: indices \(nan, 1\) are not integers"),
     ("1,1,1.0\n2,2,1.0\n1.7,2,0.5\n", r"row 3: indices \(1.7, 2\) are not integers"),
     ("0,1,1.0\n1,1,1.0\n", r"row 1: indices \(0, 1\) are not integers"),
     ("1,1,1.0\n2,2,1.0\n1,2,inf\n", "row 3: value inf is not finite"),
     ("1,1,1.0\n1e9,1e9,1.0\n", "2 rows for the 1000000000 entries")],
    ids=["nan-index", "fractional-index", "zero-index", "inf-value", "huge-index"],
)
def test_band_spec_csv_refuses_bad_indices_and_values(text, message):
    # these once raised numpy's "Maximum allowed dimension exceeded" (nan),
    # read 1.7 as 1, wrapped index 0 to the last column, or were reported as
    # an incomplete diagonal (inf); a huge index would size the storage
    with pytest.raises(ParameterError, match=f"band CSV.*{message}"):
        BandSpec.from_csv(io.StringIO(text))


def test_band_spec_csv_names_a_cell_that_is_not_a_number():
    with pytest.raises(ParameterError, match="band CSV, line 2, column 3: 'oops'"):
        BandSpec.from_csv(io.StringIO("1,1,1.0\n2,2,oops\n1,2,0.5\n"))
