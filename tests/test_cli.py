"""End-to-end tests of the command-line interface."""

import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stablekern
from stablekern.cli import main
from stablekern.estimator import Dataset
from stablekern.kernels import MAX_ORDER, KernelSpec, build_kernel, matrix_from_csv


def run_cli(*argv):
    return main(list(argv))


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------

def test_kernel_matrix_stdout(capsys):
    assert run_cli("kernel", "--family", "DI", "--beta", "0.5",
                   "--dim", "2") == 0
    out = capsys.readouterr().out.strip().splitlines()
    row0 = [float(x) for x in out[0].split(",")]
    row1 = [float(x) for x in out[1].split(",")]
    assert row0 == [0.5, 0.0] and row1 == [0.0, 0.25]


def test_kernel_logdet_value(capsys):
    assert run_cli("kernel", "--family", "TC2", "--beta", "0.5",
                   "--dim", "2", "--logdet") == 0
    out = capsys.readouterr().out.strip()
    assert float(out) == pytest.approx(math.log(0.03125), abs=1e-12)
    assert float(out) == pytest.approx(-3.4657, abs=1e-4)


def test_kernel_inverse_and_cholesky(tmp_path):
    inv_path = tmp_path / "inv.csv"
    chol_path = tmp_path / "chol.csv"
    args = ["kernel", "--family", "TC", "--beta", "0.7", "--dim", "6"]
    assert run_cli(*args, "--inverse", "--out", str(inv_path)) == 0
    assert run_cli(*args, "--cholesky", "--out", str(chol_path)) == 0
    K = build_kernel(KernelSpec("TC", beta=0.7), 6)
    Kinv = matrix_from_csv(str(inv_path))
    L = matrix_from_csv(str(chol_path))
    np.testing.assert_allclose(K @ Kinv, np.eye(6), atol=1e-10)
    np.testing.assert_allclose(L @ L.T, Kinv, atol=1e-10)


def test_kernel_generic_delta_family(capsys):
    assert run_cli("kernel", "--family", "TCd", "--delta", "3",
                   "--beta", "0.6", "--dim", "4") == 0
    M = np.array([[float(x) for x in line.split(",")]
                  for line in capsys.readouterr().out.strip().splitlines()])
    K = build_kernel(KernelSpec("TCd", beta=0.6, delta=3), 4)
    np.testing.assert_allclose(M, K, rtol=1e-14)


def test_kernel_domain_error_exit_1(capsys):
    code = run_cli("kernel", "--family", "TCd", "--delta", "3",
                   "--beta", "1.2", "--dim", "5")
    assert code == 1
    assert "beta" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["--logdet", "--cholesky", "--inverse"])
def test_kernel_ill_conditioned_factor_exit_1(capsys, mode):
    # the order-6 trailing corner's estimated backward error is too large
    # here; the inverse is the factor's L L', so it is refused alike
    code = run_cli("kernel", "--family", "TC6", "--beta", "0.99", "--dim", "50",
                   mode)
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "Traceback" not in captured.err
    assert captured.out == ""


def test_kernel_dc6_near_unit_decay_is_bounded():
    # the DC6 kernel at beta = 0.999 is closed; its corner series certifies
    # within its doubling cap, and the corner is refused with an error, not a
    # traceback
    src = str(Path(stablekern.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    argv = [sys.executable, "-m", "stablekern.cli", "kernel", "--family", "DC6",
            "--beta", "0.999", "--alpha", "0.5", "--dim", "50"]
    done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    K = np.loadtxt(io.StringIO(done.stdout), delimiter=",")
    assert K.shape == (50, 50) and np.all(np.isfinite(K))
    done = subprocess.run(argv + ["--cholesky"], capture_output=True, text=True,
                          env=env, timeout=60)
    assert done.returncode == 1
    assert done.stderr.startswith("error:") and "Traceback" not in done.stderr


def test_kernel_near_unit_decay_is_refused_by_series_length():
    # the TC3 series would start at ~4.5e8 terms at this beta
    src = str(Path(stablekern.__file__).resolve().parents[1])
    argv = [sys.executable, "-m", "stablekern.cli", "kernel", "--family", "TC3",
            "--beta", "0.9999999", "--dim", "5", "--cholesky"]
    done = subprocess.run(argv, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert done.returncode == 1
    assert done.stderr.startswith("error:") and "series terms" in done.stderr


@pytest.mark.parametrize(
    "argv",
    [["--family", "TC", "--beta", "5e-4", "--dim", "200", "--logdet"],
     ["--family", "TC", "--beta", "1e-3", "--dim", "200", "--inverse"],
     ["--family", "DI", "--beta", "1.5e-238", "--dim", "5", "--cholesky"]],
    ids=["TC-logdet", "TC-inverse", "DI-cholesky"],
)
def test_kernel_past_the_largest_double_exit_1(capsys, argv):
    # the factor's columns carry beta^(-t/2): where L or L L' would overflow
    # the command names the limit, where it once ended in an OverflowError
    # traceback (TC at 5e-4) or wrote inf entries (exit 0)
    assert run_cli("kernel", *argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "largest double" in captured.err
    assert captured.out == ""


def test_kernel_dc_large_alpha_is_finite(capsys):
    # alpha^(dim-1) overflows here; the entries (alpha beta)^|t-s| beta^min(t,s)
    # do not, where the command once printed 12432 NaN
    mp = pytest.importorskip("mpmath")
    assert run_cli("kernel", "--family", "DC", "--beta", "1e-7", "--alpha", "3000",
                   "--dim", "200") == 0
    K = np.loadtxt(io.StringIO(capsys.readouterr().out), delimiter=",")
    t = np.arange(1, 201)
    with mp.workdps(30):
        ab, b = mp.mpf(3000.0) * mp.mpf(1e-7), mp.mpf(1e-7)
        want = np.array([[float(ab ** abs(i - j) * b ** min(i, j)) for j in t] for i in t])
    np.testing.assert_allclose(K, want, rtol=1e-13, atol=np.finfo(float).tiny)


@pytest.mark.parametrize("mode", ["--cholesky", "--logdet", "--inverse"])
@pytest.mark.parametrize("delta", [MAX_ORDER + 1, 1100])
def test_kernel_order_above_the_cap_exit_1(capsys, delta, mode):
    # 1100 used to end in an OverflowError traceback from math.comb
    code = run_cli("kernel", "--family", "TCd", "--delta", str(delta), "--beta", "0.5",
                   "--dim", str(delta + 2), mode)
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "MAX_ORDER" in captured.err
    assert captured.out == ""


def test_kernel_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        run_cli("kernel", "--family", "TC", "--beta", "0.5")  # no --dim
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run_cli("kernel", "--family", "TC", "--beta", "0.5", "--dim", "3",
                "--bogus")
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run_cli("nonsense-verb")
    assert exc.value.code == 2


def test_kernel_exclusive_modes():
    with pytest.raises(SystemExit) as exc:
        run_cli("kernel", "--family", "TC", "--beta", "0.5", "--dim", "3",
                "--logdet", "--inverse")
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# maxent-verify
# ---------------------------------------------------------------------------

def test_maxent_verify_tc2(capsys):
    assert run_cli("maxent-verify", "--family", "TC2", "--beta", "0.8",
                   "--dim", "10", "--tol", "1e-8") == 0
    assert "max deviation" in capsys.readouterr().out


def test_maxent_verify_dc2():
    assert run_cli("maxent-verify", "--family", "DC2", "--beta", "0.8",
                   "--alpha", "0.5", "--dim", "10", "--tol", "1e-8") == 0


def test_maxent_verify_perturbed_fails(capsys):
    # 0.1 pushes the band outside the feasible cone: detected via exit 1
    code = run_cli("maxent-verify", "--family", "TC2", "--beta", "0.8",
                   "--dim", "10", "--tol", "1e-8", "--perturb", "0.1")
    assert code == 1
    assert "infeasible" in capsys.readouterr().err
    # a small tamper stays feasible and is detected by its deviation
    code = run_cli("maxent-verify", "--family", "TC2", "--beta", "0.8",
                   "--dim", "10", "--tol", "1e-8", "--perturb", "0.01")
    assert code == 1
    deviation = float(capsys.readouterr().out.split()[-1])
    assert deviation > 1e-4


def test_maxent_verify_ss_rejected(capsys):
    code = run_cli("maxent-verify", "--family", "SS", "--gamma", "0.8",
                   "--dim", "8")
    assert code == 1
    assert "error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

@pytest.fixture
def impulse_dataset(tmp_path):
    # impulse train input, exponential response, tiny noise (snr ~ 100)
    rng = np.random.default_rng(77)
    T, N = 10, 200
    g = 0.7 ** np.arange(1, T + 1)
    u = np.zeros(N)
    u[::25] = 1.0
    y_clean = np.r_[0.0, np.convolve(u, g)][:N]
    sigma2 = float(np.var(y_clean)) / 100.0
    y = y_clean + rng.normal(scale=math.sqrt(sigma2), size=N)
    path = tmp_path / "data.csv"
    Dataset(u, y).to_csv(str(path))
    return path, g, sigma2


def test_fit_recovers_impulse_response(impulse_dataset, capsys):
    path, g, sigma2 = impulse_dataset
    assert run_cli("fit", "--data", str(path), "--family", "TC",
                   "--T", "10", "--sigma2", str(sigma2)) == 0
    result = json.loads(capsys.readouterr().out)
    g_hat = np.array(result["g_hat"])
    rms = math.sqrt(float(np.mean((g_hat - g) ** 2)))
    assert rms < 1e-2
    assert result["family"] == "TC"


def test_fit_estimated_sigma2(impulse_dataset, tmp_path):
    path, g, _ = impulse_dataset
    out = tmp_path / "fit.json"
    assert run_cli("fit", "--data", str(path), "--family", "TC2",
                   "--T", "10", "--out", str(out)) == 0
    result = json.loads(out.read_text())
    assert result["family"] == "TC2"
    assert result["sigma2"] > 0


@pytest.mark.parametrize("verb", ["kernel", "fit", "psd"])
@pytest.mark.parametrize(
    "family, message",
    [(["--family", "TCd"], "error: family TCd requires delta\n"),
     (["--family", "TC3", "--delta", "4"], "error: order suffix in 'TC3' contradicts delta=4\n")],
    ids=["tag-without-delta", "suffix-contradicts-delta"],
)
def test_every_verb_reads_family_names_alike(impulse_dataset, capsys, verb, family, message):
    path, _, _ = impulse_dataset
    rest = {"kernel": ["--dim", "8"], "fit": ["--data", str(path), "--T", "10"],
            "psd": ["--sweep-delta", "3"]}[verb]
    assert run_cli(verb, *family, "--beta", "0.5", *rest) == 1
    captured = capsys.readouterr()
    assert captured.err == message and captured.out == ""


def test_fit_tag_with_delta_matches_compact_name(impulse_dataset, capsys):
    path, _, sigma2 = impulse_dataset
    args = ["--data", str(path), "--T", "10", "--sigma2", str(sigma2)]
    assert run_cli("fit", "--family", "TCd", "--delta", "2", *args) == 0
    tagged = capsys.readouterr().out
    assert run_cli("fit", "--family", "TC2", *args) == 0
    assert tagged == capsys.readouterr().out
    assert json.loads(tagged)["family"] == "TC2"


def test_fit_missing_file_exit_1(capsys):
    assert run_cli("fit", "--data", "/no/such/file.csv",
                   "--family", "TC") == 1
    assert "error" in capsys.readouterr().err


def test_fit_sigma2_zero_usage_error():
    with pytest.raises(SystemExit) as exc:
        run_cli("fit", "--data", "x.csv", "--family", "TC",
                "--sigma2", "0")
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# mc
# ---------------------------------------------------------------------------

MC_ARGS = ("mc", "--study", "1", "--runs", "2", "--seed", "7",
           "--estimators", "TC", "--N", "150", "--T", "10")


def test_mc_deterministic_csv(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(*MC_ARGS, "--out", str(out1)) == 0
    assert run_cli(*MC_ARGS, "--out", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()[0]
    assert header == "run,estimator,airf,beta,alpha,delta,gamma,lambda,sigma2"


def test_mc_summary_lines(capsys, tmp_path):
    out = tmp_path / "mc.csv"
    assert run_cli(*MC_ARGS, "--out", str(out)) == 0
    stdout = capsys.readouterr().out
    assert "median airf TC" in stdout


def test_mc_timing_column(tmp_path):
    out = tmp_path / "t.csv"
    assert run_cli(*MC_ARGS, "--timing", "--out", str(out)) == 0
    assert out.read_text().splitlines()[0].endswith(",seconds")


def test_mc_runs_zero_usage_error():
    with pytest.raises(SystemExit) as exc:
        run_cli("mc", "--study", "1", "--runs", "0")
    assert exc.value.code == 2


def test_mc_bad_estimator_exit_1(capsys):
    assert run_cli("mc", "--study", "1", "--runs", "1",
                   "--estimators", "XX7", "--N", "150", "--T", "10") == 1
    assert "error" in capsys.readouterr().err


def test_mc_env_threads_precedence(monkeypatch, capsys, tmp_path):
    monkeypatch.setenv("STABLEKERN_THREADS", "junk")
    assert run_cli(*MC_ARGS, "--threads", "1",
                   "--out", str(tmp_path / "x.csv")) == 1
    assert "STABLEKERN_THREADS" in capsys.readouterr().err
    monkeypatch.setenv("STABLEKERN_THREADS", "1")
    assert run_cli(*MC_ARGS, "--threads", "2",
                   "--out", str(tmp_path / "y.csv")) == 0


# ---------------------------------------------------------------------------
# psd
# ---------------------------------------------------------------------------

def test_psd_di_flat_after_normalization(capsys):
    assert run_cli("psd", "--family", "DI", "--beta", "0.5",
                   "--grid", "64", "--normalize") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "theta,phi"
    phi = np.array([float(l.split(",")[1]) for l in lines[1:]])
    np.testing.assert_allclose(phi, 1.0, atol=1e-12)


def test_psd_csv_out(tmp_path):
    out = tmp_path / "psd.csv"
    assert run_cli("psd", "--family", "TC2", "--beta", "0.8",
                   "--grid", "128", "--out", str(out)) == 0
    data = np.loadtxt(str(out), delimiter=",", skiprows=1)
    assert data.shape == (128, 2)
    assert data[0, 0] == 0.0 and data[-1, 0] == pytest.approx(math.pi)


def test_psd_sweep_tc_low_mass_increasing(capsys):
    assert run_cli("psd", "--family", "TC", "--beta", "0.8",
                   "--grid", "512", "--sweep-delta", "4") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    masses = [float(l.split()[1].split("=")[1]) for l in lines]
    assert len(masses) == 4
    assert all(b > a for a, b in zip(masses, masses[1:]))


def test_psd_sweep_hf_high_mass_increasing(capsys):
    assert run_cli("psd", "--family", "HF", "--beta", "0.8",
                   "--grid", "512", "--sweep-delta", "3") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    masses = [float(l.split()[2].split("=")[1]) for l in lines]
    assert all(b > a for a, b in zip(masses, masses[1:]))


def test_psd_sweep_rejects_ss(capsys):
    assert run_cli("psd", "--family", "SS", "--gamma", "0.5",
                   "--sweep-delta", "3") == 1
    assert "error" in capsys.readouterr().err
