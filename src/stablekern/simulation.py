"""Monte Carlo benchmark studies.

Two studies compare the kernel families on synthetic FIR systems: each run
draws a three-cosine impulse response, a band-limited Gaussian input, and
white measurement noise scaled to a target signal-to-noise ratio; every
configured estimator is tuned by marginal likelihood and scored with the
average impulse response fit (AIRF).

Runs are reproducible and embarrassingly parallel: the RNG stream of run
``r`` is derived from the counter-based Philox generator keyed by
``(seed, r)``, so results do not depend on scheduling or on how many workers
execute the study.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from ._blas import single_threaded
from .errors import (
    DegenerateSystemError,
    DimensionError,
    ParameterError,
    StableKernError,
)
from .estimator import Dataset, _default_sigma2, fit_hyperparameters
from .kernels import KernelSpec, parse_family

__all__ = [
    "TrueSystem",
    "ExperimentConfig",
    "MCRow",
    "MCResult",
    "sample_impulse_response",
    "generate_input",
    "simulate_output",
    "airf",
    "run_monte_carlo",
    "default_estimators",
]

#: Decay-base supports of the damped three-cosine response, per study.
AMPLITUDE_RANGES = {1: (0.8, 0.9), 2: (0.63, 0.73)}
FREQUENCY_RANGE = (0.4, 0.5)
PHASE_RANGE = (0.0, np.pi)

#: Lowpass FIR used for input shaping: order 100, Hamming-windowed sinc.
FILTER_ORDER = 100


def default_estimators(study: int) -> tuple[str, ...]:
    """Estimator sets of the two benchmark studies."""
    if study == 1:
        return ("DI", "TC", "DC", "SS", "TC2", "DC2", "TC3", "DC3")
    if study == 2:
        return ("DI", "TC", "DC", "SS", "TC2", "DC2", "TC6")
    raise ParameterError(f"study must be 1 or 2; got {study}")


@dataclass(frozen=True)
class TrueSystem:
    """Damped three-cosine impulse response
    ``g_t = sum_k a_k^t cos(b_k t + c_k)``.

    The decay bases a_k control smoothness: values near 0.85 give slowly
    decaying, smooth responses; values near 0.68 die out within half the
    practical length and look much rougher.
    """

    g: np.ndarray
    a: tuple[float, float, float]
    b: tuple[float, float, float]
    c: tuple[float, float, float]

    def __post_init__(self):
        if not np.all(np.isfinite(self.g)):
            raise ParameterError("impulse response contains non-finite values")
        self.g.setflags(write=False)


def sample_impulse_response(study: int, rng: np.random.Generator,
                            T: int = 50) -> TrueSystem:
    """Draw a random damped three-cosine system; the decay-base support
    depends on the study.

    Draw order is fixed (a, then b, then c) so equal generator states give
    identical systems.
    """
    if study not in AMPLITUDE_RANGES:
        raise ParameterError(f"study must be 1 or 2; got {study}")
    T = int(T)
    if T < 1:
        raise DimensionError(f"impulse length must be >= 1; got {T}")
    a = rng.uniform(*AMPLITUDE_RANGES[study], size=3)
    b = rng.uniform(*FREQUENCY_RANGE, size=3)
    c = rng.uniform(*PHASE_RANGE, size=3)
    t = np.arange(1, T + 1)
    g = np.sum(a[:, None] ** t * np.cos(b[:, None] * t + c[:, None]), axis=0)
    return TrueSystem(g, tuple(a), tuple(b), tuple(c))


def _lowpass_taps(f_c: float) -> np.ndarray:
    """Taps of the ``FILTER_ORDER`` lowpass: the sinc of cutoff ``f_c`` times
    a symmetric Hamming window, scaled to unit gain at zero frequency.  The
    operations are those of ``scipy.signal.firwin(FILTER_ORDER + 1, f_c,
    window="hamming")``, so the taps equal it to the bit."""
    m = np.arange(FILTER_ORDER + 1, dtype=float) - 0.5 * FILTER_ORDER
    window = 0.54 + (1.0 - 0.54) * np.cos(np.linspace(-np.pi, np.pi, FILTER_ORDER + 1))
    taps = f_c * np.sinc(f_c * m) * window
    return taps / taps.sum()


def generate_input(N: int, f_c: float, rng: np.random.Generator) -> np.ndarray:
    """Band-limited unit-variance Gaussian input.

    White Gaussian noise is shaped by a linear-phase lowpass FIR (order
    ``FILTER_ORDER``, Hamming-windowed sinc, cutoff ``f_c`` as a fraction of
    Nyquist) and rescaled to unit sample variance.  ``f_c = 1`` skips the
    filter.  The filter runs with zero initial state, as a truncated full
    convolution (what ``scipy.signal.lfilter`` computes for an FIR).
    """
    N = int(N)
    if not 0.0 < f_c <= 1.0:
        raise ParameterError(f"cutoff must lie in (0, 1]; got {f_c}")
    if N <= FILTER_ORDER:
        raise DimensionError(
            f"need N > filter order {FILTER_ORDER}; got N={N}"
        )
    white = rng.standard_normal(N)
    if f_c >= 1.0:
        shaped = white
    else:
        shaped = np.convolve(_lowpass_taps(f_c), white)[:N]
    sd = shaped.std()
    if sd == 0.0:
        raise DegenerateSystemError("input realization has zero variance")
    return shaped / sd


def simulate_output(system: TrueSystem, u: np.ndarray, snr: float,
                    rng: np.random.Generator) -> tuple[np.ndarray, float]:
    """Noisy FIR response: ``y(t) = sum_k g(k) u(t-k) + e(t)`` with zero
    initial conditions and ``sigma2 = var(y_clean) / snr`` (sample variance,
    so the realized SNR identity is exact)."""
    if not snr > 0:
        raise ParameterError(f"snr must be positive; got {snr}")
    u = np.asarray(u, dtype=float)
    N = u.size
    conv = np.convolve(u, system.g)
    y_clean = np.r_[0.0, conv][:N]
    var = float(np.var(y_clean))
    if var == 0.0:
        raise DegenerateSystemError("noise-free output has zero variance")
    sigma2 = var / snr
    y = y_clean + rng.normal(scale=np.sqrt(sigma2), size=N)
    return y, sigma2


def airf(g_true, g_hat, reference: str = "mean") -> float:
    """Average impulse response fit:
    ``100 * (1 - ||g - g_hat|| / ||g - g_ref * 1||)``.

    ``reference="mean"`` uses the mean of ``g`` (the standard fit metric);
    ``reference="sum"`` uses the plain sum, matching a literal reading of the
    benchmark formula.  Perfect recovery gives 100; the constant reference
    predictor gives 0; worse fits go negative.
    """
    g = np.asarray(g_true, dtype=float)
    gh = np.asarray(g_hat, dtype=float)
    if g.shape != gh.shape or g.ndim != 1:
        raise DimensionError(f"shape mismatch: {g.shape} vs {gh.shape}")
    if reference == "mean":
        ref = g.mean()
    elif reference == "sum":
        ref = g.sum()
    else:
        raise ParameterError(f"reference must be 'mean' or 'sum'; got {reference}")
    denom = np.linalg.norm(g - ref)
    if denom == 0.0:
        raise DegenerateSystemError(
            "reference predictor matches g exactly; AIRF is undefined"
        )
    return float(100.0 * (1.0 - np.linalg.norm(g - gh) / denom))


# ---------------------------------------------------------------------------
# experiment configuration and results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one Monte Carlo study."""

    study: int
    runs: int = 50
    N: int = 500
    T: int = 50
    seed: int = 0
    estimators: tuple[str, ...] = ()
    snr: float = 1.0
    f_c: float = 0.2
    sigma2_mode: str = "estimated"

    def __post_init__(self):
        if self.study not in (1, 2):
            raise ParameterError(f"study must be 1 or 2; got {self.study}")
        if self.runs < 1:
            raise ParameterError(f"runs must be >= 1; got {self.runs}")
        if not self.snr > 0:
            raise ParameterError(f"snr must be positive; got {self.snr}")
        if self.sigma2_mode not in ("true", "estimated"):
            raise ParameterError(
                f"sigma2_mode must be 'true' or 'estimated'; got {self.sigma2_mode}"
            )
        if not self.estimators:
            object.__setattr__(self, "estimators", default_estimators(self.study))
        else:
            object.__setattr__(self, "estimators", tuple(self.estimators))
        for name in self.estimators:
            parse_family(name)

    def to_json(self) -> str:
        return json.dumps(
            {
                "study": self.study,
                "runs": self.runs,
                "N": self.N,
                "T": self.T,
                "seed": self.seed,
                "estimators": list(self.estimators),
                "snr": self.snr,
                "f_c": self.f_c,
                "sigma2_mode": self.sigma2_mode,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        d = json.loads(text)
        d["estimators"] = tuple(d.get("estimators", ()))
        return cls(**d)


@dataclass(frozen=True)
class MCRow:
    """One (run, estimator) outcome; ``error`` is set when the fit failed.

    Wall time is informational and excluded from equality so that repeated
    runs with the same seed compare equal.
    """

    run: int
    estimator: str
    airf: float
    spec: KernelSpec | None
    lam: float
    sigma2: float
    seconds: float = field(compare=False, default=0.0)
    error: str | None = None


@dataclass(frozen=True)
class MCResult:
    config: ExperimentConfig
    rows: tuple[MCRow, ...]

    def median_airf(self) -> dict[str, float]:
        """Median AIRF per estimator; failed fits are excluded."""
        out = {}
        for name in self.config.estimators:
            vals = [r.airf for r in self.rows
                    if r.estimator == name and r.error is None]
            out[name] = float(np.median(vals)) if vals else float("nan")
        return out

    def to_csv(self, path_or_file, include_timing: bool = False) -> None:
        """CSV table (run, estimator, airf, hyperparameters).

        Wall-time seconds are emitted only on request so that repeated runs
        of the same study produce byte-identical files.
        """
        close = False
        if isinstance(path_or_file, (str, bytes)):
            fh = open(path_or_file, "w")
            close = True
        else:
            fh = path_or_file
        try:
            cols = "run,estimator,airf,beta,alpha,delta,gamma,lambda,sigma2"
            fh.write(cols + (",seconds\n" if include_timing else "\n"))

            def fmt(v):
                return "" if v is None else f"{v:.16e}"

            for r in self.rows:
                sp = r.spec
                cells = [
                    str(r.run),
                    r.estimator,
                    f"{r.airf:.16e}",
                    fmt(sp.beta if sp else None),
                    fmt(sp.alpha if sp else None),
                    "" if sp is None or sp.delta is None else str(sp.delta),
                    fmt(sp.gamma if sp else None),
                    fmt(r.lam if sp else None),
                    f"{r.sigma2:.16e}",
                ]
                if include_timing:
                    cells.append(f"{r.seconds:.3f}")
                fh.write(",".join(cells) + "\n")
        finally:
            if close:
                fh.close()


def _run_rng(seed: int, run: int) -> np.random.Generator:
    # counter-based, splittable: the stream depends only on (seed, run)
    return np.random.Generator(np.random.Philox(key=[seed, run]))


def _single_run(config: ExperimentConfig, run: int) -> list[MCRow]:
    rng = _run_rng(config.seed, run)
    system = sample_impulse_response(config.study, rng, T=config.T)
    u = generate_input(config.N, config.f_c, rng)
    y, sigma2 = simulate_output(system, u, config.snr, rng)
    known = sigma2 if config.sigma2_mode == "true" else None
    dataset = Dataset(u, y, sigma2=known)
    # the noise pre-fit is the same for every estimator, so it is made once;
    # if it fails, each fit makes it again and reports the failure
    fit_sigma2 = known
    if fit_sigma2 is None:
        try:
            fit_sigma2 = _default_sigma2(dataset, config.T)
        except StableKernError:
            pass
    rows = []
    for name in config.estimators:
        t0 = time.perf_counter()
        try:
            res = fit_hyperparameters(dataset, name, T=config.T, sigma2=fit_sigma2)
            score = airf(system.g, res.g_hat)
            rows.append(
                MCRow(run, name, score, res.spec, res.lam, res.sigma2,
                      time.perf_counter() - t0)
            )
        except StableKernError as exc:
            rows.append(
                MCRow(run, name, float("nan"), None, float("nan"), sigma2,
                      time.perf_counter() - t0, error=str(exc))
            )
    return rows


@single_threaded
def run_monte_carlo(config: ExperimentConfig, workers: int | None = None) -> MCResult:
    """Execute a study; deterministic for a fixed seed regardless of worker
    count.  Individual estimator failures become NaN rows, not exceptions."""
    if workers is None or workers < 1:
        workers = 1
    runs = range(1, config.runs + 1)
    if workers == 1:
        per_run = [_single_run(config, r) for r in runs]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_run = list(pool.map(_single_run, [config] * config.runs, runs))
    rows = tuple(row for chunk in per_run for row in chunk)
    return MCResult(config, rows)
