"""The workloads of the stablekern benchmark.

Each workload makes its inputs from the benchmark seed in ``setup``, does
one unit of timed work per ``unit`` call and checks every output it
produced.  An op is one call a user of the library would make: a fit, a
kernel query or a band completion.  Every op ends with one outcome:

* ``ok``: returned, and its output passed the workload's checks;
* ``raw``: raised an exception that is not a ``StableKernError``;
* ``refused``: raised a ``StableKernError`` (or, in the Monte Carlo harness,
  produced an error row);
* ``timeout`` / ``memory``: hit the per-op wall-clock or address-space cap
  (``kernel-sweep`` only);
* ``check``: returned, but its output failed a check.

Workloads call the library only through module attributes
(``sk.kernels.build_kernel(...)``), so the tracer's wrappers see the calls.
"""

from __future__ import annotations

import math
import os
import resource
import signal
import time
import warnings
from dataclasses import dataclass

import numpy as np

OK, RAW, REFUSED, TIMEOUT, MEMORY, CHECK = (
    "ok", "raw", "refused", "timeout", "memory", "check")
FAIL_CAUSES = (RAW, REFUSED, TIMEOUT, MEMORY, CHECK)

EPS = float(np.finfo(float).eps)


@dataclass
class Op:
    kind: str
    seconds: float
    outcome: str
    row: object = None
    detail: str = ""


def classify(exc: BaseException, errors) -> str:
    if isinstance(exc, errors.StableKernError):
        return REFUSED
    if isinstance(exc, MemoryError):
        return MEMORY
    return RAW


# ---------------------------------------------------------------------------
# mc-serial
# ---------------------------------------------------------------------------

#: Study and base seed of the criterion-6 acceptance configs (N=500, T=50).
STUDY_SEEDS = ((1, 0), (2, 21))
#: Runs per ``run_monte_carlo`` call: one per worker of the pool phase.
RUNS_PER_BATCH = 2
#: Relative tolerance of the returned objective against ``nll_direct``.
NLL_RTOL = 1e-8
#: Phases of a run: the measured one, the traced repeat, the traced run's
#: pool phase.
UNTRACED, TRACED, POOL = "untraced", "traced", "pool"


class MonteCarlo:
    """``run_monte_carlo(workers=1)`` on prefixes of the two criterion-6
    studies: every estimator family, with the estimator and the series
    kernels doing the work.

    A unit is one call per study with ``RUNS_PER_BATCH`` runs (30 fits).
    Unit 0 is the acceptance gate's prefix (study 1 seed 0, study 2 seed 21)
    and unit ``u`` uses seeds ``+ 1000 u``; the estimators run in the default
    order and the benchmark seed only orders the two studies.  Fit cost
    depends strongly on the data (one study-1 pair takes 5.7 s at seed 0 and
    7.0 s at seed 5), so drawing datasets from the seed would make the
    run-to-run spread measure the inputs, not the program.

    The traced run adds a pool phase: unit 0 again with ``workers = 2``
    (at most the core count), as ``stablekern mc`` runs it, with the BLAS
    settings its users get.  Its rows must equal the serial rows.
    """

    name = "mc-serial"
    #: unit time at the seed commit on a 2-core x86-64 VM; it turns
    #: ``--seconds`` into a fixed number of units
    nominal_unit_s = 10.0

    def setup(self, sk, seed: int) -> None:
        self.sk = sk
        self.seed = seed
        self.unit_index = 0
        self.phase = UNTRACED
        self.batches = []  # (phase, config, MCResult, ops, captured fits)
        self.captured = []
        self.pool_workers = min(RUNS_PER_BATCH, os.cpu_count() or 1)
        self.pool_wall = 0.0
        sim = sk.simulation
        original = sim.fit_hyperparameters

        def capture(*args, **kwargs):
            result = original(*args, **kwargs)
            self.captured.append((args, kwargs, result))
            return result

        sim.fit_hyperparameters = capture
        # warm-up: one small fit through the same code path as the studies
        rng = np.random.Generator(np.random.Philox(key=[seed, 0]))
        system = sim.sample_impulse_response(1, rng, T=10)
        u = sim.generate_input(200, 0.2, rng)
        y, _ = sim.simulate_output(system, u, 1.0, rng)
        sk.estimator.fit_hyperparameters(sk.estimator.Dataset(u, y), "TC", T=10)
        self.captured.clear()

    def configs(self, unit: int):
        sim = self.sk.simulation
        out = [sim.ExperimentConfig(study=study, runs=RUNS_PER_BATCH, seed=base + 1000 * unit)
               for study, base in STUDY_SEEDS]
        return out[::-1] if (self.seed + unit) % 2 else out

    def restart(self) -> None:
        self.unit_index = 0

    def _batch(self, config, workers: int):
        start = len(self.captured)
        t0 = time.perf_counter()
        result = self.sk.simulation.run_monte_carlo(config, workers=workers)
        wall = time.perf_counter() - t0
        ops = [Op(f"fit.{r.estimator}", r.seconds,
                  OK if r.error is None else REFUSED, r, r.error or "")
               for r in result.rows]
        self.batches.append((self.phase, config, result, ops, self.captured[start:]))
        return ops, wall

    def unit(self):
        ops, wall = [], 0.0
        for config in self.configs(self.unit_index):
            batch_ops, dt = self._batch(config, 1)
            ops += batch_ops
            wall += dt
        self.unit_index += 1
        return ops, wall

    def pool_phase(self) -> None:
        self.phase = POOL
        for config in self.configs(0):
            self.pool_wall += self._batch(config, self.pool_workers)[1]

    def verify(self) -> list[str]:
        """Rows of one config must agree across phases and worker counts,
        and every in-process fit must reproduce its objective with the
        direct ``N x N`` likelihood."""
        failures = []
        reference, bad = {}, set()
        for _, config, result, ops, fits in self.batches:
            expected = config.runs * len(config.estimators)
            if len(result.rows) != expected:
                failures.append(f"{config.to_json()}: {len(result.rows)} rows, expected {expected}")
                bad.update((config, op.row.run, op.row.estimator) for op in ops)
            rows = reference.setdefault(config, result.rows)
            if rows != result.rows:
                failures.append(f"{config.to_json()}: rows differ between runs of the same config")
                bad.update((config, op.row.run, op.row.estimator) for op in ops)
            for op in ops:
                if op.outcome == OK and not math.isfinite(op.row.airf):
                    failures.append(f"{op.kind} run {op.row.run}: AIRF not finite")
                    bad.add((config, op.row.run, op.row.estimator))
            fitted = [op for op in ops if op.outcome == OK]
            if fits and len(fits) != len(fitted):
                failures.append(f"{config.to_json()}: {len(fits)} captured fits for {len(fitted)} rows")
                continue
            for op, (args, kwargs, est) in zip(fitted, fits):
                msg = self._check_fit(args, kwargs, est)
                if msg:
                    failures.append(f"{op.kind} run {op.row.run}: {msg}")
                    bad.add((config, op.row.run, op.row.estimator))
        for _, config, _, ops, _ in self.batches:
            for op in ops:
                if (config, op.row.run, op.row.estimator) in bad and op.outcome == OK:
                    op.outcome = CHECK
        return failures

    def _check_fit(self, args, kwargs, est) -> str:
        sk = self.sk
        dataset = args[0]
        T = kwargs.get("T", args[2] if len(args) > 2 else 50)
        if not np.all(np.isfinite(est.g_hat)):
            return "g_hat not finite"
        A = sk.estimator.build_regressor(dataset.u, dataset.n, T)
        K = sk.kernels.build_kernel(est.spec, T)
        lam = est.lam / sk.kernels.leading_variance(est.spec)
        direct = sk.estimator.nll_direct(dataset.y, A, K, lam, est.sigma2)
        if not abs(direct - est.nll) <= NLL_RTOL * abs(direct):
            return f"nll {est.nll!r} != nll_direct {direct!r}"
        return ""

    def rows(self, phase):
        return [op.row for ph, _, _, ops, _ in self.batches if ph == phase for op in ops]

    def fit_inflation(self) -> float:
        """Median pooled fit time over the median untraced serial time of
        the same fits; 0 without a pool phase."""
        seconds = {}
        for phase, config, _, ops, _ in self.batches:
            for op in ops:
                seconds.setdefault((config, op.row.run, op.row.estimator), {})[phase] = op.seconds
        pairs = [(s[POOL], s[UNTRACED]) for s in seconds.values() if POOL in s and UNTRACED in s]
        if not pairs:
            return 0.0
        pooled, alone = zip(*pairs)
        return float(np.median(pooled) / np.median(alone))


# ---------------------------------------------------------------------------
# kernel-sweep
# ---------------------------------------------------------------------------

SWEEP_FAMILIES = ("DI", "TC", "DC", "SS", "TC2", "DC2", "TC3", "TC4", "TC5",
                  "TC6", "DC3", "DC6", "HF2", "HC3")
#: Fixed decay grid up to the edge of the fitting box (0.999).
SWEEP_BETAS = (0.3, 0.5, 0.7, 0.8, 0.9, 0.95, 0.98, 0.99, 0.999)
SWEEP_DIMS = (50, 200)
SWEEP_ALPHA = 0.5
#: Wall-clock cap of one op.  The slowest op that returns (a series kernel
#: at T=200, beta=0.999) takes about 0.9 s on a 2-core x86-64 box.
OP_CAP_S = 1.5
#: Address-space headroom of one op above the process size at the start of
#: a pass.  The largest op that returns (the same series kernel, whose
#: truncation doubles to 73 846 terms) needs two 113 MiB arrays.  A runaway
#: kernel build reaches the cap well within the wall-clock cap, so the peak
#: resident set it leaves does not depend on how fast the machine is.
MEMORY_HEADROOM = 320 * 2 ** 20
#: Dense checks are made only where LAPACK can be trusted.
COND_LIMIT = 1e10
#: K[1,1] by the leading-variance series against the kernel's entry: both
#: are certified to 1e-13 relative, plus summation rounding.
LEADING_VARIANCE_RTOL = 1e-10


class OpTimeout(Exception):
    """Raised by the SIGALRM handler while an op is running."""


class CappedRunner:
    """Runs one callable under a SIGALRM wall-clock cap.

    The handler raises only while an op is armed, so an alarm that lands
    after the op returned cannot escape into the benchmark.
    """

    def __init__(self, errors, cap_s: float):
        self.errors = errors
        self.cap_s = cap_s
        self.armed = False
        signal.signal(signal.SIGALRM, self._alarm)

    def _alarm(self, signum, frame):
        if self.armed:
            self.armed = False
            raise OpTimeout()

    def _disarm(self):
        self.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)

    def run(self, fn):
        """Returns ``(outcome, seconds, output, detail)``."""
        out, outcome, detail = None, OK, ""
        t0 = time.perf_counter()
        try:
            try:
                self.armed = True
                signal.setitimer(signal.ITIMER_REAL, self.cap_s)
                out = fn()
            finally:
                self._disarm()
        except OpTimeout:
            outcome = TIMEOUT
        except Exception as exc:  # the op's failure is the measurement
            outcome, detail = classify(exc, self.errors), f"{type(exc).__name__}: {exc}"[:200]
        return outcome, time.perf_counter() - t0, out, detail


def _vm_size() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmSize:"):
                return int(line.split()[1]) * 1024
    raise RuntimeError("VmSize not found in /proc/self/status")


class AddressSpaceCap:
    """Lowers the soft RLIMIT_AS of this process for the duration of a
    ``with`` block; the hard limit is left alone."""

    def __init__(self, headroom: int):
        self.headroom = headroom

    def __enter__(self):
        self.saved = resource.getrlimit(resource.RLIMIT_AS)
        soft, hard = self.saved
        limit = _vm_size() + self.headroom
        if hard != resource.RLIM_INFINITY:
            limit = min(limit, hard)
        if soft == resource.RLIM_INFINITY or limit < soft:
            resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
        return self

    def __exit__(self, *exc):
        resource.setrlimit(resource.RLIMIT_AS, self.saved)
        return False


class KernelSweep:
    """Cold kernel queries over the whole admitted grid, failures included.

    Per grid point (family, beta, T): ``build_kernel``, ``inverse_cholesky``,
    ``build_inverse`` (not for SS, which has no banded inverse by design),
    ``stationary_part`` and ``psd`` of its result, and ``leading_variance``
    once per (family, beta).  The seed shuffles the order of the grid
    points; caches are cleared before each pass, as a fresh ``stablekern
    kernel`` or ``psd`` call would see them.
    """

    name = "kernel-sweep"
    #: unit time at the seed commit on a 2-core x86-64 VM; it turns
    #: ``--seconds`` into a fixed number of units
    nominal_unit_s = 25.0

    def __init__(self, families=SWEEP_FAMILIES, betas=SWEEP_BETAS,
                 dims=SWEEP_DIMS, cap_s=OP_CAP_S):
        self.families, self.betas, self.dims = families, betas, dims
        self.cap_s = cap_s

    def spec(self, family: str, beta: float):
        if family == "SS":
            kw = {"gamma": beta}
        elif family[:2] in ("DC", "HC"):
            kw = {"beta": beta, "alpha": SWEEP_ALPHA}
        else:
            kw = {"beta": beta}
        return self.sk.kernels.KernelSpec.from_name(family, **kw)

    def setup(self, sk, seed: int) -> None:
        self.sk = sk
        points = [(f, b, T) for T in self.dims for f in self.families for b in self.betas]
        order = np.random.default_rng(seed).permutation(len(points))
        self.points = [points[i] for i in order]
        self.specs = {(f, b): self.spec(f, b) for f in self.families for b in self.betas}
        self.cond = {}
        self.failures = []
        self.clear_caches = getattr(sk.kernels.leading_variance, "cache_clear", None)
        self.runner = CappedRunner(sk.errors, self.cap_s)
        warm = sk.kernels.KernelSpec.from_name("TC3", beta=0.5)
        sk.kernels.inverse_cholesky(warm, 8)
        sk.kernels.build_inverse(warm, 8)
        sk.kernels.leading_variance(warm)
        sk.spectral.psd(sk.spectral.stationary_part(warm, 8))

    def restart(self) -> None:
        pass

    def unit(self):
        if self.clear_caches is not None:
            self.clear_caches()
        ops = []
        with warnings.catch_warnings(), AddressSpaceCap(MEMORY_HEADROOM):
            warnings.simplefilter("ignore")
            for family, beta, T in self.points:
                ops += self._point(family, beta, T)
        return ops, sum(op.seconds for op in ops)

    def _op(self, kind, fn, check=None):
        outcome, seconds, out, detail = self.runner.run(fn)
        if outcome == OK and check is not None:
            msg = check(out)
            if msg:
                outcome, detail = CHECK, msg
                self.failures.append(f"{kind}: {msg}")
        return Op(kind, seconds, outcome, detail=detail), out

    def _point(self, family, beta, T):
        sk, spec = self.sk, self.specs[(family, beta)]
        key = (family, beta, T)
        label = f"{family} beta={beta} T={T}"
        ops = []
        op, K = self._op(f"build {label}", lambda: sk.kernels.build_kernel(spec, T),
                         lambda out: check_kernel(out, T))
        ops.append(op)
        if op.outcome != OK:
            K = None
        cond = None
        if K is not None:
            if key not in self.cond:
                self.cond[key] = float(np.linalg.cond(K))
            cond = self.cond[key]
        op, _ = self._op(f"factor {label}", lambda: sk.kernels.inverse_cholesky(spec, T),
                         lambda out: check_factor(out, K, cond))
        ops.append(op)
        if family != "SS":
            op, _ = self._op(f"inverse {label}", lambda: sk.kernels.build_inverse(spec, T),
                             lambda out: check_inverse(out, K, cond))
            ops.append(op)
        if T == self.dims[0]:
            op, _ = self._op(f"leading_variance {label}",
                             lambda: sk.kernels.leading_variance(spec),
                             lambda out: check_leading_variance(out, K))
            ops.append(op)
        op, w = self._op(f"stationary {label}",
                         lambda: sk.spectral.stationary_part(spec, T),
                         lambda out: "" if np.all(np.isfinite(out.w)) else "w not finite")
        ops.append(op)
        if op.outcome == OK:
            op, _ = self._op(f"psd {label}", lambda: sk.spectral.psd(w),
                             lambda out: "" if np.all(np.isfinite(out.phi)) else "phi not finite")
            ops.append(op)
        return ops

    def verify(self) -> list[str]:
        return list(self.failures)


def check_kernel(K, T) -> str:
    if K.shape != (T, T) or not np.all(np.isfinite(K)):
        return "kernel not finite"
    scale = np.abs(K).max()
    if np.abs(K - K.T).max() > T * EPS * scale:
        return "kernel not symmetric"
    if not np.all(np.diag(K) > 0):
        return "kernel diagonal not positive"
    return ""


def check_factor(factor, K, cond) -> str:
    """``L L' K = I`` and ``logdet_K`` against LAPACK, where ``cond(K)`` is
    below ``COND_LIMIT``; the tolerance is the forward error bound
    ``T * cond(K) * eps``."""
    if not (np.all(np.isfinite(factor.bands)) and math.isfinite(factor.logdet_K)):
        return "factor not finite"
    if K is None or cond is None or not cond < COND_LIMIT:
        return ""
    T = K.shape[0]
    tol = T * cond * EPS
    L = factor.to_dense()
    err = np.abs(L @ (L.T @ K) - np.eye(T)).max()
    if not err <= tol:
        return f"|L L' K - I| = {err:.3e} > {tol:.3e}"
    sign, logdet = np.linalg.slogdet(K)
    if not (sign > 0 and abs(logdet - factor.logdet_K) <= tol * max(1.0, abs(logdet))):
        return f"logdet_K {factor.logdet_K!r} != slogdet {logdet!r}"
    return ""


def check_inverse(Kinv, K, cond) -> str:
    if not np.all(np.isfinite(Kinv)):
        return "inverse not finite"
    if K is None or cond is None or not cond < COND_LIMIT:
        return ""
    T = K.shape[0]
    tol = T * cond * EPS
    err = np.abs(Kinv @ K - np.eye(T)).max()
    if not err <= tol:
        return f"|K^-1 K - I| = {err:.3e} > {tol:.3e}"
    return ""


def check_leading_variance(value, K) -> str:
    if not (math.isfinite(value) and value > 0):
        return f"leading variance {value!r} not positive"
    if K is not None and not abs(value - K[0, 0]) <= LEADING_VARIANCE_RTOL * K[0, 0]:
        return f"leading variance {value!r} != K[1,1] {K[0, 0]!r}"
    return ""


# ---------------------------------------------------------------------------
# band-completion
# ---------------------------------------------------------------------------

BAND_FAMILIES = ("TC2", "DC2", "TC3", "DC")
BAND_DIM = 100
#: Completion against the closed-form / series kernel, relative to max |K|.
COMPLETION_RTOL = 1e-8
#: Passes over the eight bands per unit, so that a unit holds 20 completions
#: and its tail (11th largest of 80 ops) is a completion time.
PASSES_PER_UNIT = 5


class BandCompletion:
    """Max-entropy completion of kernel bands, and the reject path.

    Each family's band (beta in [0.6, 0.9], alpha in [0.2, 0.8], drawn from
    the seed) is completed and compared with ``build_kernel``.  Its
    infeasible twin has one first-superdiagonal entry raised above the
    geometric mean of its two diagonal neighbours, so exactly the sliding
    blocks holding that pair are indefinite and the first failing index is
    known.
    """

    name = "band-completion"
    nominal_unit_s = 3.75  # as for KernelSweep

    def setup(self, sk, seed: int) -> None:
        self.sk = sk
        self.failures = []
        rng = np.random.default_rng(seed)
        BandSpec = sk.maxent.BandSpec
        self.cases = []
        for family in BAND_FAMILIES:
            kw = {"beta": float(rng.uniform(0.6, 0.9))}
            if family.startswith("DC"):
                kw["alpha"] = float(rng.uniform(0.2, 0.8))
            spec = sk.kernels.KernelSpec.from_name(family, **kw)
            m = spec.bandwidth
            K = sk.kernels.build_kernel(spec, BAND_DIM)
            band = BandSpec.from_matrix(K, m)
            i = int(rng.integers(BAND_DIM // 4, 3 * BAND_DIM // 4))
            data = band.data.copy()
            data[1, i] = 1.5 * math.sqrt(data[0, i] * data[0, i + 1])
            bad = BandSpec(BAND_DIM, m, data)
            label = f"{family} {spec.to_kv()}"
            self.cases.append((label, band, K, None))
            self.cases.append((label + f" perturbed at {i + 1}", bad, None, max(0, i + 1 - m) + 1))
        warm = sk.kernels.build_kernel(sk.kernels.KernelSpec.from_name("TC2", beta=0.8), 8)
        sk.maxent.maxent_completion(BandSpec.from_matrix(warm, 2))

    def restart(self) -> None:
        pass

    def _timed(self, fn):
        t0 = time.perf_counter()
        try:
            return fn(), None, time.perf_counter() - t0
        except Exception as exc:  # classified by the caller
            return None, exc, time.perf_counter() - t0

    def unit(self):
        ops = []
        maxent, errors = self.sk.maxent, self.sk.errors
        for label, band, K, bad_index in self.cases * PASSES_PER_UNIT:
            out, exc, dt = self._timed(lambda: maxent.check_feasibility(band))
            expected = (True, None) if bad_index is None else (False, bad_index)
            ops.append(self._outcome(f"feasibility {label}", dt, exc,
                                     "" if exc or tuple(out) == expected
                                     else f"returned {tuple(out)}, expected {expected}"))
            out, exc, dt = self._timed(lambda: maxent.maxent_completion(band))
            if bad_index is None:
                msg = "" if exc else completion_error(out.matrix, K)
                ops.append(self._outcome(f"completion {label}", dt, exc, msg))
            elif isinstance(exc, errors.InfeasibleExtensionError):
                msg = "" if exc.index == bad_index else f"index {exc.index}, expected {bad_index}"
                ops.append(self._outcome(f"reject {label}", dt, None, msg))
            else:
                ops.append(self._outcome(f"reject {label}", dt, exc,
                                         "" if exc else "infeasible band was completed"))
        return ops, sum(op.seconds for op in ops)

    def _outcome(self, kind, seconds, exc, msg) -> Op:
        if exc is not None:
            return Op(kind, seconds, classify(exc, self.sk.errors),
                      detail=f"{type(exc).__name__}: {exc}"[:200])
        if msg:
            self.failures.append(f"{kind}: {msg}")
            return Op(kind, seconds, CHECK, detail=msg)
        return Op(kind, seconds, OK)

    def verify(self) -> list[str]:
        return list(self.failures)


def completion_error(M, K) -> str:
    err = np.abs(M - K).max() / np.abs(K).max()
    return "" if err <= COMPLETION_RTOL else f"completion differs from kernel by {err:.3e}"


WORKLOADS = {
    "mc-serial": MonteCarlo,
    "kernel-sweep": KernelSweep,
    "band-completion": BandCompletion,
}
