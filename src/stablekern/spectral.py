"""Spectral analysis of the kernel families.

Every family factors exactly as an exponential envelope times a stationary
kernel; ``build_kernel`` forms ``env**(min(t, s) - 1) * r[|t - s|]`` from
the first row ``r`` and the envelope of ``kernels._envelope``, so

    K[t, s] = env**((t + s) / 2) * w(|t - s|),   w(d) = env**(-1 - d/2) r[d].

``stationary_part`` extracts and certifies ``w``; ``psd`` evaluates the
truncated cosine-series power spectral density of ``w``; and
``low_frequency_mass`` quantifies how the prior's statistical power splits
across frequency, which is the quantity the family orderings are stated in.

``stationary_part`` gathers the kernel's upper diagonals into one vector,
lag after lag, through an index cached per ``T``, so the rescaling and the
spread certificate are a few whole-vector operations; only the per-lag means
stay a loop, so that each ``w(tau)`` is the mean of its diagonal bit for bit.
``psd`` multiplies ``w`` by a cosine table cached per grid and length.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import toeplitz
from scipy.linalg.lapack import dpotrf

from ._blas import single_threaded
from .errors import DecompositionError, DimensionError, ParameterError
from .kernels import KernelSpec, _envelope, build_kernel

__all__ = [
    "StationaryKernel",
    "PSD",
    "stationary_part",
    "psd",
    "low_frequency_mass",
]

#: Default working length for spectral computations; the stationary
#: autocovariance decays geometrically, so the series tail is negligible here.
SPECTRAL_T = 200

#: Stationarity spread tolerance (relative to the autocovariance scale).
SPREAD_TOL_CLOSED = 1e-10


@dataclass(frozen=True)
class StationaryKernel:
    """Autocovariance ``w(tau)``, ``tau = 0 .. T-1``, of the stationary part.

    ``spec`` records the originating kernel (``None`` for synthetic
    sequences); ``spread`` is the certified relative variation of the
    rescaled kernel across diagonal positions.

    ``w`` must be a PSD autocovariance up to ``1e-8 w(0)``: the Toeplitz
    matrix of ``w`` plus ``1e-8 w(0) I`` must pass a Cholesky factorization,
    or else its smallest eigenvalue must not lie below ``-1e-8 w(0)``; the
    error names that eigenvalue.
    """

    w: np.ndarray
    spec: KernelSpec | None = None
    spread: float = 0.0

    @single_threaded
    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        object.__setattr__(self, "w", w)
        if w.ndim != 1 or w.size < 1:
            raise DimensionError("autocovariance must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(w)):
            raise ParameterError("autocovariance contains non-finite values")
        if not w[0] > 0:
            raise ParameterError(f"w(0) must be positive; got {w[0]}")
        # PSD up to a shift of 1e-8 w(0): one Cholesky decides it, and the
        # eigenvalues are computed only to report a failure
        shifted = toeplitz(w)
        shifted.flat[:: w.size + 1] += 1e-8 * w[0]
        _, info = dpotrf(shifted, lower=1, clean=0, overwrite_a=1)
        if info != 0:
            eigs = np.linalg.eigvalsh(toeplitz(w))
            if eigs[0] < -1e-8 * w[0]:
                raise ParameterError(
                    f"autocovariance matrix is not PSD (min eigenvalue {eigs[0]:.3e})"
                )
        w.setflags(write=False)


@dataclass(frozen=True)
class PSD:
    """Power spectral density samples ``phi`` on a uniform grid in [0, pi]."""

    theta: np.ndarray
    phi: np.ndarray
    normalized: bool = False

    def __post_init__(self):
        if self.theta.shape != self.phi.shape or self.theta.ndim != 1:
            raise DimensionError("theta and phi must be equal-length 1-d arrays")
        if not np.all(np.isfinite(self.phi)):
            raise ParameterError("phi contains non-finite values")
        if self.normalized and abs(self.phi.max() - 1.0) > 1e-12:
            raise ParameterError("normalized PSD must have maximum 1")
        self.theta.setflags(write=False)
        self.phi.setflags(write=False)

    def to_csv(self, path_or_file) -> None:
        np.savetxt(
            path_or_file,
            np.column_stack([self.theta, self.phi]),
            fmt="%.16e",
            delimiter=",",
            header="theta,phi",
            comments="",
        )


@lru_cache(maxsize=64)
def _upper_diagonals(T: int):
    """The upper diagonals of a ``T x T`` matrix packed lag after lag
    (``K[1, 1], ..., K[T, T], K[1, 2], ...``): read-only flat indices into
    the matrix, ``(t + s) / 2`` and the run start of each lag, and the slices
    of the runs."""
    lengths = T - np.arange(T)
    starts = np.cumsum(lengths) - lengths
    lag = np.repeat(np.arange(T), lengths)
    row = np.arange(lag.size) - starts[lag]  # t - 1
    arrays = (row * (T + 1) + lag, (2 * row + lag + 2) / 2.0, starts)
    for a in arrays:
        a.setflags(write=False)
    runs = tuple(slice(a, a + n) for a, n in zip(starts.tolist(), lengths.tolist()))
    return arrays + (runs,)


@single_threaded
def stationary_part(spec: KernelSpec, T: int = SPECTRAL_T,
                    envelope: float | None = None) -> StationaryKernel:
    """Extract ``w(tau) = env**(-(t+s)/2) * K[t, t+tau]`` and certify that it
    does not depend on the diagonal position ``t``.

    The envelope defaults to the family's own decay rate (``gamma**3`` for
    SS); passing a different one raises a decomposition error as soon as the
    rescaled kernel stops being stationary, which is the symptom of a wrong
    envelope.  Rescaling runs in log space so steep envelopes at large ``T``
    do not overflow.

    The certificate is ``spread = max_tau (max - min of lag tau) / scale``,
    ``scale`` the largest rescaled magnitude on or above the diagonal, and
    must not exceed ``SPREAD_TOL_CLOSED``.  ``w(tau)`` is the mean of lag
    ``tau``'s ``T - tau`` rescaled entries.
    """
    T = int(T)
    if T < 1:
        raise DimensionError(f"working length must be >= 1; got {T}")
    x, m = _envelope(spec)
    env = x ** m if envelope is None else float(envelope)
    if not 0.0 < env < 1.0:
        raise ParameterError(f"envelope must lie in (0, 1); got {env}")
    flat, halfsum, starts, runs = _upper_diagonals(T)
    k = build_kernel(spec, T).ravel()[flat]
    # a subnormal diagonal has lost the relative precision the spread
    # certificate needs, just as a zero one has
    if np.any(np.abs(k[:T]) < np.finfo(float).tiny):
        raise DecompositionError(
            "kernel entries underflow at this working length; reduce T"
        )
    with np.errstate(divide="ignore"):
        logmag = np.where(k == 0.0, -np.inf, np.log(np.abs(k)))
    vals = np.sign(k) * np.exp(logmag - halfsum * np.log(env))

    spreads = np.maximum.reduceat(vals, starts) - np.minimum.reduceat(vals, starts)
    spread = float(np.max(spreads) / np.max(np.abs(vals)))
    if spread > SPREAD_TOL_CLOSED:
        raise DecompositionError(
            f"rescaled kernel is not stationary (spread {spread:.3e} > {SPREAD_TOL_CLOSED:.0e}); "
            "the envelope does not match the family"
        )
    # one pairwise sum per lag, as ``mean`` sums it, so ``w`` keeps its bits
    sums = np.array([vals[run].sum() for run in runs])
    return StationaryKernel(sums / (T - np.arange(T)), spec=spec, spread=spread)


@lru_cache(maxsize=4)
def _cosine_table(M: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only grid ``theta_j = j pi / (M - 1)`` and the ``M x (n - 1)``
    table ``2 cos(theta_j tau)``, ``tau = 1 .. n - 1`` (0.8 MB at the
    default ``M = 512``, ``n = 200``)."""
    theta = np.linspace(0.0, np.pi, M)
    table = 2.0 * np.cos(np.outer(theta, np.arange(1, n)))
    theta.setflags(write=False)
    table.setflags(write=False)
    return theta, table


@single_threaded
def psd(w: StationaryKernel, M: int = 512, normalize: bool = False) -> PSD:
    """Cosine-series PSD ``phi(theta_j) = w(0) + 2 sum_tau w(tau) cos(theta_j tau)``
    on the grid ``theta_j = j pi / (M - 1)``.

    Truncation can produce small negative values; they are reported raw here
    and only clipped inside :func:`low_frequency_mass` integrals.
    """
    M = int(M)
    if M < 2:
        raise DimensionError(f"grid size must be >= 2; got {M}")
    coeffs = w.w
    theta, table = _cosine_table(M, coeffs.size)
    phi = coeffs[0] + table @ coeffs[1:]
    if normalize:
        peak = phi.max()
        if peak <= 0:
            raise ParameterError("PSD maximum is not positive; cannot normalize")
        phi = phi / peak
    return PSD(theta, phi, normalized=normalize)


def low_frequency_mass(spectrum: PSD, cutoff: float) -> float:
    """Fraction of spectral mass below ``cutoff``: trapezoidal
    ``int_0^cutoff phi / int_0^pi phi`` with negative values clipped inside
    the integrals and the cutoff ordinate linearly interpolated."""
    theta, phi = spectrum.theta, np.clip(spectrum.phi, 0.0, None)
    total = np.trapezoid(phi, theta)
    if total <= 0:
        raise ParameterError("PSD has no positive mass")
    if cutoff <= 0:
        return 0.0
    if cutoff >= np.pi:
        return 1.0
    j = int(np.searchsorted(theta, cutoff))
    part = np.trapezoid(phi[:j], theta[:j])
    if j > 0 and theta[j - 1] < cutoff:
        phic = np.interp(cutoff, theta, phi)
        part += 0.5 * (phi[j - 1] + phic) * (cutoff - theta[j - 1])
    return float(part / total)
