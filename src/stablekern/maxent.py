"""Maximum-entropy band extension.

Given the entries of a symmetric matrix within a band ``|t-s| <= m``, the
maximum-entropy (``log det``) positive-definite completion is the unique one
whose inverse is banded with bandwidth ``m`` (Dym and Gohberg 1981).  Each
unknown entry is thus a combination of the ``m`` entries below it, weighted
from its ``(m+1)``-clique: one batched solve over the cliques and one gather
per diagonal, ``O(T m^3 + T^2 m)`` in all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from ._blas import single_threaded
from ._csv import load_csv
from .errors import DimensionError, InfeasibleExtensionError, ParameterError

__all__ = [
    "BandSpec",
    "CompletionResult",
    "one_step_extension",
    "maxent_completion",
    "check_feasibility",
]

#: Relative eigenvalue tolerance for positive definiteness of sliding blocks;
#: matches where double-precision Cholesky starts to break down.
PD_TOL = 1e-12


def _band_index(dim: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices ``(d, t)`` of band storage that lie inside the matrix."""
    return np.nonzero(np.arange(dim) < dim - np.arange(m + 1)[:, None])


@dataclass(frozen=True)
class BandSpec:
    """Band data ``c[t, s]`` for ``|t - s| <= bandwidth`` of a ``dim x dim``
    symmetric matrix.

    ``data[d, t]`` holds the entry ``c[t+1, t+1+d]`` (1-based), i.e. row
    ``d`` of the storage is the ``d``-th super-diagonal; entries past
    ``dim - d`` are ignored.  Symmetry is implicit in the storage.
    """

    dim: int
    bandwidth: int
    data: np.ndarray

    def __post_init__(self):
        if self.dim < 1:
            raise DimensionError(f"dim must be >= 1; got {self.dim}")
        if not 0 <= self.bandwidth < self.dim:
            raise ParameterError(
                f"bandwidth must satisfy 0 <= m < dim; got m={self.bandwidth}, dim={self.dim}"
            )
        if self.data.shape != (self.bandwidth + 1, self.dim):
            raise DimensionError(
                f"band storage must have shape {(self.bandwidth + 1, self.dim)}; "
                f"got {self.data.shape}"
            )
        if not np.all(np.isfinite(self.data[_band_index(self.dim, self.bandwidth)])):
            raise ParameterError("band data must be finite within the band")
        self.data.setflags(write=False)

    @classmethod
    def from_matrix(cls, M, bandwidth: int) -> "BandSpec":
        """Extract the bands of a symmetric matrix."""
        M = np.asarray(M, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise DimensionError(f"expected a square matrix; got shape {M.shape}")
        T, m = M.shape[0], int(bandwidth)
        if not 0 <= m < T:
            raise ParameterError(f"bandwidth must satisfy 0 <= m < dim; got {m}")
        d, t = _band_index(T, m)
        if not np.allclose(M[t, t + d], M[t + d, t], rtol=1e-12, atol=0, equal_nan=True):
            raise ParameterError("matrix is not symmetric within the band")
        data = np.zeros((m + 1, T))
        data[d, t] = M[t, t + d]
        return cls(T, m, data)

    def entry(self, t: int, s: int) -> float:
        """Band entry with 1-based indices; raises outside the band."""
        d = abs(t - s)
        if d > self.bandwidth:
            raise ParameterError(f"entry ({t}, {s}) lies outside bandwidth {self.bandwidth}")
        return float(self.data[d, min(t, s) - 1])

    def to_matrix(self, fill: float = 0.0) -> np.ndarray:
        """Dense symmetric matrix with unknown entries set to ``fill``."""
        M = np.full((self.dim, self.dim), fill)
        d, t = _band_index(self.dim, self.bandwidth)
        M[t, t + d] = M[t + d, t] = self.data[d, t]
        return M

    # -- serialization: CSV triples (t, s, value), 1-based upper triangle ---

    def to_csv(self, path_or_file) -> None:
        d, t = _band_index(self.dim, self.bandwidth)
        arr = np.column_stack([t + 1, t + 1 + d, self.data[d, t]])
        np.savetxt(path_or_file, arr, fmt=["%d", "%d", "%.16e"], delimiter=",")

    @classmethod
    def from_csv(cls, path_or_file) -> "BandSpec":
        """Read the triples of :meth:`to_csv`.  A row whose indices are not
        integers >= 1 or whose value is not finite is refused, and so is a
        file with fewer rows than its band has entries, before any storage
        is sized from its indices."""
        arr = load_csv(path_or_file, "band CSV")
        if arr.shape[1] != 3:
            raise ParameterError("band CSV must have rows (t, s, value)")
        for row, (ti, si, vi) in enumerate(arr.tolist(), start=1):
            if not all(np.isfinite(i) and i >= 1 and i == int(i) for i in (ti, si)):
                raise ParameterError(f"band CSV, row {row}: indices ({ti:g}, {si:g}) are not "
                                     "integers >= 1")
            if not np.isfinite(vi):
                raise ParameterError(f"band CSV, row {row}: value {vi:g} is not finite")
        T = int(arr[:, :2].max())
        m = int(np.abs(arr[:, 0] - arr[:, 1]).max())
        entries = (m + 1) * T - m * (m + 1) // 2
        if len(arr) < entries:
            raise ParameterError(f"band CSV has {len(arr)} rows for the {entries} entries of a "
                                 f"bandwidth-{m} band of dim {T}")
        t, s = arr[:, :2].astype(int).T
        data = np.full((m + 1, T), np.nan)
        for ti, si, vi in zip(t, s, arr[:, 2]):
            d = abs(ti - si)
            lo = min(ti, si) - 1
            if np.isfinite(data[d, lo]) and data[d, lo] != vi:
                raise ParameterError(f"conflicting values for entry ({ti}, {si})")
            data[d, lo] = vi
        for d in range(m + 1):
            if not np.all(np.isfinite(data[d, : T - d])):
                raise ParameterError(f"band CSV leaves diagonal {d} incomplete")
            data[d, T - d :] = 0.0
        return cls(T, m, data)


@dataclass(frozen=True)
class CompletionResult:
    """Completed matrix and its entropy (``log det``)."""

    matrix: np.ndarray
    entropy: float

    def __post_init__(self):
        self.matrix.setflags(write=False)


def one_step_extension(partial) -> float:
    """Maximum-entropy value of the unknown corner ``(1, T)`` of a symmetric
    matrix whose other entries are known.

    With ``L`` the leading ``(T-1) x (T-1)`` block and ``y = L^{-1} e_1``,

        x = -(1 / y_1) * sum_{j=2}^{T-1} c_{T,j} y_j .

    The corner entries of ``partial`` are ignored.  Raises
    :class:`InfeasibleExtensionError` when ``L`` is not positive definite.
    """
    C = np.asarray(partial, dtype=float)
    if C.ndim != 2 or C.shape[0] != C.shape[1]:
        raise DimensionError(f"expected a square matrix; got shape {C.shape}")
    T = C.shape[0]
    if T < 2:
        raise DimensionError("one-step extension needs a matrix of dimension >= 2")
    L = C[: T - 1, : T - 1]
    try:
        factor = cho_factor(L, lower=True)
    except np.linalg.LinAlgError:
        raise InfeasibleExtensionError(
            "leading principal submatrix is not positive definite"
        ) from None
    e1 = np.zeros(T - 1)
    e1[0] = 1.0
    y = cho_solve(factor, e1)
    # y[0] = (L^{-1})_{11} > 0 whenever L is PD
    return float(-(C[T - 1, 1 : T - 1] @ y[1:]) / y[0])


def _cliques(band: BandSpec) -> np.ndarray:
    """The ``dim - m`` sliding ``(m+1) x (m+1)`` blocks, gathered from band storage."""
    i = np.arange(band.bandwidth + 1)
    lag, first = np.abs(i[:, None] - i), np.minimum(i[:, None], i)
    return band.data[lag, np.arange(band.dim - band.bandwidth)[:, None, None] + first]


@single_threaded
def check_feasibility(band: BandSpec) -> tuple[bool, int | None]:
    """Positive definiteness of every sliding ``(m+1) x (m+1)`` block.

    Returns ``(True, None)`` when feasible, else ``(False, t)`` with the
    1-based index of the first failing block.  A block passes when its
    smallest eigenvalue exceeds ``PD_TOL`` times its spectral norm.
    """
    eigs = np.linalg.eigvalsh(_cliques(band))
    bad = eigs[:, 0] <= PD_TOL * np.maximum(np.abs(eigs[:, 0]), np.abs(eigs[:, -1]))
    return (False, int(np.argmax(bad)) + 1) if bad.any() else (True, None)


@single_threaded
def maxent_completion(band: BandSpec) -> CompletionResult:
    """Fill the unknown entries of a band specification by maximum entropy.

    Unknown super-diagonals are filled outward (``|t-s| = m+1``, then
    ``m+2``, ...).  Entry ``(t, t+d)`` is the :func:`one_step_extension` of
    its window, whose inverse is banded, so it is ``a_t @ M[t+1:t+m+1, t+d]``
    with ``a_t = -y[1:] / y[0]`` and ``y = C_t^{-1} e_1`` for the clique ``C_t``.

    Raises :class:`InfeasibleExtensionError` (carrying the 1-based index of
    the first failing sliding block) when the band data are infeasible.
    """
    ok, first_bad = check_feasibility(band)
    if not ok:
        raise InfeasibleExtensionError(
            f"band data infeasible: sliding block at index {first_bad} "
            "is not positive definite",
            index=first_bad,
        )
    T, m = band.dim, band.bandwidth
    y = np.linalg.solve(_cliques(band), np.eye(m + 1)[0])
    a = -y[:, 1:] / y[:, :1]
    flat = band.to_matrix().ravel()
    diag = np.arange(T) * (T + 1)  # flat index of (t, t)
    below = diag[:, None] + np.arange(1, m + 1) * T  # flat index of (t+1+k, t)
    for d in range(m + 1, T):
        x = np.einsum("tk,tk->t", a[: T - d], flat[below[: T - d] + d])
        flat[diag[: T - d] + d] = flat[diag[: T - d] + d * T] = x
    M = flat.reshape(T, T)
    sign, entropy = np.linalg.slogdet(M)
    if sign <= 0:
        raise InfeasibleExtensionError("completed matrix is not positive definite")
    return CompletionResult(M, float(entropy))
