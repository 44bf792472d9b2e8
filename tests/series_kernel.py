"""The certified truncated series of a TC- or DC-stem kernel, kept as an
independent oracle (the dual route) for the closed-form entries of
``build_kernel``:

    K[t, s] = kappa * beta^(min(t, s) - 1) * r[|t - s|],
    r[d] = beta^d sum_j beta^(j+1) z_j z_{j+d},

with ``z`` the inverse series of the family's operator polynomial, ``(1 -
x)^p`` for TC and ``(1 - x)^(p-1) (1 - alpha x)`` for DC.  The sums double
their length until a geometric bound on every tail is below ``TOL`` of its
sum: ``|z|`` is log-concave, so past ``n`` its ratios stay below ``|z_{n+1} /
z_n|``.
"""

import numpy as np

from stablekern.kernels import normalization_kappa, toeplitz_inverse

TOL = 1e-13


def _operator(base):
    """Coefficients of the operator polynomial of a TC/DC-stem base spec."""
    p = base.bandwidth
    a = np.array([1.0])
    for _ in range(p - 1 if base.family[:2] == "DC" else p):
        a = np.convolve(a, [1.0, -1.0])
    return np.convolve(a, [1.0, -base.alpha]) if base.family[:2] == "DC" else a


def series_first_row(base, T, n=64):
    """``r[d] = K[1, 1 + d]``, ``d = 0 .. T-1``, of a TC/DC-stem base spec."""
    beta, a = base.beta, _operator(base)
    while n < 2 ** 22:
        z = toeplitz_inverse(a, n + T + 1)
        s = np.correlate(z[: n + T - 1], beta ** np.arange(1, n + 1) * z[:n], "valid")
        rho = beta * (z[n + 1] / z[n]) ** 2
        tail = beta ** (n + 1) * np.abs(z[n] * z[n : n + T]) / (1.0 - rho)
        if rho < 1.0 and np.all(tail < TOL * np.abs(s)):
            return normalization_kappa(base) * beta ** np.arange(T) * s
        n *= 2
    raise ValueError(f"series of {base.to_kv()} does not certify")


def series_kernel(sp, T):
    """``K`` of a TC/DC-stem spec (HF/HC twins included) by the series."""
    row = series_first_row(sp.base(), T)
    t = np.arange(T)
    K = sp.beta ** np.minimum.outer(t, t) * row[np.abs(np.subtract.outer(t, t))]
    s = (-1.0) ** t if sp.sign_flipped else np.ones(T)
    return K * np.outer(s, s)
