"""The paper's closed-form inverse of the order 0-2 kernels, kept as an
independent oracle for ``build_inverse`` and ``inverse_cholesky``:

    K^{-1} = kappa^{-1} G D G^T,   D = diag(beta^-1 .. beta^-(T-p)) + B_T,

with ``G`` the banded lower Toeplitz operator of the family and ``B_T`` the
``p x p`` trailing block of the finite-dimensional decomposition.
"""

import numpy as np


def _operator(sp):
    """``(coefficients, kappa, B_T(T))`` of an order 0-2 spec."""
    b, a = sp.beta, sp.alpha
    stem, p = sp.family[:2], sp.bandwidth
    if p == 0:
        return [1.0], 1.0, None
    if p == 1:
        sub, kappa = (1.0, 1.0 - b) if stem in ("TC", "HF") else (a, 1.0 - a * a * b)
        return [1.0, -sub], kappa, lambda T: np.array([[kappa * b ** -float(T)]])
    if stem in ("TC", "HF"):
        a = 1.0
    kappa = (1.0 - b) * (1.0 - a * b) * (1.0 - a * a * b)

    def trailing(T):
        scale = (1.0 - a * b) * b ** -float(T)
        return scale * np.array([
            [b * (1.0 + a * b), a * b * b * (1.0 + a)],
            [a * b * b * (1.0 + a),
             (1.0 - b - a * a * b) * (1.0 - a * b) + 2.0 * a * a * b * b],
        ])

    return [1.0, -(1.0 + a), a], kappa, trailing


def closed_form_inverse(sp, T):
    """``K^{-1}`` of an order 0-2 spec (HF/HC twins included) at ``T >= p``,
    from the decomposition alone."""
    p = sp.bandwidth
    if not (p is not None and p <= 2 and T >= p):
        raise ValueError(f"no closed-form inverse for {sp.to_kv()} at T={T}")
    coefficients, kappa, trailing = _operator(sp)
    G = sum(c * np.eye(T, k=-j) for j, c in enumerate(coefficients))
    D = np.diag(np.r_[sp.beta ** -np.arange(1.0, T - p + 1), np.zeros(p)])
    if p:
        D[T - p :, T - p :] = trailing(T)
    Kinv = G @ D @ G.T / kappa
    s = (-1.0) ** np.arange(T) if sp.sign_flipped else np.ones(T)
    return Kinv * np.outer(s, s)
