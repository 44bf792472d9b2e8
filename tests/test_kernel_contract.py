"""Property test over the admitted domain of every kernel stem: every
validated spec and dimension gives finite output, the tuner's complex-step
derivatives of ``K / K[1, 1]`` included, or a ``StableKernError``."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, reject, settings, strategies as st  # noqa: E402

from stablekern.errors import ParameterError, StableKernError  # noqa: E402
from stablekern.kernels import (  # noqa: E402
    MAX_ORDER,
    KernelSpec,
    _unit_kernel,
    _unit_tangents,
    build_kernel,
    leading_variance,
)

# beta over the whole open interval: tiny values by decade, the rest as floats
BETAS = st.one_of(st.integers(3, 300).map(lambda e: 10.0 ** -e),
                  st.floats(min_value=1e-3, max_value=1 - 2 ** -53))


@st.composite
def specs(draw):
    """DI, SS (gamma drawn as beta), TC/HF of any order, DC with a signed
    alpha, |alpha| < beta^-1/2, or DCd/HCd with 0 <= alpha <= 1."""
    family = draw(st.sampled_from(["DI", "SS", "TC", "TCd", "HFd", "DC", "DCd", "HCd"]))
    beta = draw(BETAS)
    kw = {"gamma": beta} if family == "SS" else {"beta": beta}
    if family == "DC":
        u = draw(st.floats(min_value=-1.0, max_value=1.0, exclude_min=True, exclude_max=True))
        kw["alpha"] = u * beta ** -0.5
    elif family in ("DCd", "HCd"):
        kw["alpha"] = draw(st.floats(0.0, 1.0))
    if family in ("TCd", "HFd", "DCd", "HCd"):
        kw["delta"] = draw(st.integers(1, MAX_ORDER))
    try:
        return KernelSpec(family, **kw)
    except ParameterError:  # u * beta^-1/2 rounded onto the bound
        reject()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(sp=specs(), T=st.integers(1, 200))
def test_kernels_are_finite_or_refused(sp, T):
    for call in (lambda: build_kernel(sp, T), lambda: leading_variance.__wrapped__(sp),
                 lambda: _unit_kernel(sp, T), lambda: _unit_tangents(sp, T)):
        try:
            out = call()
        except StableKernError:
            continue
        assert np.all(np.isfinite(out)), (sp, T)
