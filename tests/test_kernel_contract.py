"""Property test over the admitted domain of the DC-stem kernels: every
validated spec and dimension gives finite output, factor tangents included,
or a ``StableKernError``."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, reject, settings, strategies as st  # noqa: E402

from stablekern.errors import ParameterError, StableKernError  # noqa: E402
from stablekern.kernels import (  # noqa: E402
    MAX_ORDER,
    KernelSpec,
    _factor_tangent,
    build_kernel,
    leading_variance,
)

# beta over the whole open interval: tiny values by decade, the rest as floats
BETAS = st.one_of(st.integers(3, 300).map(lambda e: 10.0 ** -e),
                  st.floats(min_value=1e-3, max_value=1 - 2 ** -53))


@st.composite
def dc_stem_specs(draw):
    """DC with a signed alpha, |alpha| < beta^-1/2, or DCd/HCd with 0 <= alpha <= 1."""
    family, beta = draw(st.sampled_from(["DC", "DCd", "HCd"])), draw(BETAS)
    if family == "DC":
        u = draw(st.floats(min_value=-1.0, max_value=1.0, exclude_min=True, exclude_max=True))
        kw = {"alpha": u * beta ** -0.5}
    else:
        kw = {"alpha": draw(st.floats(0.0, 1.0)), "delta": draw(st.integers(1, MAX_ORDER))}
    try:
        return KernelSpec(family, beta=beta, **kw)
    except ParameterError:  # u * beta^-1/2 rounded onto the bound
        reject()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(sp=dc_stem_specs(), T=st.integers(1, 200))
def test_dc_stem_kernels_are_finite_or_refused(sp, T):
    for call in (lambda: build_kernel(sp, T), lambda: leading_variance.__wrapped__(sp),
                 lambda: _tangent_values(sp, T)):
        try:
            out = call()
        except StableKernError:
            continue
        assert np.all(np.isfinite(out)), (sp, T)


def _tangent_values(sp, T):
    factor, dL, dlogk11 = _factor_tangent(sp, T)
    return np.concatenate([factor.bands.ravel(), [factor.logdet_K], dL.ravel(), dlogk11])
