"""Property tests for the structural invariants."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from forms import form_from_blocks, real_projection
from qpwave.fourier import reality_enforce
from qpwave.galerkin import QuadraticForm, coupling_tensor
from qpwave.kam import NormalForm, solve_homological

HALF_PI = np.pi / 2.0


@st.composite
def small_form(draw, n=1, K=3, J=4):
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    shape = QuadraticForm.zeros(n, K, J).coeffs.shape
    return QuadraticForm(n, K, J, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


@st.composite
def window_array(draw, n=1, K=3, J=4):
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    shape = (2 * K + 1,) * n + (J, J)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@given(small_form(), st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_truncation_reassembles_bit_exactly(qf, K_cut):
    low, high = qf.truncate(K_cut)
    back = low + high
    assert np.array_equal(back.coeffs, qf.coeffs)
    # supports are disjoint
    assert np.all((low.coeffs == 0) | (high.coeffs == 0))


@given(st.integers(1, 20), st.integers(1, 20), st.integers(1, 20))
@settings(max_examples=200, deadline=None)
def test_coupling_tensor_case_analysis(j, l, k):
    ct = coupling_tensor(20)
    v = ct[j - 1, l - 1, k - 1]
    if k not in (l + j, l - j, j - l):
        assert v == 0.0
    else:
        assert v in (HALF_PI, -HALF_PI)
    assert v == ct[j - 1, k - 1, l - 1]  # symmetry in the sine indices


@given(window_array())
@settings(max_examples=25, deadline=None)
def test_reality_enforcement_is_projection(arr):
    n, K = 1, 3
    fixed = reality_enforce(arr, n, K)
    assert np.max(np.abs(fixed - np.conj(fixed[::-1]))) < 1e-13  # c(-k) = conj(c(k))
    again = reality_enforce(fixed, n, K)
    assert np.allclose(fixed, again, rtol=0, atol=1e-15)


@given(st.integers(0, 2**31 - 1), st.floats(1.05, 1.95))
@example(seed=271, tau=1.7677997703847117)  # divisor_min 9.3e-5
@settings(max_examples=15, deadline=None)
def test_homological_plugback_property(seed, tau):
    rng = np.random.default_rng(seed)
    n, K, J = 1, 2, 4
    zz, zzbar, zbzb = (reality_enforce(rng.standard_normal((2 * K + 1, J, J)) * 0.5 + 0j, n, K)
                       for _ in range(3))
    # the real Hamiltonian nearest the three blocks
    zz = 0.5 * (zz + np.conj(zbzb[::-1]))
    zz = 0.5 * (zz + np.swapaxes(zz, -1, -2))
    qf = form_from_blocks(n, K, J, *real_projection(zz, zzbar, n))
    nf = NormalForm(J=J)
    omega = np.array([tau * np.sqrt(2.0)])
    try:
        sol = solve_homological(qf, nf, omega, K_m=K, gamma_m=1e-9)
    except Exception:
        return  # a genuine near-resonance for this draw; nothing to check
    assert sol.residual < 1e-12
    # support confinement
    _, high = sol.F.truncate(K)
    assert not high.coeffs.any()
