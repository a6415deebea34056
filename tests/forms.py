"""Real Hamiltonians as whole-window u-form blocks, the data the engine
stores once as half-window (q, p) coefficients; shared by the tests."""

import numpy as np

from qpwave.fourier import half_index
from qpwave.galerkin import QuadraticForm, blocks_from_qp


def real_blocks(rng, n, K, J, scale=1.0):
    """(zz, zzbar, zbzb), (2K+1,)*n + (J, J) each, of a random real
    Hamiltonian: zz symmetric, zbzb(theta) = conj(zz(theta)) and zzbar(theta)
    Hermitian."""
    shape = (2 * K + 1,) * n + (J, J)
    a, b = (scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
            for _ in range(2))
    return real_projection(0.5 * (a + np.swapaxes(a, -1, -2)), b, n)


def real_projection(zz, zzbar, n):
    """The real Hamiltonian with the (symmetric) zz block zz and the
    Hermitian part of zzbar: (zz, zzbar, zbzb)."""
    rev = (slice(None, None, -1),) * n
    herm = 0.5 * (zzbar + np.swapaxes(np.conj(zzbar[rev]), -1, -2))
    return zz, herm, np.conj(zz[rev])


def real_form(rng, n, K, J, scale=1.0) -> QuadraticForm:
    return QuadraticForm.from_blocks(n, K, J, *real_blocks(rng, n, K, J, scale))


def whole_window(coeffs, n, K):
    """The whole window of a real field's half-window coefficients: the
    k_last < 0 half is the conjugate reflection."""
    out = np.empty((2 * K + 1,) * n + coeffs.shape[n:], dtype=complex)
    out[half_index(n, K)] = coeffs
    negative = (slice(None),) * (n - 1) + (slice(None, K),)
    out[negative] = np.conj(np.flip(out, axis=tuple(range(n))))[negative]
    return out


def uform_blocks(qf: QuadraticForm) -> tuple:
    """qf's u-form blocks (zz, zzbar, zbzb) on the whole window."""
    return blocks_from_qp(whole_window(qf.coeffs, qf.n, qf.K))
