"""Real Hamiltonians as whole-window u-form blocks, the data the engine
stores once as half-window (q, p) coefficients, the builder of a form from
such blocks, and the u-form (z, zbar) route of the conjugacy check; shared
by the tests as oracles."""

import math

import numpy as np

from qpwave.fourier import half_index
from qpwave.galerkin import QuadraticForm, blocks_from_qp, qp_from_blocks

STRUCTURE_RTOL = 1e-12  # relative structure defect form_from_blocks accepts


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


def form_from_blocks(n, K, J, zz, zzbar, zbzb) -> QuadraticForm:
    """The form of whole-window u-form blocks, (2K+1,)*n + (J, J) each, with
    S symmetrized. The blocks must be a real Hamiltonian to STRUCTURE_RTOL
    relative, conj(zz) paired with zbzb and zzbar(theta) Hermitian at real
    theta (hat(-k)^H = hat(k)), else a ValueError."""
    rev = (slice(None, None, -1),) * n
    defect = max(float(np.max(np.abs(np.conj(zz[rev]) - zbzb))),
                 float(np.max(np.abs(np.swapaxes(np.conj(zzbar[rev]), -1, -2) - zzbar))))
    scale = max(float(np.max(np.abs(b))) for b in (zz, zzbar, zbzb))
    if not defect <= STRUCTURE_RTOL * scale:
        raise ValueError(f"form is not a real Hamiltonian: structure defect {defect:.3e}")
    S = qp_from_blocks(zz, zzbar, zbzb)[half_index(n, K)]
    return QuadraticForm(n, K, J, 0.5 * (S + np.swapaxes(S, -1, -2)))


def real_form(rng, n, K, J, scale=1.0) -> QuadraticForm:
    return form_from_blocks(n, K, J, *real_blocks(rng, n, K, J, scale))


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


# ---------------------------------------------------------------------------
# The doubled complex coordinates u = (z, zbar) = T (q, p)


def qp_unitary(J):
    """T = [[I, -iI], [I, iI]] / sqrt(2), u = T (q, p)."""
    eye = np.eye(J)
    return np.block([[eye, -1j * eye], [eye, 1j * eye]]) / math.sqrt(2.0)


def qp_to_u(states, J):
    """(q, p) samples to doubled complex coordinates u = (z, conj z)."""
    q, p = states[..., :J], states[..., J:]
    z = (q - 1j * p) / math.sqrt(2.0)
    return np.concatenate([z, np.conj(z)], axis=-1)


def u_norm(u, ws):
    w2 = ws.doubled_metric_weights
    return np.sqrt(np.sum((w2[None, :] * np.abs(u)) ** 2, axis=-1))


def uform_initial_state(mat_u, z0):
    """The full (q, p) state of reduced modes z0 through the u-form chain
    map mat_u at theta0 (None for the empty chain)."""
    J = z0.shape[0]
    u = np.concatenate([z0, np.conj(z0)])
    if mat_u is not None:
        u = mat_u @ u
    return np.concatenate([math.sqrt(2.0) * u[:J].real, -math.sqrt(2.0) * u[:J].imag])


def uform_compare_through_chain(mats_u, full_times, full_states, lam, ws, subsample=1):
    """The conjugacy check in u: mats_u (P, 2J, 2J) are the u-form chain maps
    at the subsampled times (None for the empty chain); returns
    (max_rel_deviation, modulus_drift, deviations)."""
    J = ws.J_max
    times = np.asarray(full_times)[::subsample]
    u_full = qp_to_u(np.asarray(full_states)[::subsample], J)
    if mats_u is None:
        mats_u = np.broadcast_to(np.eye(2 * J, dtype=complex),
                                 (times.shape[0], 2 * J, 2 * J)).copy()
    u_red0 = np.linalg.solve(mats_u[0], u_full[0])
    phase = np.exp(1j * times[:, None] * np.asarray(lam)[None, :])
    u_red = np.concatenate([phase * u_red0[None, :J],
                            np.conj(phase) * u_red0[None, J:]], axis=-1)
    u_pred = np.einsum("tij,tj->ti", mats_u, u_red)
    dev = u_norm(u_pred - u_full, ws) / np.maximum(u_norm(u_full, ws), 1e-300)
    u_back = np.linalg.solve(mats_u, u_full[..., None])[..., 0]
    moduli = np.abs(u_back[:, :J])
    drift = float(np.max(np.abs(moduli - moduli[0])) / max(np.max(moduli[0]), 1e-300))
    return float(np.max(dev)), drift, dev

