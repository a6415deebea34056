"""Brute-force oracles the tests compare the engine against: the resonance
screen point by point and an exactly resonant tau, the potential's expansion
at a point, a piece's analyticity certificate, the truncated wave system's
vector field and Hamiltonian written out per time, and the Lyapunov growth
one interval at a time."""

import numpy as np

from qpwave.fourier import active_modes, eval_modes, half_index, half_multiplicity, kgrid
from qpwave.galerkin import blocks_from_qp
from qpwave.potential import InvalidPotentialError
from qpwave.resonance import DivisorQuery
from qpwave.verify import TruncatedWaveSystem, integrate_full, lyapunov_from_stepper

EVAL_IMAG_TOL = 1e-10  # evaluate_potential's bound on the imaginary residual


def brute_force_mask(nf, omega0, K_m: int, gamma_m: float, J_max: int, taus: np.ndarray,
                     prune: bool = True) -> np.ndarray:
    """Per-point screening of measure_scan's excluded mask. With prune=False
    the difference family is enumerated over all |i-j|, dropping the gap
    pruning."""
    lam = nf.lambdas()[:J_max]
    omega0 = np.asarray(omega0, dtype=float)
    n = omega0.shape[0]
    kv = kgrid(n, K_m).reshape(-1, n)
    kdots = kv @ omega0
    kinf_v = np.max(np.abs(kv), axis=1)
    A_k = kinf_v.astype(float) ** (2 * n + 3) + 8.0
    out = np.zeros(taus.shape[0], dtype=bool)
    for ki in range(kv.shape[0]):
        for i in range(1, J_max + 1):
            for j in range(1, J_max + 1):
                if i == j and kinf_v[ki] == 0:
                    continue
                d = abs(i - j)
                if prune and d > min(J_max - 1, int(np.ceil(8.0 * abs(kdots[ki])))):
                    continue
                t = (d + 1.0) * gamma_m / A_k[ki]
                vals = np.abs(-kdots[ki] * taus + lam[i - 1] - lam[j - 1])
                out |= vals < t
        # sum family
        for i in range(1, J_max + 1):
            for j in range(i, J_max + 1):
                s = lam[i - 1] + lam[j - 1]
                if s > 2.0 * float(np.max(np.abs(kdots))) + 2.0:
                    continue
                t = (abs(i - j) + 1.0) * gamma_m / A_k[ki]
                vals = np.abs(-kdots[ki] * taus + s)
                out |= vals < t
    return out


def find_resonant_tau(omega0, J_max: int = 8, K_search: int = 2) -> tuple:
    """Construct tau in [1, 2] solving <k, omega0> tau = i - j exactly for a
    small query (base frequencies lam_j = j)."""
    omega0 = np.asarray(omega0, dtype=float)
    n = omega0.shape[0]
    kv = kgrid(n, K_search).reshape(-1, n)
    for k in kv:
        dot = float(k @ omega0)
        if abs(dot) < 1e-12:
            continue
        for d in range(1, J_max):
            tau = d / dot
            if 1.0 < tau < 2.0:
                return tau, DivisorQuery(tuple(int(x) for x in k), d + 1, 1,
                                         "zzbar", 0.0, 0.0)
    raise ValueError("no exact resonance found in the search range")


# ---------------------------------------------------------------------------
# The potential and its pieces


def evaluate_potential(pf, theta: np.ndarray, x: float) -> float:
    """Evaluate the truncated expansion sum v_hat(k,j) e^{i k.theta} cos(j x)."""
    theta = np.asarray(theta, dtype=float)
    vj = eval_modes(*active_modes(pf.v_hat, pf.n, pf.K_theta), theta.reshape(1, -1))[0]
    j = np.arange(1, pf.J_max + 1)
    val = np.sum(vj * np.cos(j * float(x)))
    if abs(val.imag) > EVAL_IMAG_TOL:
        raise InvalidPotentialError(
            f"imaginary residual {abs(val.imag):.3e} exceeds {EVAL_IMAG_TOL:.1e}"
        )
    return float(val.real)


def analyticity_certificate(piece, strip: float) -> float:
    """Strip-weighted coefficient sum over the window,
    max over the u-form blocks of sum_k e^{s |k|} |hat(k)|_2.

    Read on the half, each mode standing for k and -k: mode -k of zzbar
    is the conjugate transpose of mode k, and mode -k of zz the conjugate
    of mode k of zbzb, so zz and zbzb have one whole-window sum, that of
    the mean of their norms."""
    n, K = piece.n, piece.K
    radii = np.linalg.norm(kgrid(n, K)[half_index(n, K)], axis=-1)
    weight = np.exp(strip * radii) * half_multiplicity(n, K)
    zz, zzbar, zbzb = (np.sum(weight * np.linalg.norm(b, ord=2, axis=(-2, -1)))
                       for b in blocks_from_qp(piece.coeffs))
    return float(max(0.5 * (zz + zbzb), zzbar))


# ---------------------------------------------------------------------------
# The truncated wave system, one time at a time


def rhs(system, t: float, y: np.ndarray) -> np.ndarray:
    """qdot_k = k p_k, pdot_k = -k q_k - 2 eps (M(theta(t)) q)_k."""
    J = system.J
    q, p = y[:J], y[J:]
    M = system.coupling_at(np.array([t]))[0]
    modes = np.arange(1, J + 1, dtype=float)
    dq = modes * p
    dp = -modes * q - 2.0 * system.eps * (M @ q)
    return np.concatenate([dq, dp])


def hamiltonian(system, t: float, y: np.ndarray) -> float:
    J = system.J
    q, p = y[:J], y[J:]
    M = system.coupling_at(np.array([t]))[0]
    modes = np.arange(1, J + 1, dtype=float)
    return float(np.sum(modes * (p**2 + q**2)) / 2.0 + system.eps * q @ (M @ q))


def gradient_defect(system, rng: np.random.Generator, samples: int = 8,
                    h: float = 1e-6) -> float:
    """Central-difference check that rhs is the canonical gradient flow of
    hamiltonian."""
    J = system.J
    worst = 0.0
    for _ in range(samples):
        t = float(rng.uniform(0.0, 10.0))
        y = rng.standard_normal(2 * J)
        f = rhs(system, t, y)
        grad = np.zeros(2 * J)
        for a in range(2 * J):
            e = np.zeros(2 * J)
            e[a] = h
            grad[a] = (hamiltonian(system, t, y + e) - hamiltonian(system, t, y - e)) / (2 * h)
        expected = np.concatenate([grad[J:], -grad[:J]])
        worst = max(worst, float(np.max(np.abs(f - expected))
                                 / max(1.0, np.max(np.abs(f)))))
    return worst


def lyapunov_per_interval(system, T: float, renorm_dt: float, ws, seed: int = 7):
    """lyapunov_exponent's estimate with one integrate_full call per
    renormalization interval, on the system shifted to the interval's start."""
    rng = np.random.default_rng(seed)
    w0 = rng.standard_normal(2 * system.J) * (1.0 / ws.doubled_metric_weights)

    def step_fn(t0, y, h):
        shifted = TruncatedWaveSystem(system.pf, system.ct, system.freq, system.eps, system.J,
                                      system.theta0 + t0 * system.freq.omega)
        _, states = integrate_full(shifted, y, h, record_every=10**9)
        return states[-1]

    return lyapunov_from_stepper(step_fn, w0, T, renorm_dt, ws.state_norm)
