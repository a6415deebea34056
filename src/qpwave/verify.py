"""Independent verification: direct integration of the truncated wave system,
Lyapunov-exponent estimation, conjugacy of reduced and full trajectories
through the transform chain, and the Fourier-multiplier decay profile.

The truncated system is the canonical flow of
H(q, p, t) = sum_k k (p_k^2 + q_k^2)/2 + eps <M(theta0 + omega t) q, q>,
M(theta)_{kl} = sum_j c_jlk v_j(theta) / (sqrt(k) sqrt(l)),
so qdot_k = k p_k and pdot_k = -k q_k - 2 eps (M q)_k. The integrator is a
4th-order symmetric splitting whose subflows (mode rotations / potential
kicks) are exact, hence it is exact to roundoff at eps = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .galerkin import WeightedSpace
from .potential import FrequencySpec, PotentialFourier

_W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
_W0 = 1.0 - 2.0 * _W1
# kick stage centers within one step (exact midpoints of the three substeps)
_STAGE_CENTERS = (0.5 * _W1, _W1 + 0.5 * _W0, 1.0 - 0.5 * _W1)
BLOCK_STEPS = 10  # most steps one block propagator spans
CHUNK_STEPS = 256  # steps whose propagators are built at once


class StabilityError(RuntimeError):
    """Step size too large for the fastest mode."""


@dataclass
class TruncatedWaveSystem:
    """2*J_max real ODE system in (q, p) with quasi-periodic coupling."""

    pf: PotentialFourier
    ct: np.ndarray  # coupling_tensor, (J_max,)*3
    freq: FrequencySpec
    eps: float
    J: int
    theta0: np.ndarray

    def __post_init__(self):
        self.theta0 = np.asarray(self.theta0, dtype=float)
        J, Jp = self.J, self.pf.J_max
        C = self.ct[:Jp, :J, :J]  # (j, l, k)
        s = np.sqrt(np.arange(1, J + 1, dtype=float))
        # T[j, k, l] = c_jlk / (sqrt(k) sqrt(l))
        self._T = np.transpose(C, (0, 2, 1)) / (s[None, :, None] * s[None, None, :])
        self._modes = np.arange(1, J + 1, dtype=float)

    def thetas(self, t: np.ndarray) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return self.theta0[None, :] + t[:, None] * self.freq.omega[None, :]

    def coupling_at(self, t: np.ndarray) -> np.ndarray:
        """M(theta(t)) for a batch of times, shape (T, J, J)."""
        v = self.pf.v_of_theta(self.thetas(t)).real
        return np.tensordot(v, self._T, axes=(1, 0))

    def energy(self, y: np.ndarray) -> float:
        J = self.J
        q, p = y[:J], y[J:]
        return float(np.sum(self._modes * (p**2 + q**2)) / 2.0)


def _step_count(T: float, dt: float | None, J: int) -> tuple:
    """(n_steps, dt): the fewest equal steps over [0, T] no longer than dt."""
    dt_max = 0.1 / J
    if dt is None:
        dt = dt_max
    n_steps = int(math.ceil(T / dt - 1e-12))
    dt = T / n_steps
    if dt > dt_max * (1 + 1e-12):
        raise StabilityError(f"dt={dt:.3e} exceeds 0.1/J_max={dt_max:.3e}")
    return n_steps, dt


def _stage_times(first: int, steps: int, dt: float) -> np.ndarray:
    """Kick times of steps first .. first + steps - 1, shape (steps * 3,)."""
    return ((first + np.arange(steps)[:, None]) * dt + np.array(_STAGE_CENTERS) * dt).ravel()


class _Splitting:
    """One step of the splitting at step size dt, P_n = R3 K2 R2 K1 R1 K0 R0
    (drifts R, kicks K), applied to stacked blocks of steps.

    A propagator is kept as its rows q + i p, a (J, 2J) complex array: a
    drift rotates z = q + i p of each mode, z -> (cos - i sin)(k a) z, and a
    kick is p -= c (M q).
    """

    def __init__(self, sys: TruncatedWaveSystem, dt: float):
        J, k = sys.J, sys._modes
        # merged drift angles: half of first substep, averages between kicks, half of last
        drift_sizes = (0.5 * _W1 * dt, 0.5 * (_W1 + _W0) * dt, 0.5 * (_W0 + _W1) * dt,
                       0.5 * _W1 * dt)
        self.rot = [(np.cos(k * a) - 1j * np.sin(k * a))[:, None] for a in drift_sizes]
        self.kick_coefs = tuple(2.0 * sys.eps * w * dt for w in (_W1, _W0, _W1))
        # rows of the propagator after the first drift
        self.Z0 = self.rot[0] * np.hstack([np.eye(J), 1j * np.eye(J)])

    def blocks(self, M: np.ndarray | None, batch: tuple, steps: int) -> np.ndarray:
        """Propagators of stacked blocks of `steps` steps, shape batch + (2J, 2J).

        M[..., s, stage] is a block's coupling at its step s and kick stage,
        shape batch + (steps, 3, J, J); None for an uncoupled system.
        """
        Z = np.broadcast_to(self.Z0, batch + self.Z0.shape).copy()
        # numpy multiplies complex arrays about twice as fast when neither
        # operand is broadcast, with the same bits
        rot = [np.broadcast_to(r, Z.shape).copy() for r in self.rot]
        for s in range(steps):
            if s:
                Z *= rot[0]
            for stage in range(3):
                if M is not None:
                    kick = M[..., s, stage, :, :] @ Z.real
                    kick *= self.kick_coefs[stage]
                    Z.imag -= kick
                Z *= rot[stage + 1]
        return np.concatenate([Z.real, Z.imag], axis=-2)

    def span_blocks(self, M: np.ndarray | None, spans: int, steps: int) -> np.ndarray:
        """Block propagators of stacked spans of `steps` consecutive steps:
        blocks of BLOCK_STEPS steps from each span's start, the last one
        shorter; shape (spans, blocks, 2J, 2J). M has shape
        (spans, steps, 3, J, J), or is None."""
        full, rest = divmod(steps, BLOCK_STEPS)
        parts = []
        if full:
            Mf = None if M is None else M[:, :full * BLOCK_STEPS].reshape(
                (spans, full, BLOCK_STEPS) + M.shape[2:])
            parts.append(self.blocks(Mf, (spans, full), BLOCK_STEPS))
        if rest:
            Mr = None if M is None else M[:, None, full * BLOCK_STEPS:]
            parts.append(self.blocks(Mr, (spans, 1), rest))
        return np.concatenate(parts, axis=1)


def integrate_full(
    sys: TruncatedWaveSystem,
    initial: np.ndarray,
    T: float,
    dt: float | None = None,
    record_every: int | None = None,
) -> tuple:
    """4th-order splitting integration; returns (times, states (S, 2J)).

    The state advances by one block propagator @ y per block of at most
    BLOCK_STEPS steps, and every record step ends a block. The propagators
    of up to CHUNK_STEPS steps are built at once (``_Splitting.span_blocks``).
    """
    J = sys.J
    n_steps, dt = _step_count(T, dt, J)
    if record_every is None:
        record_every = max(1, n_steps // 400)
    splitting = _Splitting(sys, dt)

    y = np.array(initial, dtype=float)
    times = [0.0]
    states = [y]

    coupled = sys.eps != 0.0
    step = 0
    while step < n_steps:
        # spans of equal length that end on record steps or chunk ends
        span = min(record_every - step % record_every, CHUNK_STEPS, n_steps - step)
        spans = min(CHUNK_STEPS, n_steps - step) // span if span == record_every else 1
        M = None
        if coupled:
            M = sys.coupling_at(_stage_times(step, spans * span, dt)).reshape(
                spans, span, 3, J, J)
        for blocks in splitting.span_blocks(M, spans, span):
            for P in blocks:
                y = P @ y
            step += span
            if step % record_every == 0 or step == n_steps:
                times.append(step * dt)
                states.append(y)
    return np.asarray(times), np.asarray(states)


def chain_initial_state(chain, theta0: np.ndarray, amplitudes: np.ndarray,
                        phases: np.ndarray) -> np.ndarray:
    """Full (q, p) state whose reduced modes are z_j = a_j e^{i phi_j}: the
    reduced state sqrt(2) (Re z, -Im z) mapped through the chain at theta0."""
    x_red = math.sqrt(2.0) * np.concatenate([amplitudes * np.cos(phases),
                                             -amplitudes * np.sin(phases)])
    if not chain.steps:
        return x_red
    return chain.matrices_at(np.reshape(theta0, (1, -1)))[0] @ x_red


@dataclass
class ConjugacyReport:
    max_rel_deviation: float
    modulus_drift: float
    times: np.ndarray
    deviations: np.ndarray


def compare_through_chain(
    chain,
    full_times: np.ndarray,
    full_states: np.ndarray,
    lam: np.ndarray,
    theta0: np.ndarray,
    omega: np.ndarray,
    ws: WeightedSpace,
    subsample: int = 1,
) -> ConjugacyReport:
    """Map the reduced trajectory forward through the chain at theta(t) and
    return the sup-t relative weighted distance to the full trajectory.

    Everything is in (q, p): the reduced flow z_j -> e^{i lam_j t} z_j,
    z = (q - i p)/sqrt(2), rotates each mode's (q_j, p_j)."""
    J = ws.J_max
    times = np.asarray(full_times)[::subsample]
    x_full = np.asarray(full_states)[::subsample]
    thetas = np.asarray(theta0)[None, :] + times[:, None] * np.asarray(omega)[None, :]

    if chain is not None and chain.steps:
        mats = chain.matrices_at(thetas)
    else:
        mats = np.broadcast_to(np.eye(2 * J), (times.shape[0], 2 * J, 2 * J))

    x_red0 = np.linalg.solve(mats[0], x_full[0])
    q0, p0 = x_red0[:J], x_red0[J:]
    angle = times[:, None] * np.asarray(lam)[None, :]
    cos, sin = np.cos(angle), np.sin(angle)
    x_red = np.concatenate([cos * q0 + sin * p0, cos * p0 - sin * q0], axis=-1)
    x_pred = np.einsum("tij,tj->ti", mats, x_red)

    dev = ws.state_norm(x_pred - x_full) / np.maximum(ws.state_norm(x_full), 1e-300)

    # reverse direction: reduced moduli |z_j| recovered from the full trajectory
    x_back = np.linalg.solve(mats, x_full[..., None])[..., 0]
    moduli = np.sqrt(0.5 * (x_back[:, :J] ** 2 + x_back[:, J:] ** 2))
    drift = float(np.max(np.abs(moduli - moduli[0])) / max(np.max(moduli[0]), 1e-300))

    return ConjugacyReport(
        max_rel_deviation=float(np.max(dev)),
        modulus_drift=drift,
        times=times,
        deviations=dev,
    )


# ---------------------------------------------------------------------------
# Lyapunov exponents


@dataclass
class LyapunovEstimate:
    top_exponent: float
    times: np.ndarray
    growth: np.ndarray
    renorm_dt: float

    def prefix_exponent(self, T: float) -> float:
        """Top exponent of the same run stopped at horizon T.

        A run to horizon T with the same stepper and start vector takes the
        first round(T / renorm_dt) intervals of this one, so its estimate is
        the tail slope of that prefix, bit for bit.
        """
        _require_lyapunov_horizon(T, self.renorm_dt)
        n = int(round(T / self.renorm_dt))
        return _tail_slope(self.times[:n], self.growth[:n])


class RenormIntervalError(RuntimeError):
    pass


def _require_lyapunov_horizon(T: float, renorm_dt: float):
    if T < 100 * renorm_dt:
        raise ValueError("horizon must cover at least 100 renormalization intervals")


def _tail_slope(times: np.ndarray, growth: np.ndarray) -> float:
    half = len(times) // 2
    t, g = times[half:], growth[half:]
    if len(t) < 2:
        return float(growth[-1] / times[-1]) if times[-1] else 0.0
    A = np.vstack([t, np.ones_like(t)]).T
    coef, *_ = np.linalg.lstsq(A, g, rcond=None)
    return float(coef[0])


def lyapunov_from_stepper(step_fn, w0: np.ndarray, T: float, renorm_dt: float,
                          norm_fn) -> LyapunovEstimate:
    """Generic single-vector growth-rate estimator with renormalization.

    step_fn(t, w, h) advances the linear system from t to t + h; the top
    exponent is the least-squares slope of the tail (last half) of the
    cumulative log-growth series.
    """
    if T < 10 * renorm_dt:
        raise ValueError("horizon too short relative to the renorm interval")
    w = np.asarray(w0).astype(complex if np.iscomplexobj(w0) else float).copy()
    n0 = norm_fn(w)
    if n0 == 0:
        raise ValueError("zero initial vector")
    w /= n0
    t = 0.0
    total = 0.0
    times, growth = [], []
    n_int = int(round(T / renorm_dt))
    for _ in range(n_int):
        w = step_fn(t, w, renorm_dt)
        t += renorm_dt
        nrm = norm_fn(w)
        if not np.isfinite(nrm) or nrm > 1e280:
            raise RenormIntervalError("overflow before renormalization; shrink interval")
        total += math.log(nrm)
        w /= nrm
        times.append(t)
        growth.append(total)
    times = np.asarray(times)
    growth = np.asarray(growth)
    return LyapunovEstimate(
        top_exponent=_tail_slope(times, growth),
        times=times, growth=growth, renorm_dt=renorm_dt,
    )


def lyapunov_exponent(
    sys: TruncatedWaveSystem,
    T: float,
    renorm_dt: float = 1.0,
    ws: WeightedSpace | None = None,
    seed: int = 7,
) -> LyapunovEstimate:
    """Top Lyapunov exponent of the truncated wave flow (the system is linear,
    so the state itself evolves as a tangent vector).

    The block propagators of the intervals are built for up to CHUNK_STEPS
    steps at a time (``_interval_blocks``); the estimate does not depend on
    CHUNK_STEPS."""
    _require_lyapunov_horizon(T, renorm_dt)
    ws = ws or WeightedSpace(N=2, J_max=sys.J)
    rng = np.random.default_rng(seed)
    w0 = rng.standard_normal(2 * sys.J) * (1.0 / ws.doubled_metric_weights)
    intervals = _interval_blocks(sys, int(round(T / renorm_dt)), renorm_dt)

    def step_fn(t0, y, h):
        for P in next(intervals):
            y = P @ y
        return y

    return lyapunov_from_stepper(step_fn, w0, T, renorm_dt, ws.state_norm)


def _interval_blocks(sys: TruncatedWaveSystem, n_int: int, renorm_dt: float):
    """Block propagators of each renormalization interval in turn.

    Interval i is the system shifted to start at t_i = i renorm_dt (summed
    as lyapunov_from_stepper sums it), integrated over [0, renorm_dt]. The
    intervals of up to CHUNK_STEPS steps go through the kernel at once.
    """
    J = sys.J
    n_steps, dt = _step_count(renorm_dt, None, J)
    splitting = _Splitting(sys, dt)
    stage_t = _stage_times(0, n_steps, dt)
    per_chunk = max(1, CHUNK_STEPS // n_steps)
    t0 = 0.0
    for first in range(0, n_int, per_chunk):
        count = min(per_chunk, n_int - first)
        M = None
        if sys.eps != 0.0:
            M = np.empty((count, n_steps, 3, J, J))
            for i in range(count):
                shifted = TruncatedWaveSystem(sys.pf, sys.ct, sys.freq, sys.eps, J,
                                              sys.theta0 + t0 * sys.freq.omega)
                M[i] = shifted.coupling_at(stage_t).reshape(n_steps, 3, J, J)
                t0 += renorm_dt
        yield from splitting.span_blocks(M, count, n_steps)


# ---------------------------------------------------------------------------
# Multiplier decay


@dataclass
class MultiplierEstimate:
    xi: np.ndarray
    decay_constant: float  # max_j |xi_j| * j
    max_abs: float

    def as_dict(self) -> dict:
        return {
            "xi": self.xi.tolist(),
            "decay_constant": self.decay_constant,
            "max_abs": self.max_abs,
            "abs_profile": np.abs(self.xi).tolist(),
            "weighted_profile": (np.abs(self.xi) * np.arange(1, len(self.xi) + 1)).tolist(),
        }


def multiplier_decay(lam: np.ndarray) -> MultiplierEstimate:
    """xi_j = lam_j^2 - j^2 of the final frequencies lam (NormalForm.lambdas)."""
    j = np.arange(1, lam.shape[0] + 1, dtype=float)
    xi = lam**2 - j**2
    return MultiplierEstimate(
        xi=xi,
        decay_constant=float(np.max(np.abs(xi) * j)),
        max_abs=float(np.max(np.abs(xi))),
    )
