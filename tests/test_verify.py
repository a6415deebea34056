import math

import numpy as np
import pytest

from forms import (
    qp_to_u,
    qp_unitary,
    uform_blocks,
    uform_compare_through_chain,
    uform_initial_state,
)
from oracles import gradient_defect, lyapunov_per_interval
from qpwave import verify
from qpwave.fourier import active_modes, eval_modes, half_index
from qpwave.galerkin import WeightedSpace, assemble_initial_forms, coupling_tensor
from qpwave.kam import NormalForm, TransformChain
from qpwave.potential import FrequencySpec, fourier_analyze, make_potential
from qpwave.verify import (
    _STAGE_CENTERS,
    _W0,
    _W1,
    StabilityError,
    TruncatedWaveSystem,
    chain_initial_state,
    compare_through_chain,
    integrate_full,
    lyapunov_exponent,
    lyapunov_from_stepper,
    multiplier_decay,
)

OMEGA0 = (1.0, np.sqrt(2.0))


def uform_from_blocks(zz, zzbar, zbzb):
    """Symmetric u-form [[A, B^T/2], [B/2, C]] for <Az,z>+<Bz,zb>+<Czb,zb>."""
    J = zz.shape[-1]
    swap = tuple(range(zz.ndim - 2)) + (zz.ndim - 1, zz.ndim - 2)
    Q = np.zeros(zz.shape[:-2] + (2 * J, 2 * J), dtype=complex)
    Q[..., :J, :J] = zz
    Q[..., :J, J:] = 0.5 * zzbar.transpose(swap)
    Q[..., J:, :J] = 0.5 * zzbar
    Q[..., J:, J:] = zbzb
    return Q


def generator_of(Q):
    """u' = 2 JSYM Q u with JSYM = [[0, +iI], [-iI, 0]], in u = (z, zbar)."""
    J = Q.shape[-1] // 2
    JS = np.zeros((2 * J, 2 * J), dtype=complex)
    JS[:J, J:] = 1j * np.eye(J)
    JS[J:, :J] = -1j * np.eye(J)
    return 2.0 * JS @ Q


def build_system(J=6, K=2, eps=1e-2, tau=1.37, scale=0.5, N=4, theta0=None):
    freq = FrequencySpec(OMEGA0, tau, 0.05)
    p, _ = make_potential("finite_smooth", freq, eps=eps, N=N, scale=scale,
                          theta_band=K - 1)
    pf = fourier_analyze(p, K_theta=K, J_max=J)
    ct = coupling_tensor(J)
    theta0 = np.zeros(2) if theta0 is None else theta0
    return TruncatedWaveSystem(pf, ct, freq, eps, J, theta0), pf, ct, freq


class TestWaveSystem:
    def test_coupling_matches_explicit_sum(self):
        sys, pf, ct, freq = build_system()
        theta = np.array([[0.7, 1.9]])
        M = sys.coupling_at(np.array([0.0]))  # theta0 = 0, t = 0
        v = pf.v_of_theta(np.zeros((1, 2)))[0].real
        expect = np.zeros((6, 6))
        for k in range(1, 7):
            for l in range(1, 7):
                s = sum(ct[j - 1, l - 1, k - 1] * v[j - 1] for j in range(1, 7))
                expect[k - 1, l - 1] = s / math.sqrt(k * l)
        assert np.max(np.abs(M[0] - expect)) < 1e-12

    def test_vector_field_is_canonical_gradient(self):
        sys, *_ = build_system()
        rng = np.random.default_rng(0)
        assert gradient_defect(sys, rng, samples=5) < 1e-6

    def test_free_single_mode_rotation(self):
        sys, *_ = build_system(eps=0.0)
        J = sys.J
        y0 = np.zeros(2 * J)
        k = 3
        y0[k - 1] = 0.4   # q_k
        y0[J + k - 1] = -0.7  # p_k
        T = 2.5
        times, states = integrate_full(sys, y0, T, record_every=1)
        for t, y in zip(times, states):
            assert y[k - 1] == pytest.approx(
                math.cos(k * t) * 0.4 + math.sin(k * t) * (-0.7), abs=1e-12)
            assert y[J + k - 1] == pytest.approx(
                -math.sin(k * t) * 0.4 + math.cos(k * t) * (-0.7), abs=1e-12)

    def test_free_energy_conservation(self):
        sys, *_ = build_system(eps=0.0, J=8)
        rng = np.random.default_rng(1)
        y0 = rng.standard_normal(16)
        times, states = integrate_full(sys, y0, 100.0)
        e0 = sys.energy(states[0])
        drift = max(abs(sys.energy(y) - e0) for y in states) / abs(e0)
        assert drift < 1e-10

    def test_step_size_guard(self):
        sys, *_ = build_system(J=6)
        with pytest.raises(StabilityError):
            integrate_full(sys, np.zeros(12), 1.0, dt=0.5)

    def test_matches_complexified_generator(self):
        # the (q, p) flow and the doubled-coordinate generator flow are the
        # same dynamical system through z = (q - i p)/sqrt(2)
        sys, pf, ct, freq = build_system(J=6, K=2, eps=1e-2)
        ws = WeightedSpace(4, 6)
        qf = assemble_initial_forms(pf, ct, ws)
        rng = np.random.default_rng(2)
        y0 = 0.3 * rng.standard_normal(12)
        T = 2.0
        times, states = integrate_full(sys, y0, T, record_every=10**9)
        u_direct = qp_to_u(states[-1].reshape(1, -1), 6)[0]

        # independent route: RK4 on u' = [L0 + eps*gen(Q(theta))] u
        Q_hat = uform_from_blocks(*uform_blocks(qf))
        lam = np.arange(1, 7, dtype=float)
        L0 = np.diag(np.concatenate([1j * lam, -1j * lam]))

        def L_at(t):
            theta = (t * freq.omega).reshape(1, -1)
            Q = eval_modes(*active_modes(Q_hat.reshape(Q_hat.shape[:2] + (-1,)), 2, 2), theta)
            Q = Q.reshape(12, 12)
            return L0 + 1e-2 * generator_of(Q)

        u = qp_to_u(y0.reshape(1, -1), 6)[0]
        steps = 4000
        h = T / steps
        for s in range(steps):
            t = s * h
            k1 = L_at(t) @ u
            k2 = L_at(t + h / 2) @ (u + h / 2 * k1)
            k3 = L_at(t + h / 2) @ (u + h / 2 * k2)
            k4 = L_at(t + h) @ (u + h * k3)
            u = u + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        assert np.max(np.abs(u - u_direct)) < 1e-7


def integrate_substeps(sys, initial, T, record_every):
    """Reference splitting: the same scheme as integrate_full, applied one
    substep at a time to the (q, p) state."""
    J = sys.J
    n_steps = int(math.ceil(T / (0.1 / J) - 1e-12))
    dt = T / n_steps
    k = sys._modes
    drift_sizes = (0.5 * _W1 * dt, 0.5 * (_W1 + _W0) * dt, 0.5 * (_W0 + _W1) * dt,
                   0.5 * _W1 * dt)
    rot = [(np.cos(k * a), np.sin(k * a)) for a in drift_sizes]
    kick_sizes = tuple(w * dt for w in (_W1, _W0, _W1))
    q, p = initial[:J].astype(float), initial[J:].astype(float)
    times, states = [0.0], [np.concatenate([q, p])]
    for step in range(n_steps):
        M = sys.coupling_at((step + np.array(_STAGE_CENTERS)) * dt)
        for stage in range(3):
            c, s = rot[stage]
            q, p = c * q + s * p, -s * q + c * p
            p = p - (2.0 * sys.eps * kick_sizes[stage]) * (M[stage] @ q)
        c, s = rot[3]
        q, p = c * q + s * p, -s * q + c * p
        if (step + 1) % record_every == 0 or step + 1 == n_steps:
            times.append((step + 1) * dt)
            states.append(np.concatenate([q, p]))
    return np.asarray(times), np.asarray(states)


class TestBlockPropagators:
    @pytest.mark.parametrize("T, record_every, chunk", [
        (50.0, 7, 256),   # 6000 steps: a partial last chunk
        (2.0, 4, 8),      # 120 steps = 15 full chunks; records on chunk ends
        (2.0, 5, 7),      # 120 steps: partial last chunk, records cross chunks
        (2.1, 1, 256),    # 126 steps: one-step blocks, each step's P_n
        (2.1, 7, 256),    # one block of 7 steps per record
        (2.1, 10**9, 256),  # one record: 12 blocks of BLOCK_STEPS, then 6 steps
        (50.0, 10**9, 256),  # 3000 steps: spans cut at chunk ends
    ])
    def test_matches_substep_reference(self, T, record_every, chunk, monkeypatch):
        sys, *_ = build_system(J=6, eps=1e-2)
        y0 = 0.3 * np.random.default_rng(4).standard_normal(12)
        monkeypatch.setattr(verify, "CHUNK_STEPS", chunk)
        times, states = integrate_full(sys, y0, T, record_every=record_every)
        ref_times, ref_states = integrate_substeps(sys, y0, T, record_every)
        assert np.array_equal(times, ref_times)
        rel = np.max(np.abs(states - ref_states)) / np.max(np.abs(ref_states))
        assert rel <= 1e-11


class TestConjugacy:
    def test_free_system_identity_chain(self):
        sys, *_ = build_system(eps=0.0, J=6)
        rng = np.random.default_rng(3)
        y0 = rng.standard_normal(12)
        times, states = integrate_full(sys, y0, 20.0)
        ws = WeightedSpace(4, 6)
        lam = np.arange(1, 7, dtype=float)
        rep = compare_through_chain(None, times, states, lam, np.zeros(2),
                                    sys.freq.omega, ws)
        assert rep.max_rel_deviation < 1e-10
        assert rep.modulus_drift < 1e-10

    @pytest.mark.parametrize("n, steps", [(1, 3), (2, 3), (2, 0)])
    def test_matches_the_uform_route(self, n, steps):
        # the check in u = (z, zbar) = T (q, p) through the u-form chain maps
        # T Phi T^H, on a random real chain and a coupled trajectory
        J, K = 6, 1
        sys, *_ = build_system(J=J, eps=1e-2)
        rng = np.random.default_rng(70 + 10 * n + steps)
        chain = TransformChain()
        shape = (2 * K + 1,) * n + (2 * J, 2 * J)
        for _ in range(steps):
            c = 0.01 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
            whole = c + np.conj(np.flip(c, axis=tuple(range(n))))  # a real map field
            chain.steps.append(whole[half_index(n, K)])
        T = qp_unitary(J)

        def uform_maps(thetas):
            return T @ chain.matrices_at(thetas) @ T.conj().T if steps else None

        theta0 = rng.uniform(0, 2 * np.pi, n)
        omega = sys.freq.omega[:n]
        amplitudes = np.arange(1, J + 1, dtype=float) ** -2.0
        phases = rng.uniform(0, 2 * np.pi, J)
        y0 = chain_initial_state(chain, theta0, amplitudes, phases)
        at_theta0 = uform_maps(theta0[None, :])
        want_y0 = uform_initial_state(None if at_theta0 is None else at_theta0[0],
                                      amplitudes * np.exp(1j * phases))
        assert y0.dtype == np.float64
        assert np.max(np.abs(y0 - want_y0)) <= 1e-14 * np.max(np.abs(want_y0))

        times, states = integrate_full(sys, y0, 5.0)
        ws = WeightedSpace(4, J)
        lam = np.arange(1, J + 1) + 0.01 * rng.standard_normal(J)
        rep = compare_through_chain(chain, times, states, lam, theta0, omega, ws,
                                    subsample=3)
        sub = times[::3]
        dev_max, drift, devs = uform_compare_through_chain(
            uform_maps(theta0[None, :] + sub[:, None] * omega[None, :]),
            times, states, lam, ws, subsample=3)
        assert rep.deviations.dtype == np.float64 and rep.times.dtype == np.float64
        assert rep.max_rel_deviation == pytest.approx(dev_max, rel=1e-12)
        assert rep.modulus_drift == pytest.approx(drift, rel=1e-12)
        assert np.max(np.abs(rep.deviations - devs)) <= 1e-12 * dev_max


class TestLyapunov:
    def test_free_system_zero_exponent(self):
        sys, *_ = build_system(eps=0.0, J=6)
        ws = WeightedSpace(3, 6)
        est = lyapunov_exponent(sys, T=100.0, renorm_dt=1.0, ws=ws)
        assert abs(est.top_exponent) < 1e-6

    def test_horizon_precondition(self):
        sys, *_ = build_system(eps=0.0, J=6)
        with pytest.raises(ValueError):
            lyapunov_exponent(sys, T=20.0, renorm_dt=1.0)

    def test_prefix_exponent_equals_shorter_run(self):
        sys, *_ = build_system(J=8, eps=1e-2)
        ws = WeightedSpace(3, 8)
        long = lyapunov_exponent(sys, T=80.0, renorm_dt=0.2, ws=ws)
        short = lyapunov_exponent(sys, T=20.0, renorm_dt=0.2, ws=ws)
        assert long.prefix_exponent(20.0) == short.top_exponent
        with pytest.raises(ValueError):
            long.prefix_exponent(10.0)

    def test_batched_growth_matches_per_interval_oracle(self):
        # 24 steps per interval: two blocks of BLOCK_STEPS and one of 4
        sys, *_ = build_system(J=8, eps=1e-2)
        ws = WeightedSpace(3, 8)
        est = lyapunov_exponent(sys, T=30.0, renorm_dt=0.3, ws=ws)
        ref = lyapunov_per_interval(sys, 30.0, 0.3, ws)
        assert np.array_equal(est.times, ref.times)
        assert np.max(np.abs(est.growth - ref.growth)) <= 1e-12 * np.max(np.abs(ref.growth))

    def test_growth_does_not_depend_on_the_chunk(self, monkeypatch):
        # 100 intervals of 24 steps, in chunks of 1, 7 (not a divisor) and all
        sys, *_ = build_system(J=8, eps=1e-2)
        ws = WeightedSpace(3, 8)
        runs = []
        for intervals in (1, 7, 100):
            monkeypatch.setattr(verify, "CHUNK_STEPS", intervals * 24)
            runs.append(lyapunov_exponent(sys, T=30.0, renorm_dt=0.3, ws=ws))
        for est in runs[1:]:
            assert np.array_equal(est.growth, runs[0].growth)
            assert est.top_exponent == runs[0].top_exponent

    def test_known_exponent_recovered(self):
        a = 0.37

        def step_fn(t, w, h):
            # u' = a u adjoined to a rotation block
            rot = np.array([[math.cos(h), math.sin(h)],
                            [-math.sin(h), math.cos(h)]])
            out = w.copy()
            out[0] *= math.exp(a * h)
            out[1:] = rot @ w[1:]
            return out

        est = lyapunov_from_stepper(step_fn, np.array([1.0, 1.0, 0.5]), 60.0, 1.0,
                                    lambda v: float(np.linalg.norm(v)))
        assert abs(est.top_exponent - a) / a < 0.01


class TestMultiplier:
    def test_zero_for_integer_frequencies(self):
        est = multiplier_decay(NormalForm(J=8).lambdas())
        assert np.max(np.abs(est.xi)) == 0.0

    def test_algebraic_identity(self):
        # lam_j = j + delta_j: xi_j = 2 j delta_j + delta_j^2
        j = np.arange(1, 9, dtype=float)
        delta = 0.3 / j
        est = multiplier_decay(j + delta)
        assert np.allclose(est.xi, 2 * j * delta + delta**2, rtol=1e-13)
        # a c/j correction makes |xi_j| * j grow linearly (mis-scaling detector)
        weighted = np.abs(est.xi) * j
        assert weighted[-1] > weighted[0]
