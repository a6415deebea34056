import math

import numpy as np
import pytest

from forms import form_from_blocks, qp_unitary, real_form, real_projection, uform_blocks
from oracles import find_resonant_tau
from qpwave import fourier, galerkin, kam, resonance
from qpwave.fourier import (
    RealGrid,
    active_modes,
    eval_modes,
    grid_to_window,
    half_index,
    reality_enforce,
    theta_grid_points,
)
from qpwave.galerkin import (
    QuadraticForm,
    WeightedSpace,
    assemble_initial_forms,
    blocks_from_qp,
    coupling_tensor,
    qp_from_blocks,
)
from qpwave.kam import (
    CertificateError,
    InvalidParameterError,
    KamEngine,
    KamOptions,
    NormalForm,
    ResonanceError,
    Schedule,
    SelfAdjointnessError,
    StepSizeError,
    TransformChain,
    bracket_sym,
    build_schedule,
    flow_transform,
    generator_of,
    hamiltonian_window,
    jr_matrix,
    jr_mul,
    push_remainder,
    qp_rows,
    seed_pieces,
    solve_homological,
    update_normal_form,
)
from qpwave.potential import FrequencySpec, fourier_analyze, make_potential
from qpwave.resonance import screen_tau
from qpwave.smoothing import JacksonKernel, decompose
from qpwave.verify import multiplier_decay

OMEGA0 = (1.0, np.sqrt(2.0))


# The complex u-form formulas in u = (z, zbar), kept here as the oracle of the
# (q, p) grid layer.


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


def jsym_matrix(J):
    JS = np.zeros((2 * J, 2 * J), dtype=complex)
    JS[:J, J:] = 1j * np.eye(J)
    JS[J:, :J] = -1j * np.eye(J)
    return JS


def uform_bracket(QA, QB):
    JS = jsym_matrix(QA.shape[-1] // 2)
    return 2.0 * (QA @ JS @ QB - QB @ JS @ QA)


def uform_generator(Q):
    """u' = 2 JSYM Q u."""
    return 2.0 * jsym_matrix(Q.shape[-1] // 2) @ Q


def to_qp(Q):
    T = qp_unitary(Q.shape[-1] // 2)
    return T.T @ Q @ T


def to_uform(S):
    """u-form of a (q, p) form, conj(T) S T^H."""
    T = qp_unitary(S.shape[-1] // 2)
    return T.conj() @ S @ T.conj().T


def map_to_u(Phi):
    """A (q, p) linear map in u coordinates, T Phi T^H."""
    T = qp_unitary(Phi.shape[-1] // 2)
    return T @ Phi @ T.conj().T


def hermitian_zzbar(rng, n, K, J):
    """Window coefficients of a theta-dependent Hermitian (not symmetric) block."""
    arr = rng.standard_normal((2 * K + 1,) * n + (J, J)) \
        + 1j * rng.standard_normal((2 * K + 1,) * n + (J, J))
    M = reality_enforce(arr, n, K)
    tr = tuple(range(n)) + (n + 1, n)
    return 0.5 * (M + np.conj(M[(slice(None, None, -1),) * n]).transpose(tr))


class TestSchedule:
    def test_eps_sequence(self):
        s = build_schedule(1e-3, N=6, gamma=0.05, n=2, M=4)
        assert s.eps[0] == pytest.approx(1e-3, rel=1e-14)
        assert s.eps[1] == pytest.approx(1e-4, rel=1e-12)
        # exact 4/3 law in log space
        log_eps = np.log(s.eps)
        ratios = log_eps[1:] / log_eps[:-1]
        assert np.allclose(ratios, 4.0 / 3.0, rtol=1e-14)

    def test_monotonicity_invariants(self):
        s = build_schedule(1e-3, N=6, gamma=0.05, n=2, M=5)
        assert np.all(np.diff(s.eps) < 0)
        assert np.all(np.diff(s.strip) < 0)
        assert np.all(np.diff(s.cutoff) > 0)
        assert np.allclose(s.gamma_steps, 0.05 / 2.0 ** np.arange(6))

    def test_strip_clamp_for_large_smoothness(self):
        s = build_schedule(1e-3, N=100, gamma=0.05, n=2, M=3)
        assert s.strip_raw[0] == pytest.approx(10 ** (-0.04), rel=1e-12)
        assert s.clamped
        assert s.strip[0] == pytest.approx(0.5, rel=1e-14)
        # proportional rescale keeps the ratios
        assert np.allclose(s.strip / s.strip[0], s.strip_raw / s.strip_raw[0], rtol=1e-13)

    def test_invalid_eps(self):
        with pytest.raises(InvalidParameterError):
            build_schedule(1.0, 6, 0.05, 2, 3)
        with pytest.raises(InvalidParameterError):
            build_schedule(0.0, 6, 0.05, 2, 3)
        assert Schedule.degenerate_schedule(2, 6, 0.05).degenerate

    def test_eps_at_matches_eps_list(self):
        for eps0 in (0.05, 0.3):
            s = build_schedule(eps0, N=6, gamma=0.05, n=2, M=8)
            assert [s.eps_at(level) for level in range(s.M + 1)] == s.eps.tolist()
        s = build_schedule(1e-3, N=6, gamma=0.05, n=2, M=5)
        for level in range(s.M + 1):
            assert s.eps_at(level) == s.eps[level]
        assert s.eps_at(s.M + 1) == pytest.approx(1e-3 ** ((4 / 3) ** (s.M + 1)), rel=1e-12)
        assert Schedule.degenerate_schedule(2, 6, 0.05).eps_at(3) == 0.0

    def test_K_eff_caps_at_window(self):
        s = build_schedule(1e-3, N=6, gamma=0.05, n=2, M=3)
        for m in range(s.M + 1):
            assert s.K_eff(m, 16) == 16  # cutoffs in the hundreds: capped
            assert s.K_eff(m, 10**9) == math.ceil(s.cutoff[m])
        assert Schedule.degenerate_schedule(2, 6, 0.05).K_eff(0, 7) == 7


class TestNormalForm:
    def test_zero_update_keeps_lambdas(self):
        nf = NormalForm(J=5)
        nf2 = update_normal_form(nf, np.zeros(5), 1e-3)
        assert np.array_equal(nf2.lambdas(), nf.base)

    def test_one_over_j_update(self):
        nf = NormalForm(J=4)
        mu = 1.0 / nf.base
        nf2 = update_normal_form(nf, mu, 1e-3)
        assert np.allclose(nf2.lambdas(), nf.base + 1e-3 / nf.base, rtol=0, atol=0)

    def test_history_reproduces_lambdas(self):
        rng = np.random.default_rng(0)
        nf = NormalForm(J=6)
        for m in range(4):
            nf = update_normal_form(nf, rng.standard_normal(6) / nf.base, 10.0 ** (-3 - m))
        manual = nf.base.copy()
        for eps_i, mu_i in nf.mu_history:
            manual += eps_i * mu_i
        assert np.array_equal(nf.lambdas(), manual)

    def test_rejects_complex_average(self):
        nf = NormalForm(J=3)
        with pytest.raises(SelfAdjointnessError):
            update_normal_form(nf, np.array([1.0, 1.0, 1.0 + 1e-6j]), 1e-3)


def empty_form(n=2, K=3, J=3):
    return QuadraticForm.zeros(n, K, J)


def zzbar_entry_form(n, K, J, k, i, j, value):
    """The real Hamiltonian value <z_j, zbar_i> e^{i k.theta} + its conjugate:
    zzbar entry (i, j) (0-based) at mode k and its Hermitian partner."""
    zzbar = np.zeros((2 * K + 1,) * n + (J, J), complex)
    zzbar[tuple(K + np.asarray(k)) + (i, j)] = value
    zzbar[tuple(K - np.asarray(k)) + (j, i)] += np.conj(value)
    zero = np.zeros_like(zzbar)
    return form_from_blocks(n, K, J, zero, zzbar, zero)


class TestHomologicalSolve:
    def freq(self, tau=1.3):
        return FrequencySpec(OMEGA0, tau, 0.05)

    def test_zero_remainder(self):
        qf = empty_form()
        nf = NormalForm(J=3)
        sol = solve_homological(qf, nf, self.freq().omega, K_m=3, gamma_m=0.05)
        assert not sol.F.coeffs.any()
        assert np.max(np.abs(sol.diag_avg)) == 0.0

    def test_single_entry_divisor(self):
        K = 2
        qf = zzbar_entry_form(2, K, 3, (1, 0), 0, 1, 1.0)  # k = (1, 0), (i, j) = (1, 2)
        nf = NormalForm(J=3)
        omega = 1.3 * np.asarray(OMEGA0)
        sol = solve_homological(qf, nf, omega, K_m=2, gamma_m=0.05)
        # divisor <k,w> - lam_1 + lam_2 = 1.3 + 1 = 2.3; F = -sqrt(-1)/2.3,
        # as the form stores it (k = (1, 0) is half row K + 1, 0)
        assert blocks_from_qp(sol.F.coeffs)[1][K + 1, 0, 0, 1] == pytest.approx(-1j / 2.3,
                                                                                abs=1e-15)
        assert sol.residual < 1e-14

    def test_diagonal_average_removed(self):
        K = 2
        zzbar = np.zeros((5, 5, 4, 4), complex)
        a = np.array([0.3, -0.1, 0.2, 0.05])
        zzbar[K, K][np.arange(4), np.arange(4)] = a
        qf = form_from_blocks(2, K, 4, np.zeros_like(zzbar), zzbar, np.zeros_like(zzbar))
        nf = NormalForm(J=4)
        sol = solve_homological(qf, nf, self.freq().omega, K_m=2, gamma_m=0.05)
        assert np.allclose(sol.diag_avg, a)
        assert np.max(np.abs(blocks_from_qp(sol.F.coeffs)[1][K, 0][np.arange(4), np.arange(4)])) == 0.0
        assert not sol.F.coeffs.any()  # nothing else to remove

    def test_plugback_residual_random(self):
        rng = np.random.default_rng(7)
        n, K, J = 2, 2, 6
        qf = real_form(rng, n, K, J)
        nf = NormalForm(J=J)
        omega = self.freq(1.37).omega
        sol = solve_homological(qf, nf, omega, K_m=2, gamma_m=1e-4)
        assert sol.residual < 1e-13

    def test_support_respects_cutoff(self):
        rng = np.random.default_rng(8)
        n, K, J = 2, 3, 3
        qf = real_form(rng, n, K, J)
        sol = solve_homological(qf, NormalForm(J=J), self.freq().omega, K_m=1,
                                gamma_m=1e-4)
        _, high = sol.F.truncate(1)
        assert not high.coeffs.any()

    def test_resonance_error_names_offender(self):
        qf = zzbar_entry_form(2, 2, 4, (1, 0), 2, 0, 1.0)
        nf = NormalForm(J=4)
        # tau with <(-2,2), omega> = 1 exactly: a gap-1 resonance (sums of two
        # modes never equal 1, so only the difference family can trip)
        tau = 1.0 / (2.0 * (np.sqrt(2.0) - 1.0))
        omega = tau * np.asarray(OMEGA0)
        with pytest.raises(ResonanceError) as err:
            solve_homological(qf, nf, omega, K_m=2, gamma_m=1e-8)
        assert err.value.kind == "zzbar"
        assert abs(err.value.k[0]) == 2 and abs(err.value.k[1]) == 2
        assert abs(err.value.i - err.value.j) == 1
        assert abs(err.value.divisor) < err.value.threshold

    def test_divisor_check_covers_the_screen(self):
        # wherever screen_tau rejects, solve_homological's divisor check
        # rejects the same (tau * omega0, lam, K_m, gamma_m); the check does not
        # read the remainder, so an empty one suffices
        rng = np.random.default_rng(20260808)
        omega0 = np.asarray(OMEGA0)
        resonant = [find_resonant_tau(omega0, J_max=8, K_search=K)[0] for K in (1, 2, 3)]
        rejected = 0
        for case in range(240):
            J = int(rng.integers(3, 9))
            K_m = int(rng.integers(1, 4))
            gamma_m = float(rng.uniform(0.01, 0.4))
            nf = NormalForm(J=J)
            if case % 2:
                nf = update_normal_form(nf, rng.standard_normal(J) / nf.base, 1e-2)
            if case % 3:
                tau = resonant[case % len(resonant)] + rng.uniform(-0.02, 0.02)
            else:
                tau = rng.uniform(1.0, 2.0)
            if not 1.0 <= tau <= 2.0:
                continue
            screen = screen_tau(tau, nf, omega0, K_m, gamma_m, J)
            # within 1e-12 of a threshold the two roundings of <k, omega> may disagree
            if screen.passed or screen.worst.margin > -1e-12:
                continue
            rejected += 1
            with pytest.raises(ResonanceError):
                solve_homological(empty_form(2, 3, J), nf, tau * omega0, K_m, gamma_m)
        assert rejected >= 60

    def test_gate_reads_every_divisor_of_the_whole_window(self):
        # the solve builds its divisors on the k_last >= 0 half; its gate and
        # divisor_min must be those of every divisor on the whole window
        rng = np.random.default_rng(7)
        omega0 = np.asarray(OMEGA0)
        outcomes = []
        for _ in range(40):
            J, K, K_m = int(rng.integers(2, 6)), 3, int(rng.integers(1, 4))
            gamma_m = float(rng.uniform(0.001, 0.2))
            nf = update_normal_form(NormalForm(J=J), rng.standard_normal(J), 1e-2)
            omega = rng.uniform(1.0, 2.0) * omega0
            lam = nf.lambdas()
            kw = fourier.kdot(omega, 2, K)[..., None, None]
            ring = fourier.kinf(2, K)[..., None, None]
            gap = np.abs(np.subtract.outer(np.arange(J), np.arange(J)))
            thresholds = resonance.divisor_threshold(gap, ring, gamma_m, 2)
            sums, diffs = np.add.outer(lam, lam), np.subtract.outer(lam, lam)
            divisors = [np.abs(kw + sums), np.abs(kw - diffs), np.abs(kw - sums)]
            in_support = np.broadcast_to(ring <= K_m, divisors[0].shape)
            off_average = in_support.copy()
            off_average[K, K][np.arange(J), np.arange(J)] = False  # the averaged diagonal
            masks = [in_support, off_average, in_support]
            worst = min(float(np.min((d - thresholds)[m])) for d, m in zip(divisors, masks))
            outcomes.append(worst < 0)
            if worst < 0:
                with pytest.raises(ResonanceError):
                    solve_homological(empty_form(2, K, J), nf, omega, K_m, gamma_m)
            else:
                sol = solve_homological(empty_form(2, K, J), nf, omega, K_m, gamma_m)
                assert sol.divisor_min == min(float(np.min(d[m]))
                                              for d, m in zip(divisors, masks))
        assert 5 <= sum(outcomes) <= 35

    def test_structure_of_solution(self):
        # real-type symmetric input: F's (q, p) form symmetric, F real
        rng = np.random.default_rng(9)
        n, K, J = 2, 2, 5
        arr = rng.standard_normal((5, 5, J, J)) + 1j * rng.standard_normal((5, 5, J, J))
        M = reality_enforce(arr, n, K)
        M = 0.5 * (M + np.swapaxes(M, -1, -2))
        qf = form_from_blocks(n, K, J, 0.5 * M, M, 0.5 * M)
        sol = solve_homological(qf, NormalForm(J=J), self.freq(1.41).omega, K_m=2,
                                gamma_m=1e-5)
        S = sol.F.coeffs
        assert np.max(np.abs(S - np.swapaxes(S, -1, -2))) == 0.0  # zz and zbzb symmetric
        # real: the k_last = 0 plane, which holds k and -k, is conjugate-paired
        assert np.max(np.abs(S[:, 0] - np.conj(S[::-1, 0]))) < 1e-14
        zz, zzbar, zbzb = blocks_from_qp(sol.F.coeffs)
        assert np.max(np.abs(zzbar - np.swapaxes(zzbar, -1, -2))) > 1e-3  # zzbar is not


def rk4_flow_oracle(B: np.ndarray, eps: float, steps: int = 2000) -> np.ndarray:
    """Fixed-step RK4 for U' = eps B U on [0, 1] (independent route)."""
    U = np.eye(B.shape[0], dtype=complex)
    h = 1.0 / steps
    A = eps * B
    for _ in range(steps):
        k1 = A @ U
        k2 = A @ (U + 0.5 * h * k1)
        k3 = A @ (U + 0.5 * h * k2)
        k4 = A @ (U + h * k3)
        U = U + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return U


def small_form(rng, n=2, K=2, J=4):
    """A small real Hamiltonian with theta-dependent blocks."""
    shape = (2 * K + 1,) * n + (J, J)
    arr = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    M = reality_enforce(0.002 * arr, n, K)
    M = 0.5 * (M + np.swapaxes(M, -1, -2))
    return form_from_blocks(n, K, J, 0.5 * M, M, 0.5 * M)


def small_solution(rng, n=2, K=2, J=4, tau=1.31, gamma=1e-5):
    qf = small_form(rng, n, K, J)
    omega = tau * np.asarray(OMEGA0)
    sol = solve_homological(qf, NormalForm(J=J), omega, K_m=K, gamma_m=gamma)
    return qf, sol, omega


class TestQpLayer:
    def test_T_round_trip(self):
        rng = np.random.default_rng(21)
        J = 3
        T = qp_unitary(J)
        assert np.max(np.abs(T.conj().T @ T - np.eye(2 * J))) < 1e-15
        # blockwise formulas against the matrix products, both ways
        zz = rng.standard_normal((5, J, J)) + 1j * rng.standard_normal((5, J, J))
        zz = zz + zz.transpose(0, 2, 1)
        zbzb = rng.standard_normal((5, J, J)) + 1j * rng.standard_normal((5, J, J))
        zbzb = zbzb + zbzb.transpose(0, 2, 1)
        zzbar = rng.standard_normal((5, J, J)) + 1j * rng.standard_normal((5, J, J))
        Q = uform_from_blocks(zz, zzbar, zbzb)
        S = qp_from_blocks(zz, zzbar, zbzb)
        assert np.max(np.abs(S - to_qp(Q))) < 1e-14
        assert np.max(np.abs(to_uform(S) - Q)) < 1e-14
        for got, want in zip(blocks_from_qp(S), (zz, zzbar, zbzb)):
            assert np.max(np.abs(got - want)) < 1e-14

    def test_jr_is_jsym_in_qp(self):
        J = 4
        T = qp_unitary(J)
        JR = jr_matrix(J)
        assert JR.dtype == np.float64
        assert np.max(np.abs(T.conj().T @ jsym_matrix(J) @ T.conj() - JR)) < 1e-15
        S = np.random.default_rng(22).standard_normal((3, 2 * J, 2 * J))
        assert np.array_equal(jr_mul(S), JR @ S)

    def test_bracket_is_the_uform_bracket(self):
        rng = np.random.default_rng(23)
        J = 4
        SA, SB = rng.standard_normal((2, 6, 2 * J, 2 * J))
        SA, SB = SA + SA.transpose(0, 2, 1), SB + SB.transpose(0, 2, 1)
        got = bracket_sym(SA, jr_mul(SB))
        assert got.dtype == np.float64
        want = to_qp(uform_bracket(to_uform(SA), to_uform(SB)))
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_grid_arrays_between_the_transforms_are_real(self, monkeypatch):
        pf, dec, freq, sched, ws = small_pipeline(M=2)
        seen = []
        lie_series = kam._lie_series

        def recording(T0, JS_S, *a):
            acc, sizes = lie_series(T0, JS_S, *a)
            seen.extend([T0.dtype, JS_S.dtype, acc.dtype])
            return acc, sizes

        monkeypatch.setattr(kam, "_lie_series", recording)
        flows = []
        flow_transform = kam.flow_transform
        monkeypatch.setattr(kam, "flow_transform",
                            lambda *a, **k: flows.append(flow_transform(*a, **k)) or flows[-1])
        recomposed = []
        recompose_generator = kam.recompose_generator
        monkeypatch.setattr(kam, "recompose_generator", lambda *a: recomposed.append(
            recompose_generator(*a)) or recomposed[-1])
        engine = KamEngine(seed_pieces(dec, sched.eps0, sched), freq, sched, ws,
                           K_theta=pf.K_theta, options=KamOptions(norm_grid=8))
        engine.step()
        assert seen and all(d == np.float64 for d in seen)
        assert flows[0].Phi.dtype == np.float64
        assert flows[0].B.dtype == np.float64
        assert np.iscomplexobj(flows[0].P_hat)  # window coefficients stay complex
        assert flows[0].grid % 2 == 0  # the oracle is real at an even G too
        assert recomposed[0].dtype == np.float64


class TestUformGrid:
    """A form's values on the grid, as real (q, p) forms."""

    def test_matches_pointwise_evaluation(self):
        rng = np.random.default_rng(11)
        _, sol, _ = small_solution(rng, n=2, K=2, J=4)
        F, G = sol.F, 7
        pts = theta_grid_points(F.n, G)
        blocks = [eval_modes(*active_modes(b, F.n, F.K), pts) for b in uform_blocks(F)]
        expect = to_qp(uform_from_blocks(*blocks))
        got = F.grid_values(G)
        assert got.shape == (G**2, 8, 8)
        assert got.dtype == np.float64
        assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect))

    def test_hamiltonian_grid_matches_per_piece_sum(self):
        rng = np.random.default_rng(12)
        n, K, J, G = 2, 2, 4, 7
        pieces = [small_solution(rng, n=n, K=K, J=J)[0] for _ in range(3)]
        weights = [1e-3, 1e-4, 1e-5]
        lam = np.arange(1, J + 1) + 1e-3 * rng.standard_normal(J)
        # reference: each piece moved to the grid on its own, then summed, and
        # the normal form lam_j z_j zbar_j moved from its u-form
        normal = np.zeros((2 * J, 2 * J), dtype=complex)
        normal[:J, J:] = normal[J:, :J] = 0.5 * np.diag(lam)
        expect = to_qp(normal) + sum(w * p.grid_values(G) for w, p in zip(weights, pieces))
        got = qp_rows(RealGrid(hamiltonian_window(lam, pieces, weights), n, K, G), slice(None))
        assert got.shape == (G**n, 2 * J, 2 * J)
        assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect))

class TestFlowTransform:
    def test_zero_generator_gives_identity(self):
        qf = QuadraticForm.zeros(2, 2, 3)
        sol = solve_homological(qf, NormalForm(J=3), 1.3 * np.asarray(OMEGA0), 2, 0.05)
        ws = WeightedSpace(3, 3)
        flow = flow_transform(sol.F, 1e-3, ws, grid=8)
        eye = np.eye(6)
        assert np.max(np.abs(flow.Phi - eye)) == 0.0
        assert flow.P_norm == 0.0

    def test_smallness_and_symplecticity(self):
        rng = np.random.default_rng(3)
        _, sol, _ = small_solution(rng)
        ws = WeightedSpace(3, 4)
        eps = 1e-3
        flow = flow_transform(sol.F, eps, ws, grid=10)
        assert flow.P_norm <= math.sqrt(eps)
        assert flow.symplectic_defect < 1e-10

    def test_against_rk4_oracle(self):
        rng = np.random.default_rng(4)
        _, sol, _ = small_solution(rng)
        ws = WeightedSpace(3, 4)
        eps = 1e-3
        G = 10
        flow = flow_transform(sol.F, eps, ws, grid=G, picard_tol=1e-14)
        # independent route: the u-form generator from pointwise block values
        pts = theta_grid_points(sol.F.n, G)
        blocks = [eval_modes(*active_modes(b, sol.F.n, sol.F.K), pts)
                  for b in uform_blocks(sol.F)]
        Bg = uform_generator(uform_from_blocks(*blocks)).reshape(G, G, 8, 8)
        for pick in ((0, 0), (3, 7), (5, 2)):
            oracle = rk4_flow_oracle(Bg[pick], eps)
            got = map_to_u(flow.Phi.reshape(G, G, 8, 8)[pick])
            assert np.max(np.abs(got - oracle)) < 1e-8

    def test_real_structure_of_map(self):
        rng = np.random.default_rng(5)
        _, sol, _ = small_solution(rng)
        flow = flow_transform(sol.F, 1e-3, WeightedSpace(3, 4), grid=10)
        assert flow.Phi.dtype == np.float64  # Phi is real
        # and so, in u coordinates, conj(Phi) is Phi with z and zbar swapped
        J = 4
        Phi = map_to_u(flow.Phi)
        swapped = np.empty_like(Phi)
        swapped[:, :J, :J] = Phi[:, J:, J:]
        swapped[:, :J, J:] = Phi[:, J:, :J]
        swapped[:, J:, :J] = Phi[:, :J, J:]
        swapped[:, J:, J:] = Phi[:, :J, :J]
        assert np.max(np.abs(np.conj(Phi) - swapped)) < 1e-12


def rotation_generator(c: float, J: int = 4) -> QuadraticForm:
    """F = c <z, zbar>: generator B = diag(i c I, -i c I), so |B| = |c| while
    its Frobenius norm is |c| sqrt(2J)."""
    zero = np.zeros((1, J, J))
    return form_from_blocks(1, 0, J, zero, c * np.eye(J)[None], zero)


class TestFlowStepSizeGuard:
    def test_generator_too_large_raises(self):
        ws = WeightedSpace(3, 4)
        with pytest.raises(StepSizeError,
                           match=r"flow generator too large: eps\*\|B\| = 6\.000e-01 >= 0\.5"):
            flow_transform(rotation_generator(2.0), 0.3, ws, grid=4)

    def test_frobenius_bound_above_exact_norm_below_proceeds(self):
        ws, eps, J = WeightedSpace(3, 4), 0.3, 4
        F = rotation_generator(1.0, J)
        B = generator_of(F.grid_values(4))
        # the bound alone would reject; the exact norm accepts
        assert eps * np.max(np.linalg.norm(B, axis=(-2, -1))) >= 0.5
        assert eps * ws.state_opnorm(B) == pytest.approx(0.3, abs=1e-15)
        flow = flow_transform(F, eps, ws, grid=4)
        rot = np.exp(1j * eps)
        expect = np.diag([rot] * J + [np.conj(rot)] * J)
        assert np.max(np.abs(map_to_u(flow.Phi) - expect)) < 1e-12
        assert flow.P_norm == pytest.approx(abs(rot - 1.0), rel=1e-12)


class TestPushRemainder:
    def test_zero_generator_shifts_pieces(self):
        rng = np.random.default_rng(6)
        n, K, J = 2, 2, 3
        zero = QuadraticForm.zeros(n, K, J)
        blank = np.zeros((2 * K + 1,) * n + (J, J))
        other = form_from_blocks(n, K, J, blank, hermitian_zzbar(rng, n, K, J), blank)
        sol = solve_homological(zero, NormalForm(J=J), 1.3 * np.asarray(OMEGA0), K, 0.05)
        ws = WeightedSpace(2, J)
        flow = flow_transform(sol.F, 1e-3, ws, grid=8)
        new_pieces, diag = push_remainder([zero, other], K, sol.diag_avg, flow, 1e-3, 1e-4, ws, grid=8)
        assert len(new_pieces) == 1
        assert np.max(np.abs(new_pieces[0].coeffs - other.coeffs)) < 1e-15

    def test_non_hermitian_piece_raises(self):
        # the piece this class's shift test used before the real grid layer:
        # real at real theta, but zzbar not Hermitian; it cannot become a form,
        # so it never reaches the push (the builder of forms refuses it)
        rng = np.random.default_rng(6)
        n, K, J = 2, 2, 3
        blank = np.zeros((2 * K + 1,) * n + (J, J))
        arr = rng.standard_normal(blank.shape) + 1j * rng.standard_normal(blank.shape)
        with pytest.raises(ValueError, match="not a real Hamiltonian"):
            form_from_blocks(n, K, J, blank, reality_enforce(arr, n, K), blank)

    def test_pure_tail_rescales(self):
        rng = np.random.default_rng(7)
        n, K, J = 2, 3, 3
        shape = (2 * K + 1,) * n + (J, J)
        arr = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        full = reality_enforce(arr, n, K)
        full = 0.5 * (full + np.swapaxes(full, -1, -2))
        herm = hermitian_zzbar(rng, n, K, J)
        _, qf = form_from_blocks(n, K, J, *real_projection(full, herm, n)).truncate(1)
        K_m = 1
        eps, eps_next = 1e-3, 1e-4
        sol = solve_homological(qf, NormalForm(J=J), 1.3 * np.asarray(OMEGA0), K_m, 0.05)
        assert not sol.F.coeffs.any()  # nothing inside the cutoff
        ws = WeightedSpace(2, J)
        flow = flow_transform(sol.F, eps, ws, grid=10)
        new_pieces, _ = push_remainder([qf], K_m, sol.diag_avg, flow, eps, eps_next, ws, grid=10)
        expect = qf.scaled(eps / eps_next)
        assert np.max(np.abs(new_pieces[0].coeffs - expect.coeffs)) < 1e-12


    def test_term_large_only_off_the_old_sample_keeps_the_series_running(self):
        # the stopping rule reads every grid point: a seed living only at point
        # 3 (off the former every-7th sample) is summed to convergence
        rng = np.random.default_rng(8)
        J, npts, eps = 2, 10, 0.1
        S_F = rng.standard_normal((2 * J, 2 * J))
        S_F = (S_F + S_F.T) / np.linalg.norm(S_F + S_F.T, 2)
        JS_S = np.broadcast_to(jr_mul(S_F), (npts, 2 * J, 2 * J)).copy()
        A = rng.standard_normal((2 * J, 2 * J))
        T0 = np.zeros((npts, 2 * J, 2 * J))
        T0[3] = A + A.T
        acc, sizes = kam._lie_series(T0, JS_S, eps, 0, np.ones(2 * J))
        assert len(sizes) > 5
        term, want = T0[3], T0[3].copy()
        for j in range(1, 40):
            term = eps * bracket_sym(term, JS_S[0])
            want = want + term / math.factorial(j)
        assert np.max(np.abs(acc[3] - want)) <= 1e-13 * np.max(np.abs(want))
        assert not np.delete(acc, 3, axis=0).any()


def whole_grid_push(pieces, K_m, diag_avg, flow, eps_m, eps_next, ws, grid):
    """The new pieces of push_remainder with every Lie series run on whole
    grid arrays under one stopping rule per stream: the form before the
    slabs, kept as the reference of the streamed push."""
    R_mm = pieces[0]
    n, K, J = R_mm.n, R_mm.K, R_mm.J
    w2 = ws.doubled_metric_weights
    JS_S = 0.5 * flow.B
    low, tail = R_mm.truncate(min(K_m, K))
    # diag(mu) in the u-form zzbar block at k = 0, added in the u-form
    star_blocks = [-b for b in uform_blocks(low)]
    star_blocks[1][(K,) * n][(np.arange(J), np.arange(J))] += diag_avg
    star = form_from_blocks(n, K, J, *star_blocks)

    def window(values):
        full = grid_to_window(values.reshape((grid,) * n + (2 * J, 2 * J)), n, K)
        return full[half_index(n, K)]

    acc_b, _ = kam._lie_series(bracket_sym(star.grid_values(grid), JS_S), JS_S, eps_m, 2, w2)
    acc_c, _ = kam._lie_series(bracket_sym(R_mm.grid_values(grid), JS_S), JS_S, eps_m, 1, w2)
    first = tail.scaled(eps_m / eps_next)
    first.coeffs[...] += (eps_m**2 / eps_next) * window(acc_b + acc_c)
    new_pieces = [first]
    for idx, piece in enumerate(pieces[1:]):
        acc_p, _ = kam._lie_series(piece.grid_values(grid), JS_S, eps_m, 0, w2)
        moved = QuadraticForm(n, K, J, window(acc_p))
        if idx == 0:
            new_pieces[0] = new_pieces[0] + moved
        else:
            new_pieces.append(moved)
    return [QuadraticForm(n, K, J, 0.5 * (p.coeffs + np.swapaxes(p.coeffs, -1, -2)))
            for p in new_pieces]


class TestStreamedPush:
    @staticmethod
    def compared_step(monkeypatch, slab_points, loaded=False):
        """Step 0 of a small pipeline, its push compared with whole_grid_push;
        returns the slab count of the comparison and the pieces it pushed.
        loaded replaces the first higher piece (at 3.4e-18 of the active one)
        by a random real form of the active piece's largest coefficient."""
        pf, dec, freq, sched, ws = small_pipeline(M=3)
        monkeypatch.setattr(kam, "SLAB_POINTS", slab_points)
        pieces = seed_pieces(dec, sched.eps0, sched)
        if loaded:
            extra = real_form(np.random.default_rng(17), pf.n, pf.K_theta, ws.J_max)
            pieces[1] = extra.scaled(np.max(np.abs(pieces[0].coeffs))
                                     / np.max(np.abs(extra.coeffs)))
        push = kam.push_remainder
        checked = []

        def compare(pieces, K_m, diag_avg, flow, eps_m, eps_next, ws, grid):
            want = whole_grid_push(pieces, K_m, diag_avg, flow, eps_m, eps_next, ws, grid)
            got, diag = push(pieces, K_m, diag_avg, flow, eps_m, eps_next, ws, grid)
            assert len(got) == len(want) == len(pieces) - 1
            for g, w in zip(got, want):
                assert np.max(np.abs(g.coeffs - w.coeffs)) <= 1e-12 * np.max(np.abs(w.coeffs))
            n_slabs = len(kam._slabs(grid, pieces[0].n))
            # the two bracket streams; the carried higher pieces run no series
            assert len(diag.series_terms) == 2 * n_slabs
            checked.append((n_slabs, list(pieces)))
            return got, diag

        monkeypatch.setattr(kam, "push_remainder", compare)
        engine = KamEngine(pieces, freq, sched, ws,
                           K_theta=pf.K_theta, options=KamOptions(norm_grid=8))
        engine.step()
        assert len(checked) == 1
        return checked[0]

    # the default slab, uneven slabs (5, 5, 2 rows of a 12-point axis) and one
    # slab holding the whole grid
    @pytest.mark.parametrize("slab_points", [kam.SLAB_POINTS, 60, 10_000])
    def test_matches_the_whole_grid_series(self, monkeypatch, slab_points):
        n_slabs, _ = self.compared_step(monkeypatch, slab_points)
        assert n_slabs == {kam.SLAB_POINTS: 3, 60: 3, 10_000: 1}[slab_points]

    @pytest.mark.parametrize("slab_points", [kam.SLAB_POINTS, 10_000])
    def test_carries_a_higher_piece_of_the_active_size(self, monkeypatch, slab_points):
        # the seeded higher pieces sit at roundoff or at 0, where any carrying
        # map agrees with the series; a loaded one makes the transport count
        _, pieces = self.compared_step(monkeypatch, slab_points, loaded=True)
        active, higher = (np.max(np.abs(p.coeffs)) for p in pieces[:2])
        assert higher == pytest.approx(active, rel=1e-12)

    def test_zero_and_roundoff_slabs_do_not_stop_the_stream(self):
        # the generator vanishes on the first slab (zero seed there) and sits
        # at 1e-16 of its size on the second (seed at roundoff)
        rng = np.random.default_rng(31)
        n, K, J, G = 2, 3, 3, 12
        _, sol, _ = small_solution(rng, n=n, K=K, J=J)
        B = generator_of(sol.F.grid_values(G))
        B[:48] = 0.0
        B[48:96] *= 1e-16
        form = small_solution(rng, n=n, K=K, J=J)[0]
        w2 = WeightedSpace(2, J).doubled_metric_weights
        eps = 0.05
        terms = {}
        got = kam._streamed_series({"s": (RealGrid(form.coeffs, n, K, G), 1)},
                                   B, eps, n, K, G, w2, terms)
        assert terms["s[0]"] == [0.0, 0.0]
        assert 0.0 < terms["s[1]"][0] < 1e-12 * terms["s[2]"][0]
        JS_S = 0.5 * B
        acc, _ = kam._lie_series(bracket_sym(form.grid_values(G), JS_S), JS_S, eps, 1, w2)
        want = grid_to_window(acc.reshape((G,) * n + (2 * J, 2 * J)), n, K)[half_index(n, K)]
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestStreamSources:
    # n = 1: slabs of 5, 5 and 2 rows (G = 12); n = 2: 5, 5 and 2 rows of 12
    # points; n = 3: 3, 3 and 2 rows of 64 points (G = 8)
    @pytest.mark.parametrize("n,K,slab_points", [(1, 3, 5), (2, 3, 60), (3, 2, 192)])
    def test_streams_match_the_whole_grid_series(self, monkeypatch, n, K, slab_points):
        rng = np.random.default_rng(40 + n)
        J, eps = 3, 0.05
        G = kam.product_grid_size(K)
        monkeypatch.setattr(kam, "SLAB_POINTS", slab_points)
        assert len(kam._slabs(G, n)) == 3
        ws = WeightedSpace(2, J)
        # a generic generator: small_form's all Poisson-commute (each is a
        # form in q alone), so their maps would carry small_form's unchanged
        F = real_form(rng, n, K, J, scale=0.002)
        flow = flow_transform(F, eps, ws, grid=G, picard_tol=1e-14)
        bracketed, moved = small_form(rng, n, K, J), small_form(rng, n, K, J)
        w2 = ws.doubled_metric_weights
        JS_S = 0.5 * flow.B

        def window(values):
            return grid_to_window(values.reshape((G,) * n + (2 * J, 2 * J)), n, K)[half_index(n, K)]

        terms = {}
        got = kam._streamed_series({"b": (RealGrid(bracketed.coeffs, n, K, G), 1)},
                                   flow.B, eps, n, K, G, w2, terms)
        assert sorted(terms) == ["b[0]", "b[1]", "b[2]"]
        acc_b, _ = kam._lie_series(bracket_sym(bracketed.grid_values(G), JS_S), JS_S, eps, 1, w2)
        want = window(acc_b)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

        # the carried piece Phi^T S Phi is the offset-0 series of the same map
        got = kam._carried(moved, flow.Phi, G)
        acc_t, _ = kam._lie_series(moved.grid_values(G), JS_S, eps, 0, w2)
        want = window(acc_t)
        assert np.max(np.abs(want - moved.coeffs)) > 1e-6 * np.max(np.abs(want))
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_one_window_transform_per_stream(self, monkeypatch):
        # each bracket stream's seeds, and each carried piece's values, come
        # from one transform of its window along the axes before the last,
        # not one per slab (the norm of a nonzero form makes its own, one per
        # norm; that of a zero form none)
        rng = np.random.default_rng(44)
        n, K, J, grid = 2, 3, 3, 12
        qf, sol, _ = small_solution(rng, n=n, K=K, J=J)
        other = small_form(rng, n, K, J)
        ws = WeightedSpace(2, J)
        flow = flow_transform(sol.F, 1e-3, ws, grid=grid)
        calls = []
        transform = fourier.window_to_grid

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return transform(*args, **kwargs)

        in_norms = []
        form_norm = kam.form_norm

        def norm_counted(*args):
            before = len(calls)
            out = form_norm(*args)
            in_norms.append(len(calls) - before)
            return out

        monkeypatch.setattr(fourier, "window_to_grid", counted)
        monkeypatch.setattr(kam, "form_norm", norm_counted)
        _, diag = push_remainder([qf, other], K, sol.diag_avg, flow, 1e-3, 1e-4, ws, grid=grid)
        streams = {name.split("[")[0] for name in diag.series_terms}
        assert streams == {"double_bracket", "single_bracket"}
        assert len(kam._slabs(grid, n)) == 3
        assert in_norms == [1, 0]  # the new piece's; the tail is zero
        assert len(calls) - sum(in_norms) == len(streams) + 1  # and the carried piece

    def test_zero_piece_gets_no_stream(self, monkeypatch):
        rng = np.random.default_rng(45)
        n, K, J, grid = 2, 3, 3, 12
        qf, sol, _ = small_solution(rng, n=n, K=K, J=J)
        pieces = [qf, small_form(rng, n, K, J), QuadraticForm.zeros(n, K, J),
                  small_form(rng, n, K, J)]
        ws = WeightedSpace(2, J)
        flow = flow_transform(sol.F, 1e-3, ws, grid=grid)
        built = []

        def recording(coeffs, *args):
            built.append(bool(coeffs.any()))
            return RealGrid(coeffs, *args)

        monkeypatch.setattr(kam, "RealGrid", recording)
        got, diag = push_remainder(pieces, K, sol.diag_avg, flow, 1e-3, 1e-4, ws, grid=grid)
        # the two bracket sources and the two nonzero pieces; none for the zero one
        assert built == [True] * 4
        streams = {name.split("[")[0] for name in diag.series_terms}
        assert streams == {"double_bracket", "single_bracket"}
        assert not got[1].coeffs.any() and diag.new_piece_norms[1] == 0.0
        want = whole_grid_push(pieces, K, sol.diag_avg, flow, 1e-3, 1e-4, ws, grid)
        for g, w in zip(got, want):
            assert np.max(np.abs(g.coeffs - w.coeffs)) <= 1e-12 * max(np.max(np.abs(w.coeffs)),
                                                                      1e-300)


def small_pipeline(J=8, K=3, M=2, eps=1e-3, N=5, tau=1.29, gamma=0.05, scale=0.1):
    freq = FrequencySpec(OMEGA0, tau, gamma)
    p, _ = make_potential("finite_smooth", freq, eps=eps, N=N, scale=scale,
                          theta_band=K - 1)
    pf = fourier_analyze(p, K_theta=K, J_max=J)
    ws = WeightedSpace(N, J)
    qf = assemble_initial_forms(pf, coupling_tensor(J), ws)
    sched = build_schedule(eps, N, gamma, freq.n, M)
    dec = decompose(qf, list(sched.strip), JacksonKernel(), ws=ws)
    return pf, dec, freq, sched, ws


def reduce(pf, dec, freq, sched, ws, options=None):
    """The whole reduction, stepped as the pipeline steps it."""
    engine = KamEngine(seed_pieces(dec, sched.eps0, sched), freq, sched, ws,
                       K_theta=pf.K_theta, options=options)
    while not engine.finished:
        engine.step()
    return engine.result()


class TestEngine:
    def test_small_run_invariants(self):
        pf, dec, freq, sched, ws = small_pipeline()
        res = reduce(pf, dec, freq, sched, ws, KamOptions(norm_grid=8))
        assert len(res.history) == sched.M
        for rec in res.history:
            assert rec["homological_residual"] < 1e-10
            assert rec["symplectic_defect"] < 1e-8
            assert rec["P_norm"] <= rec["P_bound"]
            assert rec["consistency_defect"] < 1e-8
            assert rec["series_truncation_spec_ok"]
        # multiplier: lambda stays near the integers
        lam = res.normal_form.lambdas()
        assert np.max(np.abs(lam - res.normal_form.base)) < 10 * sched.eps0
        assert np.max(np.abs(multiplier_decay(res.normal_form.lambdas()).xi)) < 4 * sched.eps0
        assert res.composed_norm <= math.sqrt(sched.eps0)
        # the leftover off-diagonal part is small on the last step's scale
        assert res.final_weighted_size <= 2.0 * sched.eps_at(sched.M)

    def test_eps_next_is_next_steps_eps_m(self):
        pf, dec, freq, sched, ws = small_pipeline(M=3)
        hist = reduce(pf, dec, freq, sched, ws, KamOptions(norm_grid=8)).history
        for rec, nxt in zip(hist, hist[1:]):
            assert rec["eps_next"] == nxt["eps_m"]

    def test_contraction_of_weighted_size(self):
        pf, dec, freq, sched, ws = small_pipeline(M=3)
        res = reduce(pf, dec, freq, sched, ws, KamOptions(norm_grid=8))
        sizes = [rec["weighted_size"] for rec in res.history]
        # super-linear decay of eps_m * |R_mm|
        for a, b in zip(sizes, sizes[1:]):
            assert b < a**1.1

    def test_degenerate_schedule_is_identity(self):
        pf, dec, freq, _, ws = small_pipeline(M=2)
        sched0 = Schedule.degenerate_schedule(freq.n, 5, 0.05)
        res = reduce(pf, dec, freq, sched0, ws)
        assert np.array_equal(res.normal_form.lambdas(), res.normal_form.base)
        assert np.max(np.abs(multiplier_decay(res.normal_form.lambdas()).xi)) == 0.0
        assert not res.chain.steps

    def test_resonant_tau_aborts_with_context(self):
        tau, q = find_resonant_tau(OMEGA0, J_max=8, K_search=2)
        pf, dec, freq, sched, ws = small_pipeline(tau=tau)
        with pytest.raises(ResonanceError):
            reduce(pf, dec, freq, sched, ws, KamOptions(norm_grid=8))

    def test_mu_corrections_are_real_and_decay(self):
        pf, dec, freq, sched, ws = small_pipeline()
        res = reduce(pf, dec, freq, sched, ws, KamOptions(norm_grid=8))
        for c in res.normal_form.mu_decay_constants():
            assert np.isfinite(c)
        for rec in res.history:
            assert np.isfinite(rec["mu_max_times_j"])


class TestCarriedNorms:
    """Step m + 1's active norm and result()'s norms are read from the form_norm
    memo of the last push's new pieces when the push's grid and the norm grid
    sample the same points (K = 4: 2K + 1 = 9 points for the push and for
    norm_grid 9, not for 12): their grid is not evaluated again."""

    def run(self, monkeypatch, norm_grid):
        pf, dec, freq, sched, ws = small_pipeline(K=4, M=3)
        engine = KamEngine(seed_pieces(dec, sched.eps0, sched), freq, sched, ws,
                           K_theta=pf.K_theta, options=KamOptions(norm_grid=norm_grid))
        evaluated = []
        grid_values = QuadraticForm.grid_values

        def counted(qf, G):
            evaluated.append(qf)
            return grid_values(qf, G)

        def evaluations(pieces):
            return sum(any(qf is p for p in pieces) for qf in evaluated)

        monkeypatch.setattr(QuadraticForm, "grid_values", counted)
        per_step = []
        while not engine.finished:
            held = engine.state.remainder
            engine.step()
            per_step.append(evaluations(held))
            evaluated.clear()
        result = engine.result()
        return engine, result, per_step, evaluations(engine.state.remainder)

    def test_norms_carried_when_the_grids_agree(self, monkeypatch):
        engine, result, per_step, in_result = self.run(monkeypatch, norm_grid=9)
        assert per_step == [1, 0, 0] and in_result == 0
        hist = engine.state.diagnostics
        for rec, nxt in zip(hist, hist[1:]):
            assert nxt["active_norm"] == rec["new_piece_norms"][0]
        # bit for bit the norms on the norm grid
        sched, ws = engine.schedule, engine.ws
        norms = [galerkin.form_norm(p, ws, 9) for p in engine.state.remainder]
        assert norms == hist[-1]["new_piece_norms"]
        assert result.final_weighted_size == sched.eps_at(sched.M) * norms[0]
        assert result.final_remainder_norm == sum(
            sched.eps_at(sched.M + i) * norm for i, norm in enumerate(norms))

    def test_norms_computed_when_the_grids_differ(self, monkeypatch):
        engine, _, per_step, in_result = self.run(monkeypatch, norm_grid=12)
        assert per_step == [1, 1, 1] and in_result == len(engine.state.remainder)


class TestConsistencyOracle:
    def test_single_step_against_recomposition(self):
        pf, dec, freq, sched, ws = small_pipeline(M=2)
        from qpwave.kam import seed_pieces

        pieces = seed_pieces(dec, sched.eps0, sched)
        engine = KamEngine(pieces, freq, sched, ws, K_theta=pf.K_theta,
                           options=KamOptions(norm_grid=8))
        rec = engine.step()
        assert rec["consistency_defect"] < 1e-9

    def test_defect_above_residual_tol_stops_the_step(self):
        pf, dec, freq, sched, ws = small_pipeline(M=2)
        pieces = seed_pieces(dec, sched.eps0, sched)
        engine = KamEngine(pieces, freq, sched, ws, K_theta=pf.K_theta,
                           options=KamOptions(norm_grid=8, residual_tol=1e-30))
        with pytest.raises(CertificateError, match=r"^consistency_defect "):
            engine.step()
        # nothing of the failed step was committed
        assert engine.state.m == 0
        assert engine.state.remainder is pieces
        assert not engine.state.diagnostics
        assert not engine.chain.steps


class TestTransformChain:
    @pytest.mark.parametrize("n,K", [(1, 3), (2, 2), (2, 3)])
    def test_matrices_match_the_uform_evaluation(self, n, K):
        # the chain as before: each step's whole-window u-form map
        # T (Phi - I) T^H, evaluated at the points and composed in u, then
        # read back in (q, p) as T^H (...) T
        rng = np.random.default_rng(50 + 10 * n + K)
        J, steps = 3, 3
        shape = (2 * K + 1,) * n + (2 * J, 2 * J)
        T = qp_unitary(J)
        chain = TransformChain()
        thetas = rng.uniform(0, 2 * np.pi, (7, n))
        want = np.broadcast_to(np.eye(2 * J, dtype=complex), (7, 2 * J, 2 * J)).copy()
        for _ in range(steps):
            c = 0.05 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
            whole = c + np.conj(np.flip(c, axis=tuple(range(n))))  # a real map field
            chain.steps.append(whole[half_index(n, K)])
            u_map = eval_modes(*active_modes(T @ whole @ T.conj().T, n, K), thetas)
            want = want @ (np.eye(2 * J) + u_map)
        want = T.conj().T @ want @ T
        got = chain.matrices_at(thetas)
        assert got.dtype == np.float64
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


class TestCertificateGates:
    def test_transform_over_its_bound_stops_the_step(self):
        # scale 0.3: step 0's |Phi - id| is about twice sqrt(eps_0)
        pf, dec, freq, sched, ws = small_pipeline(M=2, scale=0.3)
        pieces = seed_pieces(dec, sched.eps0, sched)
        engine = KamEngine(pieces, freq, sched, ws, K_theta=pf.K_theta,
                           options=KamOptions(norm_grid=8))
        with pytest.raises(CertificateError,
                           match=r"^P_norm \S+ > P_bound 3\.162e-02$"):
            engine.step()
        assert engine.state.m == 0
        assert engine.state.remainder is pieces
        assert not engine.state.normal_form.mu_history
        assert not engine.state.diagnostics
        assert not engine.chain.steps

    @pytest.mark.parametrize("gate", ["homological_residual", "symplectic_defect", "P_norm",
                                      "series_truncation_spec_ok"])
    def test_failed_certificate_stops_the_step(self, fail_certificate, gate):
        pf, dec, freq, sched, ws = small_pipeline(M=2)
        pieces = seed_pieces(dec, sched.eps0, sched)
        engine = KamEngine(pieces, freq, sched, ws, K_theta=pf.K_theta,
                           options=KamOptions(norm_grid=8))
        fail_certificate(gate)
        with pytest.raises(CertificateError, match=rf"^{gate} "):
            engine.step()
        assert engine.state.m == 0
        assert engine.state.remainder is pieces
        assert not engine.state.diagnostics
        assert not engine.chain.steps


NAN_AT = {"first": 0, "middle": 1, "last": -1}


class TestNanFolds:
    # a certificate folds its blocks or slabs with kam._max_of, which keeps a
    # NaN wherever it sits

    @pytest.mark.parametrize("where", NAN_AT)
    def test_fold_keeps_a_nan(self, where):
        values = [np.float64(0.5), np.float64(2.0), np.float64(1.0)]
        assert kam._max_of(values) == 2.0
        values[NAN_AT[where]] = np.nan
        assert math.isnan(kam._max_of(values))

    @pytest.mark.parametrize("where", NAN_AT)
    @pytest.mark.parametrize("operand", ["blocks", "R"])
    def test_homological_residual_sees_a_nan_block(self, where, operand):
        rng = np.random.default_rng(50)
        R = tuple(rng.standard_normal((5, 3, 3)) + 1j for _ in range(3))
        divisors = tuple(rng.uniform(1.0, 2.0, (5, 3, 3)) for _ in range(3))
        blocks = tuple(r / (1j * d) for r, d in zip(R, divisors))
        assert kam.homological_residual(blocks, R, divisors) < 1e-15
        hit = list(blocks if operand == "blocks" else R)
        hit[NAN_AT[where]] = hit[NAN_AT[where]].copy()
        hit[NAN_AT[where]][2, 1, 0] = np.nan
        args = (tuple(hit), R) if operand == "blocks" else (blocks, tuple(hit))
        assert math.isnan(kam.homological_residual(*args, divisors))

    @pytest.mark.parametrize("where", NAN_AT)
    def test_symplectic_defect_sees_a_nan_slab(self, monkeypatch, where):
        rng = np.random.default_rng(51)
        _, sol, _ = small_solution(rng)
        ws = WeightedSpace(3, 4)
        monkeypatch.setattr(kam, "SLAB_POINTS", 30)  # grid 10: slabs of 3, 3, 3, 1 rows
        slab = list(range(len(kam._slabs(10, 2))))[NAN_AT[where]]
        calls = []

        def jr_mul_nan(S):
            out = jr_mul(S)
            calls.append(S.shape)
            if len(calls) == slab + 2:  # the first call builds the generator
                out[0, 0, 0] = np.nan
            return out

        monkeypatch.setattr(kam, "jr_mul", jr_mul_nan)
        flow = flow_transform(sol.F, 1e-3, ws, grid=10)
        assert len(calls) == 1 + 4
        assert math.isnan(flow.symplectic_defect)
