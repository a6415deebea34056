import math

import numpy as np
import pytest

from qpwave import fourier, kam
from qpwave.fourier import (
    RealGrid,
    eval_at_points,
    grid_to_window,
    reality_enforce,
    theta_grid_points,
)
from qpwave.galerkin import QuadraticForm, WeightedSpace, assemble_initial_forms, coupling_tensor
from qpwave.kam import (
    CertificateError,
    HomologicalSolution,
    InvalidParameterError,
    KamEngine,
    KamOptions,
    NormalForm,
    RealStructureError,
    ResonanceError,
    Schedule,
    SelfAdjointnessError,
    StepSizeError,
    TransformChain,
    blocks_from_qp,
    bracket_sym,
    build_schedule,
    consistency_defect,
    flow_transform,
    generator_of,
    hamiltonian_window,
    homological_residual,
    jr_matrix,
    jr_mul,
    kam_run,
    push_remainder,
    qp_from_blocks,
    qp_grid,
    qp_rows,
    qp_unitary,
    seed_pieces,
    solve_homological,
    uform_opnorm,
    update_normal_form,
)
from qpwave.potential import FrequencySpec, fourier_analyze, make_potential
from qpwave.resonance import find_resonant_tau, screen_tau
from qpwave.smoothing import JacksonKernel, decompose

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
        ratios = s.log_eps[1:] / s.log_eps[:-1]
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


class TestHomologicalSolve:
    def freq(self, tau=1.3):
        return FrequencySpec(OMEGA0, tau, 0.05)

    def test_zero_remainder(self):
        qf = empty_form()
        nf = NormalForm(J=3)
        sol = solve_homological(qf, nf, self.freq().omega, K_m=3, gamma_m=0.05)
        assert sol.F.max_abs() == 0.0
        assert np.max(np.abs(sol.diag_avg)) == 0.0

    def test_single_entry_divisor(self):
        qf = empty_form(n=2, K=2, J=3)
        K = qf.K
        qf.zzbar[K + 1, K, 0, 1] = 1.0  # k = (1, 0), (i, j) = (1, 2)
        nf = NormalForm(J=3)
        omega = 1.3 * np.asarray(OMEGA0)
        sol = solve_homological(qf, nf, omega, K_m=2, gamma_m=0.05)
        # divisor -<k,w> + lam_1 - lam_2 = -1.3 - 1 = -2.3; F = sqrt(-1)/(-2.3)
        assert sol.F.zzbar[K + 1, K, 0, 1] == pytest.approx(1j / (-2.3), abs=1e-15)
        res = homological_residual(sol, qf, nf, omega)
        assert res < 1e-14

    def test_diagonal_average_removed(self):
        qf = empty_form(n=2, K=2, J=4)
        K = qf.K
        a = np.array([0.3, -0.1, 0.2, 0.05])
        qf.zzbar[K, K][np.arange(4), np.arange(4)] = a
        nf = NormalForm(J=4)
        sol = solve_homological(qf, nf, self.freq().omega, K_m=2, gamma_m=0.05)
        assert np.allclose(sol.diag_avg, a)
        assert np.max(np.abs(sol.F.zzbar[K, K][np.arange(4), np.arange(4)])) == 0.0

    def test_plugback_residual_random(self):
        rng = np.random.default_rng(7)
        n, K, J = 2, 2, 6
        qf = empty_form(n, K, J)
        shape = qf.zz.shape
        for name in qf.BLOCKS:
            arr = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            setattr(qf, name, reality_enforce(arr, n, K))
        qf.symmetrize()
        nf = NormalForm(J=J)
        omega = self.freq(1.37).omega
        sol = solve_homological(qf, nf, omega, K_m=2, gamma_m=1e-4)
        assert homological_residual(sol, qf, nf, omega) < 1e-13

    def test_support_respects_cutoff(self):
        rng = np.random.default_rng(8)
        n, K, J = 2, 3, 3
        qf = empty_form(n, K, J)
        arr = rng.standard_normal(qf.zz.shape) + 1j * rng.standard_normal(qf.zz.shape)
        qf.zzbar = reality_enforce(arr, n, K)
        sol = solve_homological(qf, NormalForm(J=J), self.freq().omega, K_m=1,
                                gamma_m=1e-4)
        _, high = sol.F.truncate(1)
        assert high.max_abs() == 0.0

    def test_resonance_error_names_offender(self):
        qf = empty_form(n=2, K=2, J=4)
        K = qf.K
        qf.zzbar[K + 1, K, 2, 0] = 1.0
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
            if screen.passed or screen.min_margin > -1e-12:
                continue
            rejected += 1
            with pytest.raises(ResonanceError):
                solve_homological(empty_form(2, 3, J), nf, tau * omega0, K_m, gamma_m)
        assert rejected >= 60

    def test_structure_of_solution(self):
        # real-type symmetric input: F_zz/F_zbzb symmetric, F conjugate-paired
        rng = np.random.default_rng(9)
        n, K, J = 2, 2, 5
        qf = empty_form(n, K, J)
        arr = rng.standard_normal(qf.zz.shape) + 1j * rng.standard_normal(qf.zz.shape)
        M = reality_enforce(arr, n, K)
        tr = (0, 1, 3, 2)
        M = 0.5 * (M + M.transpose(tr))
        qf.zz, qf.zzbar, qf.zbzb = 0.5 * M, M.copy(), 0.5 * M
        sol = solve_homological(qf, NormalForm(J=J), self.freq(1.41).omega, K_m=2,
                                gamma_m=1e-5)
        F = sol.F
        assert F.symmetry_defect() < 1e-14  # zz and zbzb stay symmetric
        assert F.structure_defect() < 1e-14  # conj pairing and Hermitian zzbar
        assert F.zzbar_symmetry_defect() > 1e-3  # the zzbar block is not symmetric


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
    qf = QuadraticForm.zeros(n, K, J)
    arr = rng.standard_normal(qf.zz.shape) + 1j * rng.standard_normal(qf.zz.shape)
    M = reality_enforce(0.002 * arr, n, K)
    tr = tuple(range(n)) + (n + 1, n)
    M = 0.5 * (M + M.transpose(tr))
    qf.zz, qf.zzbar, qf.zbzb = 0.5 * M, M.copy(), 0.5 * M
    return qf


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
        with pytest.raises(ValueError):
            T[0, 0] = 0.0  # cached and read-only
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
        blocks = [eval_at_points(b, F.n, F.K, pts) for b in F.blocks()]
        expect = to_qp(uform_from_blocks(*blocks))
        got = qp_grid(F, G)
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
        expect = to_qp(normal) + sum(w * qp_grid(p, G) for w, p in zip(weights, pieces))
        got = qp_rows(RealGrid(hamiltonian_window(lam, pieces, weights), n, K, G), slice(None))
        assert got.shape == (G**n, 2 * J, 2 * J)
        assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect))

class TestFlowTransform:
    def test_zero_generator_gives_identity(self):
        qf = QuadraticForm.zeros(2, 2, 3)
        sol = solve_homological(qf, NormalForm(J=3), 1.3 * np.asarray(OMEGA0), 2, 0.05)
        ws = WeightedSpace(3, 3)
        flow = flow_transform(sol, 1e-3, ws, grid=8)
        eye = np.eye(6)
        assert np.max(np.abs(flow.Phi - eye)) == 0.0
        assert flow.P_norm == 0.0

    def test_smallness_and_symplecticity(self):
        rng = np.random.default_rng(3)
        _, sol, _ = small_solution(rng)
        ws = WeightedSpace(3, 4)
        eps = 1e-3
        flow = flow_transform(sol, eps, ws, grid=10)
        assert flow.P_norm <= math.sqrt(eps)
        assert flow.symplectic_defect < 1e-10

    def test_against_rk4_oracle(self):
        rng = np.random.default_rng(4)
        _, sol, _ = small_solution(rng)
        ws = WeightedSpace(3, 4)
        eps = 1e-3
        G = 10
        flow = flow_transform(sol, eps, ws, grid=G, picard_tol=1e-14)
        # independent route: the u-form generator from pointwise block values
        pts = theta_grid_points(sol.F.n, G)
        blocks = [eval_at_points(b, sol.F.n, sol.F.K, pts) for b in sol.F.blocks()]
        Bg = uform_generator(uform_from_blocks(*blocks)).reshape(G, G, 8, 8)
        for pick in ((0, 0), (3, 7), (5, 2)):
            oracle = rk4_flow_oracle(Bg[pick], eps)
            got = map_to_u(flow.Phi.reshape(G, G, 8, 8)[pick])
            assert np.max(np.abs(got - oracle)) < 1e-8

    def test_real_structure_of_map(self):
        rng = np.random.default_rng(5)
        _, sol, _ = small_solution(rng)
        flow = flow_transform(sol, 1e-3, WeightedSpace(3, 4), grid=10)
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


def rotation_solution(c: float, J: int = 4) -> HomologicalSolution:
    """F = c <z, zbar>: generator B = diag(i c I, -i c I), so |B| = |c| while
    its Frobenius norm is |c| sqrt(2J)."""
    F = QuadraticForm.zeros(1, 0, J)
    F.zzbar[0] = c * np.eye(J)
    return HomologicalSolution(F=F, diag_avg=np.zeros(J), divisor_min=1.0,
                               norm_report={}, K_m=0)


class TestFlowStepSizeGuard:
    def test_generator_too_large_raises(self):
        ws = WeightedSpace(3, 4)
        with pytest.raises(StepSizeError,
                           match=r"flow generator too large: eps\*\|B\| = 6\.000e-01 >= 0\.5"):
            flow_transform(rotation_solution(2.0), 0.3, ws, grid=4)

    def test_frobenius_bound_above_exact_norm_below_proceeds(self):
        ws, eps, J = WeightedSpace(3, 4), 0.3, 4
        sol = rotation_solution(1.0, J)
        B = generator_of(qp_grid(sol.F, 4))
        # the bound alone would reject; the exact norm accepts
        assert eps * np.max(np.linalg.norm(B, axis=(-2, -1))) >= 0.5
        assert eps * uform_opnorm(B, ws) == pytest.approx(0.3, abs=1e-15)
        flow = flow_transform(sol, eps, ws, grid=4)
        rot = np.exp(1j * eps)
        expect = np.diag([rot] * J + [np.conj(rot)] * J)
        assert np.max(np.abs(map_to_u(flow.Phi) - expect)) < 1e-12
        assert flow.P_norm == pytest.approx(abs(rot - 1.0), rel=1e-12)


class TestPushRemainder:
    def test_zero_generator_shifts_pieces(self):
        rng = np.random.default_rng(6)
        n, K, J = 2, 2, 3
        zero = QuadraticForm.zeros(n, K, J)
        other = QuadraticForm.zeros(n, K, J)
        other.zzbar = hermitian_zzbar(rng, n, K, J)
        sol = solve_homological(zero, NormalForm(J=J), 1.3 * np.asarray(OMEGA0), K, 0.05)
        ws = WeightedSpace(2, J)
        flow = flow_transform(sol, 1e-3, ws, grid=8)
        new_pieces, diag = push_remainder([zero, other], sol, flow, 1e-3, 1e-4,
                                          [0.1], ws, grid=8)
        assert len(new_pieces) == 1
        assert np.max(np.abs(new_pieces[0].zzbar - other.zzbar)) < 1e-15

    def test_non_hermitian_piece_raises(self):
        # the piece this class's shift test used before the real grid layer:
        # real at real theta, but zzbar not Hermitian
        rng = np.random.default_rng(6)
        n, K, J = 2, 2, 3
        zero = QuadraticForm.zeros(n, K, J)
        other = QuadraticForm.zeros(n, K, J)
        arr = rng.standard_normal(other.zz.shape) + 1j * rng.standard_normal(other.zz.shape)
        other.zzbar = reality_enforce(arr, n, K)
        other.symmetrize()
        sol = solve_homological(zero, NormalForm(J=J), 1.3 * np.asarray(OMEGA0), K, 0.05)
        ws = WeightedSpace(2, J)
        flow = flow_transform(sol, 1e-3, ws, grid=8)
        with pytest.raises(RealStructureError, match="not a real Hamiltonian"):
            push_remainder([zero, other], sol, flow, 1e-3, 1e-4, [0.1], ws, grid=8)

    def test_pure_tail_rescales(self):
        rng = np.random.default_rng(7)
        n, K, J = 2, 3, 3
        qf = QuadraticForm.zeros(n, K, J)
        arr = rng.standard_normal(qf.zz.shape) + 1j * rng.standard_normal(qf.zz.shape)
        full = reality_enforce(arr, n, K)
        herm = hermitian_zzbar(rng, n, K, J)
        _, high = QuadraticForm(n, K, J, full, herm, full.copy()).truncate(1)
        qf.zz, qf.zzbar, qf.zbzb = high.zz, high.zzbar, high.zbzb
        qf.symmetrize()
        K_m = 1
        eps, eps_next = 1e-3, 1e-4
        sol = solve_homological(qf, NormalForm(J=J), 1.3 * np.asarray(OMEGA0), K_m, 0.05)
        assert sol.F.max_abs() == 0.0  # nothing inside the cutoff
        ws = WeightedSpace(2, J)
        flow = flow_transform(sol, eps, ws, grid=10)
        new_pieces, _ = push_remainder([qf], sol, flow, eps, eps_next, [0.1], ws, grid=10)
        expect = qf.scaled(eps / eps_next)
        expect.symmetrize()
        assert np.max(np.abs(new_pieces[0].zzbar - expect.zzbar)) < 1e-12


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


def whole_grid_push(pieces, sol, flow, eps_m, eps_next, ws, grid):
    """The new pieces of push_remainder with every Lie series run on whole
    grid arrays under one stopping rule per stream: the form before the
    slabs, kept as the reference of the streamed push."""
    R_mm = pieces[0]
    n, K, J = R_mm.n, R_mm.K, R_mm.J
    w2 = ws.doubled_metric_weights
    JS_S = 0.5 * flow.B
    low, tail = R_mm.truncate(min(sol.K_m, K))
    star = low.scaled(-1.0)
    star.zzbar[(K,) * n][(np.arange(J), np.arange(J))] += sol.diag_avg

    def window_blocks(values):
        return blocks_from_qp(grid_to_window(values.reshape((grid,) * n + (2 * J, 2 * J)), n, K))

    acc_b, _ = kam._lie_series(bracket_sym(qp_grid(star, grid), JS_S), JS_S, eps_m, 2, w2)
    acc_c, _ = kam._lie_series(bracket_sym(qp_grid(R_mm, grid), JS_S), JS_S, eps_m, 1, w2)
    bc = window_blocks(acc_b + acc_c)
    first = tail.scaled(eps_m / eps_next)
    first.zz = first.zz + (eps_m**2 / eps_next) * bc[0]
    first.zzbar = first.zzbar + (eps_m**2 / eps_next) * bc[1]
    first.zbzb = first.zbzb + (eps_m**2 / eps_next) * bc[2]
    new_pieces = [first]
    for idx, piece in enumerate(pieces[1:]):
        acc_p, _ = kam._lie_series(qp_grid(piece, grid), JS_S, eps_m, 0, w2)
        moved = QuadraticForm(n, K, J, *window_blocks(acc_p))
        if idx == 0:
            new_pieces[0] = new_pieces[0] + moved
        else:
            new_pieces.append(moved)
    for piece in new_pieces:
        piece.symmetrize()
    return new_pieces


class TestStreamedPush:
    # the default slab, uneven slabs (5, 5, 2 rows of a 12-point axis) and one
    # slab holding the whole grid
    @pytest.mark.parametrize("slab_points", [kam.SLAB_POINTS, 60, 10_000])
    def test_matches_the_whole_grid_series(self, monkeypatch, slab_points):
        pf, dec, freq, sched, ws = small_pipeline(M=3)
        monkeypatch.setattr(kam, "SLAB_POINTS", slab_points)
        push = kam.push_remainder
        checked = []

        def compare(pieces, sol, flow, eps_m, eps_next, strips_next, ws, grid):
            want = whole_grid_push(pieces, sol, flow, eps_m, eps_next, ws, grid)
            got, diag = push(pieces, sol, flow, eps_m, eps_next, strips_next, ws, grid)
            assert len(got) == len(want) == len(pieces) - 1
            for g, w in zip(got, want):
                for gb, wb in zip(g.blocks(), w.blocks()):
                    assert np.max(np.abs(gb - wb)) <= 1e-12 * np.max(np.abs(wb))
            n_slabs = len(kam._slabs(grid, pieces[0].n))
            assert len(diag.series_terms) == n_slabs * (len(pieces) + 1)
            checked.append(n_slabs)
            return got, diag

        monkeypatch.setattr(kam, "push_remainder", compare)
        engine = KamEngine(seed_pieces(dec, sched.eps0, sched), freq, sched, ws,
                           K_theta=pf.K_theta, options=KamOptions(norm_grid=8))
        engine.step()
        assert checked == [len(kam._slabs(engine.grid, 2))]
        assert checked[0] == {kam.SLAB_POINTS: 3, 60: 3, 10_000: 1}[slab_points]

    def test_zero_and_roundoff_slabs_do_not_stop_the_stream(self):
        # the generator vanishes on the first slab (zero seed there) and sits
        # at 1e-16 of its size on the second (seed at roundoff)
        rng = np.random.default_rng(31)
        n, K, J, G = 2, 3, 3, 12
        _, sol, _ = small_solution(rng, n=n, K=K, J=J)
        B = generator_of(qp_grid(sol.F, G))
        B[:48] = 0.0
        B[48:96] *= 1e-16
        form = small_solution(rng, n=n, K=K, J=J)[0]
        w2 = WeightedSpace(2, J).doubled_metric_weights
        eps = 0.05
        terms = {}
        got = kam._streamed_series({"s": (RealGrid(kam.qp_window(form), n, K, G), 1, True)},
                                   B, eps, n, K, G, w2, terms)
        assert terms["s[0]"] == [0.0, 0.0]
        assert 0.0 < terms["s[1]"][0] < 1e-12 * terms["s[2]"][0]
        JS_S = 0.5 * B
        acc, _ = kam._lie_series(bracket_sym(qp_grid(form, G), JS_S), JS_S, eps, 1, w2)
        want = grid_to_window(acc.reshape((G,) * n + (2 * J, 2 * J)), n, K)
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
        B = generator_of(qp_grid(small_form(rng, n, K, J), G))
        bracketed, moved = small_form(rng, n, K, J), small_form(rng, n, K, J)
        w2 = WeightedSpace(2, J).doubled_metric_weights
        terms = {}
        got = kam._streamed_series(
            {"b": (RealGrid(kam.qp_window(bracketed), n, K, G), 1, True),
             "t": (RealGrid(kam.qp_window(moved), n, K, G), 0, False)},
            B, eps, n, K, G, w2, terms)
        assert sorted(terms) == ["b[0]", "b[1]", "b[2]", "t[0]", "t[1]", "t[2]"]
        JS_S = 0.5 * B
        acc_b, _ = kam._lie_series(bracket_sym(qp_grid(bracketed, G), JS_S), JS_S, eps, 1, w2)
        acc_t, _ = kam._lie_series(qp_grid(moved, G), JS_S, eps, 0, w2)
        want = grid_to_window((acc_b + acc_t).reshape((G,) * n + (2 * J, 2 * J)), n, K)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_one_window_transform_per_stream(self, monkeypatch):
        # each stream's seeds come from one transform of its window along the
        # axes before the last, not one per slab
        rng = np.random.default_rng(44)
        n, K, J, grid = 2, 3, 3, 12
        qf, sol, _ = small_solution(rng, n=n, K=K, J=J)
        other = small_form(rng, n, K, J)
        ws = WeightedSpace(2, J)
        flow = flow_transform(sol, 1e-3, ws, grid=grid)
        calls = []
        transform = fourier.window_to_grid

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return transform(*args, **kwargs)

        monkeypatch.setattr(fourier, "window_to_grid", counted)
        monkeypatch.setattr(kam, "window_to_grid", counted)
        _, diag = push_remainder([qf, other], sol, flow, 1e-3, 1e-4, [0.1], ws, grid=grid)
        streams = {name.split("[")[0] for name in diag.series_terms}
        assert streams == {"double_bracket", "single_bracket", "transport_0"}
        assert len(kam._slabs(grid, n)) == 3
        assert len(calls) == len(streams)


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


class TestEngine:
    def test_small_run_invariants(self):
        pf, dec, freq, sched, ws = small_pipeline()
        res = kam_run(pf, dec, freq, sched, ws, KamOptions(norm_grid=8))
        assert res.converged
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
        assert np.max(np.abs(res.xi)) < 4 * sched.eps0
        assert res.composed_norm <= math.sqrt(sched.eps0)
        # the leftover off-diagonal part is small on the last step's scale
        assert res.final_weighted_size <= 2.0 * sched.eps_at(sched.M)

    def test_eps_next_is_next_steps_eps_m(self):
        pf, dec, freq, sched, ws = small_pipeline(M=3)
        hist = kam_run(pf, dec, freq, sched, ws, KamOptions(norm_grid=8)).history
        for rec, nxt in zip(hist, hist[1:]):
            assert rec["eps_next"] == nxt["eps_m"]

    def test_contraction_of_weighted_size(self):
        pf, dec, freq, sched, ws = small_pipeline(M=3)
        res = kam_run(pf, dec, freq, sched, ws, KamOptions(norm_grid=8))
        sizes = [rec["weighted_size"] for rec in res.history]
        # super-linear decay of eps_m * |R_mm|
        for a, b in zip(sizes, sizes[1:]):
            assert b < a**1.1

    def test_degenerate_schedule_is_identity(self):
        pf, dec, freq, _, ws = small_pipeline(M=2)
        sched0 = Schedule.degenerate_schedule(freq.n, 5, 0.05)
        res = kam_run(pf, dec, freq, sched0, ws)
        assert res.converged
        assert np.array_equal(res.normal_form.lambdas(), res.normal_form.base)
        assert np.max(np.abs(res.xi)) == 0.0
        assert not res.chain.steps

    def test_resonant_tau_aborts_with_context(self):
        tau, q = find_resonant_tau(OMEGA0, J_max=8, K_search=2)
        pf, dec, freq, sched, ws = small_pipeline(tau=tau)
        with pytest.raises(ResonanceError):
            kam_run(pf, dec, freq, sched, ws, KamOptions(norm_grid=8))

    def test_mu_corrections_are_real_and_decay(self):
        pf, dec, freq, sched, ws = small_pipeline()
        res = kam_run(pf, dec, freq, sched, ws, KamOptions(norm_grid=8))
        for c in res.normal_form.mu_decay_constants():
            assert np.isfinite(c)
        for rec in res.history:
            assert np.isfinite(rec["mu_max_times_j"])


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
        with pytest.raises(CertificateError, match=r"step m=0: consistency_defect"):
            engine.step()
        # nothing of the failed step was committed
        assert engine.state.m == 0
        assert engine.state.remainder is pieces
        assert not engine.state.diagnostics
        assert not engine.chain.steps


class TestCertificateGates:
    @pytest.mark.parametrize("gate", ["symplectic_defect", "series_truncation_spec_ok"])
    def test_failed_certificate_stops_the_step(self, fail_certificate, gate):
        pf, dec, freq, sched, ws = small_pipeline(M=2)
        pieces = seed_pieces(dec, sched.eps0, sched)
        engine = KamEngine(pieces, freq, sched, ws, K_theta=pf.K_theta,
                           options=KamOptions(norm_grid=8))
        fail_certificate(gate)
        with pytest.raises(CertificateError, match=rf"step m=0: {gate}"):
            engine.step()
        assert engine.state.m == 0
        assert engine.state.remainder is pieces
        assert not engine.state.diagnostics
        assert not engine.chain.steps
