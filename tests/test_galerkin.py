import dataclasses
import json

import numpy as np
import pytest

from forms import checkpoint_engine, form_from_blocks, real_blocks, real_form, whole_window
from qpwave import cli, fourier, galerkin
from qpwave.fourier import RealGrid, half_index, kinf, window_to_grid
from qpwave.galerkin import (
    QuadraticForm,
    WeightedSpace,
    assemble_initial_forms,
    block_norms,
    blocks_from_qp,
    coupling_tensor,
    form_norm,
    max_spectral_norm,
    qp_from_blocks,
)
from qpwave.potential import FrequencySpec, PotentialFourier, fourier_analyze, make_potential

HALF_PI = np.pi / 2.0


def quadrature_coupling(j, l, k, G=512):
    x = 2 * np.pi * np.arange(G) / G - np.pi
    return float(np.sum(np.cos(j * x) * np.sin(l * x) * np.sin(k * x)) * 2 * np.pi / G)


def random_form(rng, n=2, K=2, J=8, real_structure=True):
    """A random real form, or else any complex half-window coefficients."""
    if real_structure:
        return real_form(rng, n, K, J)
    shape = (2 * K + 1,) * (n - 1) + (K + 1, 2 * J, 2 * J)
    return QuadraticForm(n, K, J, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


class TestCouplingTensor:
    def test_named_cases(self):
        ct = coupling_tensor(8)
        assert ct[0, 0, 1] == HALF_PI          # (j, l, k) = (1, 1, 2): k = l + j
        assert ct[1, 0, 0] == -HALF_PI         # (2, 1, 1): k = -l + j
        assert ct[0, 2, 4] == 0.0              # (1, 3, 5): 5 not in {3 +- 1}

    def test_matches_quadrature(self):
        ct = coupling_tensor(8)
        for j in range(1, 9):
            for l in range(1, 9):
                for k in range(1, 9):
                    assert ct[j - 1, l - 1, k - 1] == pytest.approx(
                        quadrature_coupling(j, l, k), abs=1e-10
                    )

    def test_values_are_exactly_half_pi(self):
        ct = coupling_tensor(12)
        vals = set(ct[ct != 0])
        assert vals <= {HALF_PI, -HALF_PI}

    def test_symmetry_in_l_k(self):
        ct = coupling_tensor(10)
        assert np.array_equal(ct, np.swapaxes(ct, 1, 2))

    def test_dense_and_read_only(self):
        ct = coupling_tensor(5)
        assert ct.shape == (5, 5, 5) and ct.dtype == np.float64
        assert not ct.flags.writeable


class TestAssembly:
    def freq(self):
        return FrequencySpec((1.0, np.sqrt(2.0)), 1.3, 0.05)

    def test_zero_potential_gives_zero_forms(self):
        p, _ = make_potential("custom_coefficients", self.freq(), eps=1e-3, N=6,
                              coefficients={((1, 0), 1): 0.0})
        pf = fourier_analyze(p, K_theta=2, J_max=4)
        qf = assemble_initial_forms(pf, coupling_tensor(4), WeightedSpace(4, 4))
        assert not qf.coeffs.any()

    def test_single_mode_term_by_term(self):
        # hull cos(theta_1) cos(x): v_1(theta) = cos(theta_1)
        p, _ = make_potential("custom_coefficients", self.freq(), eps=1e-3, N=6,
                              coefficients={((1, 0), 1): 0.5})
        pf = fourier_analyze(p, K_theta=2, J_max=3)
        ws = WeightedSpace(4, 3)
        qf = assemble_initial_forms(pf, coupling_tensor(3), ws)
        K = qf.K
        # oracle: R_zzbar[i,l](k) = sum_j c_jli v_j_hat(k) / sqrt(i l)
        ct = coupling_tensor(3)
        got = blocks_from_qp(qf.coeffs)[1][K + 1, 0]  # theta-mode k = (1, 0)
        expect = np.zeros((3, 3), dtype=complex)
        for i in range(1, 4):
            for l in range(1, 4):
                expect[i - 1, l - 1] = ct[0, l - 1, i - 1] * 0.5 / np.sqrt(i * l)
        assert np.max(np.abs(got - expect)) < 1e-13
        # the (1,2) entry: c_{1,2,1} = pi/2, v-hat = 1/2
        assert got[0, 1] == pytest.approx(HALF_PI * 0.5 / np.sqrt(2.0), abs=1e-13)

    def test_block_factor_relation(self):
        p, _ = make_potential("finite_smooth", self.freq(), eps=1e-3, N=5)
        pf = fourier_analyze(p, K_theta=2, J_max=8)
        qf = assemble_initial_forms(pf, coupling_tensor(8), WeightedSpace(5, 8))
        zz, zzbar, zbzb = blocks_from_qp(qf.coeffs)
        assert np.max(np.abs(zz - 0.5 * zzbar)) < 1e-14
        assert np.max(np.abs(zbzb - 0.5 * zzbar)) < 1e-14

    def test_assembled_form_structure(self):
        p, _ = make_potential("finite_smooth", self.freq(), eps=1e-3, N=5)
        pf = fourier_analyze(p, K_theta=2, J_max=8)
        qf = assemble_initial_forms(pf, coupling_tensor(8), WeightedSpace(5, 8))
        S = qf.coeffs
        assert S.shape == (5, 3, 16, 16)  # the k_last >= 0 half of K = 2
        assert np.array_equal(S, np.swapaxes(S, -1, -2))  # (q, p) form symmetric
        # real: the k_last = 0 plane, which holds k and -k, is conjugate-paired
        assert np.max(np.abs(S[:, 0] - np.conj(S[::-1, 0]))) < 1e-14
        zzbar = blocks_from_qp(S)[1]
        assert np.max(np.abs(zzbar - np.swapaxes(zzbar, -1, -2))) < 1e-14
        # the potential couples positions only: S = diag(M, 0)
        assert np.max(np.abs(S[..., 8:, :])) < 1e-14
        assert np.max(np.abs(S[..., :, 8:])) < 1e-14

    def test_matches_the_uform_route(self):
        # the (q, p) form [[M, 0], [0, 0]] written from v_hat's half is, bit
        # for bit, the form of the whole-window u-form blocks (M/2, M, M/2)
        p, _ = make_potential("finite_smooth", self.freq(), eps=1e-3, N=5)
        pf = fourier_analyze(p, K_theta=3, J_max=6)
        ws = WeightedSpace(5, 6)
        qf = assemble_initial_forms(pf, coupling_tensor(6), ws)
        s = ws.sqrt_weights
        M = np.einsum("...j,jli->...il", pf.v_hat, coupling_tensor(6)) / np.outer(s, s)
        assert np.array_equal(qf.coeffs, form_from_blocks(2, 3, 6, 0.5 * M, M, 0.5 * M).coeffs)

    def test_reads_the_half_only(self):
        p, _ = make_potential("finite_smooth", self.freq(), eps=1e-3, N=5)
        pf = fourier_analyze(p, K_theta=2, J_max=4)
        v_hat = pf.v_hat.copy()
        v_hat[3, 1, 1] += 1e-3  # k = (1, -1): its conjugate mode (-1, 1) is on the half
        other = PotentialFourier(v_hat=v_hat, K_theta=2, J_max=4, n=2)
        ct, ws = coupling_tensor(4), WeightedSpace(5, 4)
        assert np.array_equal(assemble_initial_forms(other, ct, ws).coeffs,
                              assemble_initial_forms(pf, ct, ws).coeffs)


class TestWeightedNorm:
    def test_zero_form(self, monkeypatch):
        def no_transform(*args, **kwargs):
            raise AssertionError("a zero form's norm needs no grid")

        monkeypatch.setattr(fourier, "window_to_grid", no_transform)
        qf = QuadraticForm.zeros(2, 2, 6)
        assert form_norm(qf, WeightedSpace(3, 6), 8) == 0.0

    def test_single_entry_scalar_block(self):
        zzbar = np.zeros((5, 4, 4))
        zzbar[2, 0, 0] = 0.7  # k = 0, entry (1, 1): weight sqrt(1)*sqrt(1) = 1
        qf = form_from_blocks(1, 2, 4, np.zeros_like(zzbar), zzbar, np.zeros_like(zzbar))
        assert form_norm(qf, WeightedSpace(4, 4), 8) == pytest.approx(0.7, abs=1e-13)

    def test_matches_dense_svd_oracle(self):
        rng = np.random.default_rng(11)
        ws = WeightedSpace(3, 16)
        qf = random_form(rng, n=1, K=2, J=16)
        G = 16
        # per-theta oracle: largest singular value of the explicitly weighted matrix
        best = 0.0
        j = np.arange(1, 17, dtype=float)
        left = j**3 * np.sqrt(j)
        right = np.sqrt(j) / j**3
        for vals in blocks_from_qp(qf.grid_values(G)):
            for A in vals.reshape(-1, 16, 16):
                W = left[:, None] * A * right[None, :]
                sv = float(np.linalg.svd(W, compute_uv=False)[0])
                wn = ws.opnorm_weighted(A[None, :, :])
                assert wn == pytest.approx(sv, rel=1e-10)
                best = max(best, sv)
        assert form_norm(qf, ws, G) == pytest.approx(best, rel=1e-10)

    def test_a_nan_gives_nan(self, monkeypatch):
        qf = real_form(np.random.default_rng(105), 2, 2, 3)
        coeffs = qf.coeffs.copy()
        qf.coeffs[(0,) * qf.coeffs.ndim] = np.nan
        assert np.isnan(form_norm(qf, WeightedSpace(3, 3), 8))
        # a NaN in the zzbar norm alone, which Python's max after zz's would drop
        monkeypatch.setattr(galerkin, "block_norms", lambda S, norm: (1.0, np.nan, 1.0))
        assert np.isnan(form_norm(QuadraticForm(2, 2, 3, coeffs), WeightedSpace(3, 3), 8))


class TestNormMemo:
    """form_norm keeps each value on the form, keyed by the weighted space and
    the grid points, and makes the coefficients read-only while it does."""

    def evaluations(self, monkeypatch) -> list:
        evaluated = []
        grid_values = QuadraticForm.grid_values

        def counted(qf, G):
            evaluated.append(G)
            return grid_values(qf, G)

        monkeypatch.setattr(QuadraticForm, "grid_values", counted)
        return evaluated

    def fresh(self, qf: QuadraticForm) -> QuadraticForm:
        return QuadraticForm(qf.n, qf.K, qf.J, qf.coeffs.copy())

    def test_grids_of_the_same_points_share_one_evaluation(self, monkeypatch):
        # at K = 8, G = 8 and G = 12 both sample the window's 17 points
        qf = real_form(np.random.default_rng(101), 1, 8, 3)
        ws = WeightedSpace(3, 3)
        evaluated = self.evaluations(monkeypatch)
        norm = form_norm(qf, ws, 8)
        assert form_norm(qf, ws, 12) == norm == form_norm(self.fresh(qf), ws, 12)
        assert evaluated == [8, 12]  # the second on the fresh copy
        assert form_norm(qf, ws, 18) == form_norm(self.fresh(qf), ws, 18)
        assert evaluated == [8, 12, 18, 18]

    def test_another_weighted_space_gets_its_own_entry(self, monkeypatch):
        qf = real_form(np.random.default_rng(102), 2, 2, 3)
        evaluated = self.evaluations(monkeypatch)
        first, other = WeightedSpace(3, 3), WeightedSpace(1, 3)
        a, b = form_norm(qf, first, 8), form_norm(qf, other, 8)
        assert a != b and len(evaluated) == 2
        assert (form_norm(qf, first, 8), form_norm(qf, other, 8)) == (a, b)
        assert len(evaluated) == 2 and len(qf.norms) == 2

    def test_coefficients_cannot_be_rebound(self):
        # a frozen form: new coefficients make a new form with its own memo
        qf = real_form(np.random.default_rng(103), 2, 2, 3)
        ws = WeightedSpace(3, 3)
        norm = form_norm(qf, ws, 8)
        with pytest.raises(dataclasses.FrozenInstanceError):
            qf.coeffs = 0.5 * qf.coeffs
        assert form_norm(qf, ws, 8) == norm == form_norm(self.fresh(qf), ws, 8)
        doubled = qf.scaled(2.0)
        assert doubled.norms == {} and doubled.coeffs.flags.writeable
        assert form_norm(doubled, ws, 8) == pytest.approx(2.0 * norm, rel=1e-14)

    def test_a_normed_form_refuses_in_place_writes(self):
        qf = real_form(np.random.default_rng(104), 2, 2, 3)
        ws = WeightedSpace(3, 3)
        norm = form_norm(qf, ws, 8)
        with pytest.raises(ValueError, match="read-only"):
            qf.coeffs[..., 0, 0] += 1.0
        assert form_norm(qf, ws, 8) == norm == form_norm(self.fresh(qf), ws, 8)
        # a zero form is normed without its grid and stays writeable
        zero = QuadraticForm.zeros(2, 2, 3)
        assert form_norm(zero, ws, 8) == 0.0
        assert zero.norms == {} and zero.coeffs.flags.writeable


def svd_max(mats) -> float:
    """Reference: every matrix through the SVD."""
    return float(np.max(np.linalg.norm(mats, ord=2, axis=(-2, -1))))


def certifiable_batch(rng, count=300, d=8) -> np.ndarray:
    """16 matrices 2 I, whose Frobenius bounds lead, then count matrices
    1.5 Q with Q orthogonal: every bound, 1.5 sqrt(d), reaches the maximum 2,
    but every spectral norm lies below it."""
    q, _ = np.linalg.qr(rng.standard_normal((count, d, d)))
    return np.concatenate([np.broadcast_to(2.0 * np.eye(d), (16, d, d)), 1.5 * q])


class TestMaxSpectralNorm:
    """The pruned kernel must equal the full SVD sweep exactly, not approximately."""

    @pytest.mark.parametrize("seed", range(5))
    def test_random_complex_and_real_batches(self, seed):
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((300, 8, 8)) + 1j * rng.standard_normal((300, 8, 8))
        assert max_spectral_norm(z) == svd_max(z)
        assert max_spectral_norm(z.real) == svd_max(z.real)

    def test_extra_leading_dimensions(self):
        rng = np.random.default_rng(7)
        z = rng.standard_normal((4, 5, 6, 6)) + 1j * rng.standard_normal((4, 5, 6, 6))
        assert max_spectral_norm(z) == svd_max(z)
        rect = rng.standard_normal((3, 7, 5, 4))
        assert max_spectral_norm(rect) == svd_max(rect)

    def test_single_matrix(self):
        a = np.random.default_rng(8).standard_normal((5, 5))
        assert max_spectral_norm(a) == svd_max(a)

    def test_all_zero_batch(self):
        z = np.zeros((40, 6, 6), complex)
        assert max_spectral_norm(z) == 0.0 == svd_max(z)

    def test_tiny_entries_are_not_zero(self):
        # squares of these entries underflow, so their Frobenius norms read 0
        a = np.full((20, 3, 3), 1e-170)
        assert max_spectral_norm(a) == svd_max(a) > 0.0

    def test_ties(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((6, 6))
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        batch = np.stack([a] * 40 + [a.T] * 10 + [2 * q] * 30)
        assert max_spectral_norm(batch) == svd_max(batch)

    def test_maximum_on_rank_one_matrix(self):
        # a rank-one matrix r whose rounded Frobenius norm is below its sigma_max,
        # behind 16 matrices whose bounds are larger and whose norm s lies
        # strictly between the two: pruning r on its bare Frobenius norm
        # would return s
        rng = np.random.default_rng(10)
        for _ in range(10_000):
            r = np.outer(rng.standard_normal(4), rng.standard_normal(4))
            fro, sigma = np.linalg.norm(r), np.linalg.norm(r, 2)
            s = np.nextafter(fro, np.inf)
            x = np.diag([s, s / 2, s / 4, s / 8])
            if s < sigma and np.linalg.norm(x, 2) == s:
                break
        else:
            pytest.fail("no rank-one matrix with a rounding gap of 2 ulp found")
        batch = np.stack([x] * 16 + [r] + [0.1 * r] * 20)
        assert max_spectral_norm(batch) == svd_max(batch) == sigma

    def test_certificate_skips_what_the_bounds_cannot_prune(self, monkeypatch):
        batch = certifiable_batch(np.random.default_rng(13))
        assert np.all(np.linalg.norm(batch, axis=(-2, -1)) > svd_max(batch))
        rows = []
        sigma_max = galerkin._sigma_max

        def counted(mats):
            rows.append(len(mats))
            return sigma_max(mats)

        monkeypatch.setattr(galerkin, "_sigma_max", counted)
        assert max_spectral_norm(batch) == svd_max(batch)
        assert sum(rows) <= 16 + 64

    @pytest.mark.parametrize("gap", [0.0, 1e-12, -1e-12, 1e-10, -1e-10, -1e-9])
    def test_ties_behind_the_first_maximum(self, gap):
        # behind 16 matrices 2 I, matrices of spectral norm 2 (1 + gap) whose
        # bounds reach 2: the certificate must pass none of those at or above
        # the maximum; at gap 0, also 2 P for permutations P, exact ties in
        # bound and norm
        rng = np.random.default_rng(14)
        d = 6
        q, _ = np.linalg.qr(rng.standard_normal((200, d, d)))
        sv = np.array([2.0 * (1.0 + gap)] + [1.0] * (d - 1))
        batch = [np.broadcast_to(2.0 * np.eye(d), (16, d, d)), (q * sv) @ np.swapaxes(q, 1, 2)]
        if gap == 0.0:
            batch.append(2.0 * np.eye(d)[[rng.permutation(d) for _ in range(40)]])
        batch = np.concatenate(batch)
        assert max_spectral_norm(batch) == svd_max(batch)

    @pytest.mark.parametrize("scale", [1e-170, 1e-90, 1e140, 1e152, 1e200])
    def test_scaled_batches(self, scale):
        # zero Frobenius bounds, the certificate near the floor and near the
        # ceiling, no certificate (best^2 may overflow), infinite bounds
        batch = scale * certifiable_batch(np.random.default_rng(15))
        assert max_spectral_norm(batch) == svd_max(batch)

    def test_tiny_and_huge_entries_among_certifiable_matrices(self):
        rng = np.random.default_rng(16)
        batch = certifiable_batch(rng)
        tiny = np.full((20,) + batch.shape[1:], 1e-170)
        assert max_spectral_norm(np.concatenate([batch, tiny])) == \
               svd_max(np.concatenate([batch, tiny]))
        mixed = batch.copy()
        mixed[16:, 0, 1] = 1e-170
        assert max_spectral_norm(mixed) == svd_max(mixed)
        mixed[-1, 0, 0] = 1e200
        assert max_spectral_norm(mixed) == svd_max(mixed)

    def test_random_batches_peaking_on_rank_one(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            u = rng.standard_normal((50, 5, 1)) + 1j * rng.standard_normal((50, 5, 1))
            v = rng.standard_normal((50, 1, 5))
            batch = u @ v
            assert max_spectral_norm(batch) == svd_max(batch)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_non_finite_entries_give_nan_or_inf_without_an_svd(self, dtype):
        # the SVD does not converge on a NaN or an infinite entry (LinAlgError)
        batch = np.random.default_rng(13).standard_normal((40, 6, 6)).astype(dtype)
        batch[17, 2, 3] = np.inf
        assert max_spectral_norm(batch) == np.inf
        batch[31, 0, 5] = np.nan
        assert np.isnan(max_spectral_norm(batch))
        batch[17, 2, 3] = 0.0
        assert np.isnan(max_spectral_norm(batch))


class TestIsometry:
    def test_hN_norm_equals_sobolev_seminorm(self):
        # u(x) = sum u_k sin(kx): h_N norm of (u_k) vs (1/pi) integral |d^N u|^2
        rng = np.random.default_rng(5)
        N = 3
        ws = WeightedSpace(N, 12)
        G = 256
        x = 2 * np.pi * np.arange(G) / G - np.pi
        for _ in range(20):
            u = np.zeros(12)
            u[rng.integers(0, 12, size=5)] = rng.standard_normal(5)
            vals = sum(u[k - 1] * np.sin(k * x) for k in range(1, 13))
            hat = np.fft.fft(vals, norm="forward")
            modes = np.fft.fftfreq(G, 1.0 / G)
            dvals = np.fft.ifft(hat * (1j * modes) ** N, norm="forward").real
            sobolev = np.sqrt(np.sum(dvals**2) * (2 * np.pi / G) / np.pi)
            assert ws.state_norm(np.concatenate([u, np.zeros(12)])) == pytest.approx(
                sobolev, rel=1e-8)  # the state (q, p) = (u, 0)

    def test_doubled_metric_weights_repeat_for_zbar(self):
        ws = WeightedSpace(3, 5)
        w2 = ws.doubled_metric_weights
        assert np.array_equal(w2[:5], ws.metric_weights)
        assert np.array_equal(w2[5:], ws.metric_weights)


class TestQuadraticForm:
    def test_truncate_high_zero_when_k_large(self):
        rng = np.random.default_rng(0)
        qf = random_form(rng, n=2, K=2, J=4)
        low, high = qf.truncate(2)
        assert not high.coeffs.any()
        assert np.array_equal(low.coeffs, qf.coeffs)

    def test_truncate_parts_own_their_blocks(self):
        rng = np.random.default_rng(2)
        qf = random_form(rng, n=2, K=2, J=3)
        before = qf.coeffs.copy()
        low, high = qf.truncate(1)
        for part in (low, high):
            part.coeffs[...] += 1.0
        assert np.array_equal(qf.coeffs, before)

    def test_truncate_zero_keeps_average_only(self):
        rng = np.random.default_rng(1)
        qf = random_form(rng, n=2, K=2, J=4)
        low, high = qf.truncate(0)
        K = qf.K
        mask = np.ones((5, 3), dtype=bool)
        mask[K, 0] = False  # k = 0 on the half
        assert np.max(np.abs(low.coeffs[mask])) == 0.0
        assert np.max(np.abs(low.coeffs[K, 0] - qf.coeffs[K, 0])) == 0.0

    def test_truncate_reassembles_exactly(self):
        rng = np.random.default_rng(2)
        qf = random_form(rng, n=2, K=3, J=5, real_structure=False)
        for K_cut in (0, 1, 2):
            low, high = qf.truncate(K_cut)
            back = low + high
            assert np.array_equal(back.coeffs, qf.coeffs)

    def test_load_rejects_another_schema(self, tmp_path):
        rng = np.random.default_rng(5)
        qf = random_form(rng, n=2, K=1, J=2)
        engine = checkpoint_engine([qf], random_form(rng, n=2, K=1, J=2))
        cfg = cli.RunConfig()
        cli.save_checkpoint(tmp_path, engine, {"m": 0}, cfg)
        path = tmp_path / "steps" / "step_000" / "state.json"
        state = json.loads(path.read_text())
        state["schema"] = cli.CHECKPOINT_SCHEMA - 1
        path.write_text(json.dumps(state))
        with pytest.raises(cli.CheckpointSchemaError,
                           match=rf"state\.json: checkpoint schema {cli.CHECKPOINT_SCHEMA - 1}, "
                                 rf"expected {cli.CHECKPOINT_SCHEMA}"):
            cli.load_checkpoints(cfg, cli.checkpoint_states(tmp_path, cfg))

    def test_grid_values_match_direct_eval(self):
        rng = np.random.default_rng(4)
        qf = random_form(rng, n=1, K=2, J=3)
        G = 8
        vals = qf.grid_values(G)
        assert vals.shape == (G, 6, 6) and vals.dtype == np.float64
        whole = whole_window(qf.coeffs, 1, 2)
        ks = np.arange(-2, 3)
        for m in range(G):
            theta = 2 * np.pi * m / G
            direct = sum(whole[i] * np.exp(1j * ks[i] * theta) for i in range(5))
            assert np.max(np.abs(vals[m] - direct)) < 1e-12


# (n, K, G): n = 1 and 2, odd and even G
FORM_CASES = [(1, 3, 7), (1, 3, 12), (2, 2, 5), (2, 2, 8), (2, 3, 11), (2, 3, 12)]


def uform_grid(blocks, n, K, G):
    """The u-form path: the whole-window (q, p) form of the blocks, on the grid."""
    S = window_to_grid(qp_from_blocks(*blocks), n, K, G)
    return S.reshape((-1,) + S.shape[-2:])


class TestRealForms:
    """The half-window form against the u-form path it replaces."""

    @pytest.mark.parametrize("n,K,G", FORM_CASES)
    def test_grid_values_are_the_uform_values(self, n, K, G):
        blocks = real_blocks(np.random.default_rng(60 + G), n, K, 4)
        qf = form_from_blocks(n, K, 4, *blocks)
        assert qf.coeffs.shape == (2 * K + 1,) * (n - 1) + (K + 1, 8, 8)
        want = uform_grid(blocks, n, K, G)
        assert np.max(np.abs(want.imag)) <= 1e-13 * np.max(np.abs(want))
        got = qf.grid_values(G)
        assert np.max(np.abs(got - want.real)) <= 1e-13 * np.max(np.abs(want))
        rows = RealGrid(qf.coeffs, n, K, G).rows(slice(1, 3)).reshape(-1, 8, 8)
        assert np.array_equal(rows, got[G ** (n - 1):3 * G ** (n - 1)])

    @pytest.mark.parametrize("n,K,G", FORM_CASES)
    def test_arithmetic_commutes_with_the_conversion(self, n, K, G):
        rng = np.random.default_rng(70 + G)
        a, b = real_blocks(rng, n, K, 3), real_blocks(rng, n, K, 3)
        fa, fb = (form_from_blocks(n, K, 3, *x) for x in (a, b))
        total = form_from_blocks(n, K, 3, *(x + y for x, y in zip(a, b)))
        assert np.max(np.abs((fa + fb).coeffs - total.coeffs)) <= 1e-15
        assert np.max(np.abs((fa - fb).coeffs - (fa + fb.scaled(-1.0)).coeffs)) == 0.0
        scaled = form_from_blocks(n, K, 3, *(-0.3 * x for x in a))
        assert np.max(np.abs(fa.scaled(-0.3).coeffs - scaled.coeffs)) <= 1e-15
        for K_cut in range(K + 1):
            low_mask = (kinf(n, K) <= K_cut)[..., None, None]
            low, high = fa.truncate(K_cut)
            for part, keep in ((low, low_mask), (high, ~low_mask)):
                want = form_from_blocks(n, K, 3, *(np.where(keep, x, 0.0) for x in a))
                assert np.max(np.abs(part.coeffs - want.coeffs)) <= 1e-15

    @pytest.mark.parametrize("n", [1, 2])
    def test_block_norms_are_the_three_separate_norms(self, n):
        # on real values zbzb = conj(zz): zz's norm stands for both
        rng = np.random.default_rng(85 + n)
        ws = WeightedSpace(3, 5)
        values = rng.standard_normal((7 ** n, 10, 10))
        for norm in (ws.opnorm_weighted, max_spectral_norm):
            want = tuple(norm(b) for b in blocks_from_qp(values))
            got = block_norms(values, norm)
            for g, w in zip(got, want):
                assert g == pytest.approx(w, rel=1e-13)
        with pytest.raises(TypeError):
            block_norms(values.astype(complex), max_spectral_norm)

    @pytest.mark.parametrize("n,K,G", FORM_CASES)
    def test_form_norm_is_the_three_block_norm(self, n, K, G):
        J = 5
        blocks = real_blocks(np.random.default_rng(80 + G), n, K, J)
        ws = WeightedSpace(3, J)
        G_eff = max(G, 2 * K + 1)
        want = max(ws.opnorm_weighted(window_to_grid(b, n, K, G_eff)) for b in blocks)
        got = form_norm(form_from_blocks(n, K, J, *blocks), ws, G)
        assert got == pytest.approx(want, rel=1e-13)

    def test_half_is_the_whole_window_reflected(self):
        blocks = real_blocks(np.random.default_rng(90), 2, 3, 2)
        qf = form_from_blocks(2, 3, 2, *blocks)
        whole = qp_from_blocks(*blocks)
        assert np.max(np.abs(whole_window(qf.coeffs, 2, 3) - whole)) <= 1e-15
        assert np.array_equal(qf.coeffs, 0.5 * (whole[half_index(2, 3)]
                                               + np.swapaxes(whole[half_index(2, 3)], -1, -2)))
