import numpy as np
import pytest

from forms import form_from_blocks, real_blocks, uform_blocks
from oracles import analyticity_certificate
from qpwave.fourier import kgrid
from qpwave.galerkin import QuadraticForm, WeightedSpace
from qpwave.smoothing import JacksonKernel, ScheduleError, decompose, smooth_form


def kernel():
    return JacksonKernel()


class TestKernel:
    def test_profile_shape(self):
        k = kernel()
        assert k.phi(0.0) == 1.0
        assert k.phi(0.49) == 1.0
        assert k.phi(1.0) == 0.0
        assert k.phi(2.3) == 0.0
        r = np.linspace(0.5, 1.0, 50)
        vals = k.phi(r)
        assert np.all(np.diff(vals) <= 1e-12)  # monotone decay on the shoulder

    def test_constants_preserved(self):
        qf = QuadraticForm.zeros(2, 2, 1)
        qf.coeffs[2, 0] = 3.5  # mode k = (0, 0) of the half window
        out = smooth_form(qf, kernel(), sigma=0.3)
        assert np.max(np.abs(out.coeffs - qf.coeffs)) < 1e-15

    def test_single_mode_scaling(self):
        K = 8
        qf = QuadraticForm.zeros(1, K, 1)
        qf.coeffs[5] = 1.0  # mode k = 5
        k = kernel()
        sigma = 0.15
        out = smooth_form(qf, k, sigma)
        assert out.coeffs[5, 0, 0] == pytest.approx(k.phi(sigma * 5.0), abs=1e-14)
        tiny = smooth_form(qf, k, 1e-4)
        assert np.max(np.abs(tiny.coeffs - qf.coeffs)) < 1e-14

    def test_no_new_modes(self):
        rng = np.random.default_rng(0)
        K = 6
        qf = QuadraticForm.zeros(2, K, 1)
        qf.coeffs[K - 2 : K + 3, :3] = rng.standard_normal((5, 3, 2, 2))  # |k|_inf <= 2
        out = smooth_form(qf, kernel(), 0.2)
        assert not out.coeffs[: K - 2].any() and not out.coeffs[K + 3 :].any()
        assert not out.coeffs[:, 3:].any()


def synth_decay_field(rng, K, ell, n=2):
    """Positive coefficients c |k|^-(ell+2); sup error then lands at theta=0."""
    from qpwave.fourier import kgrid

    radii = np.linalg.norm(kgrid(n, K), axis=-1)
    coef = np.where(radii > 0, 1.0 / np.maximum(radii, 1.0) ** (ell + 2.0), 0.0)
    return coef.astype(complex)


class TestSmoothingRate:
    @pytest.mark.parametrize("ell", [3, 5])
    def test_error_slope_matches_smoothness(self, ell):
        K = 280  # window must cover the finest-scale envelope support 1/sigma
        coef = synth_decay_field(None, K, ell)
        k = kernel()
        sigmas = [2.0**-e for e in range(3, 9)]
        errors = []
        for s in sigmas:
            env = k.envelope(s, 2, K)
            # positive coefficients: sup over theta of the error is at theta = 0
            errors.append(float(np.sum((1.0 - env) * coef.real)))
        logs = np.log(errors)
        slope = np.polyfit(np.log(sigmas), logs, 1)[0]
        assert abs(slope - ell) / ell < 0.15


def low_band_form(rng, K=6, J=3, band=2, n=2):
    from qpwave.fourier import kinf

    mask = (kinf(n, K) <= band)[..., None, None]
    blocks = (np.where(mask, b, 0.0) for b in real_blocks(rng, n, K, J))
    return form_from_blocks(n, K, J, *blocks)


class TestDecompose:
    def test_analytic_form_has_trivial_pieces(self):
        rng = np.random.default_rng(1)
        qf = low_band_form(rng, K=6, J=3, band=2)
        # band-2 corner modes have Euclidean radius sqrt(8); strips below
        # 0.5/sqrt(8) keep every stored mode inside the flat zone
        dec = decompose(qf, [0.17, 0.1, 0.05], kernel())
        for piece in dec.pieces[1:]:
            assert np.max(np.abs(piece.coeffs)) < 1e-14
        assert dec.residual_norm < 1e-12
        total = dec.pieces[0]
        for p in dec.pieces[1:]:
            total = total + p
        assert np.max(np.abs(total.coeffs - qf.coeffs)) < 1e-13

    def test_zero_form(self):
        qf = QuadraticForm.zeros(2, 4, 3)
        dec = decompose(qf, [0.25, 0.1], kernel())
        assert not any(p.coeffs.any() for p in dec.pieces)
        assert dec.residual_norm == 0.0

    def test_telescoping_is_exact_in_coefficients(self):
        rng = np.random.default_rng(2)
        qf = low_band_form(rng, K=12, J=2, band=12)
        strips = [0.4, 0.2, 0.1, 0.05]
        dec = decompose(qf, strips, kernel())
        total = dec.pieces[0]
        for p in dec.pieces[1:]:
            total = total + p
        direct = smooth_form(qf, kernel(), strips[-1])
        assert np.max(np.abs(total.coeffs - direct.coeffs)) < 1e-15

    def test_strip_tags_and_certificates(self):
        rng = np.random.default_rng(3)
        qf = low_band_form(rng, K=8, J=2, band=8)
        strips = [0.3, 0.15]
        dec = decompose(qf, strips, kernel())
        assert len(dec.pieces) == len(strips)
        radii = np.linalg.norm(kgrid(2, 8), axis=-1)
        for level, piece in enumerate(dec.pieces):
            cert = analyticity_certificate(piece, strips[level])
            assert np.isfinite(cert)
            # the u-form sum over the whole window
            want = max(np.sum(np.exp(strips[level] * radii)
                              * np.linalg.norm(b, ord=2, axis=(-2, -1)))
                       for b in uform_blocks(piece))
            assert cert == pytest.approx(want, rel=1e-13)

    def test_schedule_validation(self):
        qf = QuadraticForm.zeros(1, 2, 2)
        with pytest.raises(ScheduleError):
            decompose(qf, [0.1, 0.2], kernel())
        with pytest.raises(ScheduleError):
            decompose(qf, [0.7, 0.2], kernel())
        with pytest.raises(ScheduleError):
            decompose(qf, [0.3, -0.1], kernel())

    def test_piece_norm_scaling_tracks_strip_power(self):
        # coefficient decay |k|^-(N+1) in one angle dimension
        N = 4
        K = 96
        J = 2
        ks = np.arange(-K, K + 1)
        prof = np.where(ks != 0, 1.0 / np.maximum(np.abs(ks), 1) ** (N + 1.0), 0.0)
        arr = np.zeros((2 * K + 1, J, J), dtype=complex)
        arr[:, 0, 0] = prof
        qf = form_from_blocks(1, K, J, arr, arr, arr)
        strips = [0.2, 0.1, 0.05, 0.025, 0.0125]
        ws = WeightedSpace(N, J)
        dec = decompose(qf, strips, kernel(), ws=ws)
        norms = dec.piece_norms[1:]
        prev = strips[:-1]
        slope = np.polyfit(np.log(prev), np.log(norms), 1)[0]
        assert abs(slope - N) / N < 0.25
        assert all(np.isfinite(c) for c in dec.bound_constants)
