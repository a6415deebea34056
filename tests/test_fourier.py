"""The theta transforms against the zero-padded FFT they replace."""

import numpy as np
import pytest

from qpwave.fourier import (
    RealGrid,
    RealWindow,
    grid_to_window,
    kvalues,
    omega_derivative,
    project_window_grid,
    spectral_derivative_matrix,
    window_to_grid,
)

# (n, K, G): odd and even G, G = 2K+1 exactly, up to three torus dimensions
CASES = [(1, 4, 9), (1, 5, 16), (1, 6, 27), (2, 3, 7), (2, 4, 15), (2, 6, 20),
         (2, 8, 27), (3, 2, 5), (3, 2, 8), (3, 3, 12)]
TAILS = [(), (3,), (2, 4)]


# -- the FFT path, kept as the oracle ---------------------------------------


def _fft_index(n, K, G):
    return np.ix_(*[kvalues(K) % G] * n)


def fft_window_to_grid(coeffs, n, K, G):
    padded = np.zeros((G,) * n + coeffs.shape[n:], dtype=complex)
    padded[_fft_index(n, K, G)] = coeffs
    return np.fft.ifftn(padded, axes=tuple(range(n)), norm="forward")


def fft_grid_to_window(values, n, K):
    hat = np.fft.fftn(values, axes=tuple(range(n)), norm="forward")
    return hat[_fft_index(n, K, values.shape[0])]


def fft_project(values, n, K):
    return fft_window_to_grid(fft_grid_to_window(values, n, K), n, K, values.shape[0])


def fft_derivative(values, axis):
    """d/dtheta of the trigonometric interpolant: mode k times i k, and the
    Nyquist mode of an even G times 0 (on real values, irfft(1j k rfft))."""
    G = values.shape[axis]
    modes = np.fft.fftfreq(G, d=1.0 / G)
    modes[2 * np.abs(modes) == G] = 0
    shape = [1] * values.ndim
    shape[axis] = G
    hat = np.fft.fft(values, axis=axis, norm="forward")
    return np.fft.ifft(hat * (1j * modes).reshape(shape), axis=axis, norm="forward")


# ---------------------------------------------------------------------------


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _rel(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


@pytest.mark.parametrize("n,K,G", CASES)
@pytest.mark.parametrize("tail", TAILS)
def test_transforms_match_fft(n, K, G, tail):
    rng = np.random.default_rng(1000 * n + 10 * K + G)
    coeffs = _complex(rng, (2 * K + 1,) * n + tail)
    values = _complex(rng, (G,) * n + tail)
    real = values.real

    grid = window_to_grid(coeffs, n, K, G)
    assert grid.shape == (G,) * n + tail
    assert _rel(grid, fft_window_to_grid(coeffs, n, K, G)) <= 1e-13

    hat = grid_to_window(values, n, K)
    assert hat.shape == (2 * K + 1,) * n + tail
    assert _rel(hat, fft_grid_to_window(values, n, K)) <= 1e-13

    projected = project_window_grid(real, n, K)
    assert projected.shape == values.shape
    assert _rel(projected, fft_project(real, n, K).real) <= 1e-13


@pytest.mark.parametrize("n,K,G", CASES)
def test_round_trip_returns_window(n, K, G):
    coeffs = _complex(np.random.default_rng(G), (2 * K + 1,) * n + (2, 2))
    back = grid_to_window(window_to_grid(coeffs, n, K, G), n, K)
    assert _rel(back, coeffs) <= 1e-13


def test_real_coefficients_promote_to_complex():
    coeffs = np.random.default_rng(3).standard_normal((9, 9))
    grid = window_to_grid(coeffs, 2, 4, 15)
    assert grid.dtype == complex
    assert _rel(grid, fft_window_to_grid(coeffs, 2, 4, 15)) <= 1e-13


def test_grid_smaller_than_window_raises():
    coeffs = np.zeros((9, 9), dtype=complex)
    with pytest.raises(ValueError):
        window_to_grid(coeffs, 2, 4, 8)


def test_matrices_are_read_only():
    from qpwave.fourier import _to_grid, _to_window

    for mat in (_to_grid(4, 15), _to_window(4, 15), spectral_derivative_matrix(15)):
        with pytest.raises(ValueError):
            mat[0, 0] = 0.0


@pytest.mark.parametrize("G", [15, 20, 27])
def test_spectral_derivative_matches_fft(G):
    rng = np.random.default_rng(G)
    values = _complex(rng, (G, 3))
    D = spectral_derivative_matrix(G)
    assert D.shape == (G, G)
    assert D.dtype == np.float64
    assert _rel(D @ values, fft_derivative(values, 0)) <= 1e-13


@pytest.mark.parametrize("G", [8, 20, 50])
def test_spectral_derivative_differentiates_the_real_interpolant(G):
    D = spectral_derivative_matrix(G)
    assert D.dtype == np.float64
    assert not D.flags.writeable
    theta = 2 * np.pi * np.arange(G) / G
    # the Nyquist cosine: its derivative, -G/2 sin(G theta / 2), vanishes on the grid
    assert np.max(np.abs(D @ np.cos(G * theta / 2))) <= 1e-13 * G
    rng = np.random.default_rng(G)
    k = np.arange(1, (G + 1) // 2)  # |k| < G/2
    a, b = rng.standard_normal((2, k.size))
    f = np.cos(np.outer(theta, k)) @ a + np.sin(np.outer(theta, k)) @ b
    df = (np.cos(np.outer(theta, k)) @ (k * b) - np.sin(np.outer(theta, k)) @ (k * a))
    assert _rel(D @ f, df) <= 1e-12
    assert _rel(D @ f, np.fft.irfft(1j * np.arange(G // 2 + 1) * np.fft.rfft(f), n=G)) <= 1e-12


@pytest.mark.parametrize("G", [15, 20, 27])
def test_omega_derivative_matches_fft(G):
    rng = np.random.default_rng(G + 1)
    omega = np.array([1.0, np.sqrt(2.0)])
    values = _complex(rng, (G, G, 2, 2))
    expected = omega[0] * fft_derivative(values, 0) + omega[1] * fft_derivative(values, 1)
    assert _rel(omega_derivative(values, omega, 2), expected) <= 1e-13



# -- slabs: rows of the first theta axis ------------------------------------


def _row_slabs(G, step):
    return [slice(r, min(r + step, G)) for r in range(0, G, step)]


# steps 1, 2 and one that does not divide G (G = 5..27 here)
SLAB_STEPS = [1, 2, 4]


@pytest.mark.parametrize("n,K,G", CASES)
@pytest.mark.parametrize("step", SLAB_STEPS)
@pytest.mark.parametrize("real", [False, True])
def test_grid_to_window_reads_slabs_then_the_first_axis(n, K, G, step, real):
    rng = np.random.default_rng(11 * G + step)
    shape = (G,) * n + (2, 3)
    values = rng.standard_normal(shape) if real else _complex(rng, shape)
    stack = np.concatenate([grid_to_window(values[rows], n, K, first=1)
                            for rows in _row_slabs(G, step)])
    assert stack.shape == (G,) + (2 * K + 1,) * (n - 1) + (2, 3)
    got = grid_to_window(stack, 1, K)
    assert got.shape == (2 * K + 1,) * n + (2, 3)
    assert _rel(got, fft_grid_to_window(values, n, K)) <= 1e-13
    assert _rel(got, grid_to_window(values, n, K)) <= 1e-13


@pytest.mark.parametrize("G", [15, 20, 27])
@pytest.mark.parametrize("step", SLAB_STEPS)
def test_omega_derivative_rows_are_rows_of_the_derivative(G, step):
    # the first axis once over the whole grid, plus each slab's other axes
    # (first=1), as the recomposition oracle takes them
    rng = np.random.default_rng(G + step)
    omega = np.array([1.0, np.sqrt(2.0)])
    values = rng.standard_normal((G, G, 2, 2))  # real, as Phi - I in the oracle
    full = omega_derivative(values, omega, 2)
    assert full.dtype == np.float64
    assert _rel(full, omega[0] * fft_derivative(values, 0)
                + omega[1] * fft_derivative(values, 1)) <= 1e-13
    first_axis = omega[0] * (spectral_derivative_matrix(G) @ values.reshape(G, -1))
    first_axis = first_axis.reshape(values.shape)
    for rows in _row_slabs(G, step):
        got = first_axis[rows] + omega_derivative(values[rows], omega, 2, first=1)
        assert _rel(got, full[rows]) <= 1e-13
    assert omega_derivative(values, omega, 2, first=2) == 0


# -- real fields: the k_last >= 0 half, crossed in real arithmetic ----------


# CASES plus K = 0, at odd and even G, for n = 1, 2, 3
REAL_CASES = CASES + [(1, 0, 1), (1, 0, 4), (2, 0, 3), (2, 0, 4), (3, 0, 2)]


def _hermitian(rng, n, K, tail):
    """Window coefficients of a real field: c_-k = conj(c_k)."""
    c = _complex(rng, (2 * K + 1,) * n + tail)
    return 0.5 * (c + np.conj(np.flip(c, axis=tuple(range(n)))))


@pytest.mark.parametrize("n,K,G", REAL_CASES)
@pytest.mark.parametrize("step", SLAB_STEPS)
def test_window_to_grid_rows_are_rows_of_the_transform(n, K, G, step):
    # slabs of rows of the real window -> grid transform (RealGrid, the only
    # slab path) are the rows of the real part of the whole-grid window_to_grid,
    # for real-field windows and for general ones alike
    rng = np.random.default_rng(13 * G + 5 * K + step)
    tail = (2, 3)
    for coeffs in (_complex(rng, (2 * K + 1,) * n + tail), _hermitian(rng, n, K, tail)):
        want = window_to_grid(coeffs, n, K, G).real
        grid = RealGrid(coeffs, n, K, G)
        assert grid.source.dtype == np.float64
        assert grid.source.shape == (G,) * (n - 1) + (2 * (K + 1),) + tail
        whole = grid.rows()
        assert whole.dtype == np.float64
        assert _rel(whole, want) <= 1e-13
        for rows in _row_slabs(G, step):
            got = grid.rows(rows)
            assert got.shape == want[rows].shape
            assert _rel(got, want[rows]) <= 1e-13


def test_real_grid_folds_an_asymmetric_window_exactly():
    # a real field's window with a deliberate 1e-13 structure defect: the fold
    # keeps the real part of the full transform, which reading the k_last >= 0
    # half as if c_-k = conj(c_k) held exactly would miss by about the defect
    n, K, G = 2, 6, 20
    rng = np.random.default_rng(17)
    coeffs = _hermitian(rng, n, K, (3,))
    coeffs += 1e-13 * np.max(np.abs(coeffs)) * _complex(rng, coeffs.shape)
    want = window_to_grid(coeffs, n, K, G).real
    assert _rel(RealGrid(coeffs, n, K, G).rows(), want) <= 1e-14
    # the k_last < 0 half replaced by the reflection of the k_last >= 0 half
    one_sided = coeffs.copy()
    one_sided[:, :K] = np.conj(np.flip(coeffs, axis=(0, 1))[:, :K])
    assert _rel(RealGrid(one_sided, n, K, G).rows(), want) > 1e-14


@pytest.mark.parametrize("n,K,G", REAL_CASES)
@pytest.mark.parametrize("step", SLAB_STEPS)
def test_real_window_reads_slabs_like_grid_to_window(n, K, G, step):
    rng = np.random.default_rng(19 * G + 3 * K + step)
    values = rng.standard_normal((G,) * n + (2, 3))
    want = grid_to_window(values, n, K)
    window = RealWindow(n, K, G)
    for rows in _row_slabs(G, step):
        assert window.put(values[rows], rows) is window
    got = window.coefficients()
    assert window.stack is None
    assert got.shape == (2 * K + 1,) * n + (2, 3)
    assert _rel(got, want) <= 1e-13
    # the k_last < 0 half is the conjugate reflection, exactly
    negative = (slice(None),) * (n - 1) + (slice(None, K),)
    assert np.array_equal(got[negative], np.conj(np.flip(got, axis=tuple(range(n))))[negative])
    assert _rel(RealWindow(n, K, G).put(values).coefficients(), want) <= 1e-13


def test_real_window_rejects_complex_values():
    # the real read would drop their imaginary part
    values = _complex(np.random.default_rng(29), (15, 15, 3))
    with pytest.raises(TypeError):
        RealWindow(2, 4, 15).put(values)


@pytest.mark.parametrize("n,K,G", REAL_CASES)
def test_real_projection_is_the_real_part_of_the_complex_one(n, K, G):
    values = np.random.default_rng(23 * G + K).standard_normal((G,) * n + (3,))
    want = fft_project(values, n, K).real
    got = project_window_grid(values, n, K)
    assert got.dtype == np.float64
    assert _rel(got, want) <= 1e-13
    # written over its input
    over = project_window_grid(values, n, K, out=values)
    assert np.shares_memory(over, values)
    assert _rel(values, want) <= 1e-13
