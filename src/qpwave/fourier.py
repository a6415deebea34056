"""Torus Fourier-window helpers shared across the engine.

Coefficient arrays for a function on the n-torus are stored on a hypercube
window |k|_inf <= K: shape (2K+1,)*n + tail, axis index i <-> mode k = i - K.
Grid values use the convention f(theta_m) = sum_k c_k exp(i<k, theta_m>) on the
uniform grid theta_m = 2*pi*m/G.

Window <-> grid transforms are exact-window DFTs: one dense G x (2K+1) or
(2K+1) x G matrix applied along each theta axis, so only window modes are
ever touched.

Real fields are stored once, on the k_last >= 0 half of the window: the
coefficients c_k with k_last >= 0, shape (2K+1,)*(n-1) + (K+1,) + tail
(half_index picks them out of a whole window). The rest of the window is
c_-k = conj(c_k). A half mode with k_last > 0 stands for the two window
modes k and -k (half_multiplicity 2), one with k_last = 0 for itself
(multiplicity 1; that plane holds k and -k both), so the field's values
are Re sum_half mult_k c_k e^{i k.theta}. RealGrid and RealWindow cross
between these coefficients and grid values in real arithmetic.
"""

from __future__ import annotations

import functools
import math

import numpy as np

_SMOOTH_SIZES = sorted(
    {
        2**a * 3**b * 5**c
        for a in range(12)
        for b in range(8)
        for c in range(6)
        if 2**a * 3**b * 5**c <= 4096
    }
)


def fast_grid_size(minimum: int) -> int:
    """Smallest 5-smooth size >= minimum.

    The DFT-matrix transforms run at any G. The 5-smooth sizes are kept only
    so that grids, and every number computed on them, stay as they are."""
    for s in _SMOOTH_SIZES:
        if s >= minimum:
            return s
    raise ValueError(f"no cached grid size >= {minimum}")


def product_grid_size(K: int) -> int:
    """Grid large enough that pairwise products of window-K data read back
    alias-free on the window (needs G > 3K), rounded up to a 5-smooth size
    only so that grids stay as they are (see fast_grid_size)."""
    return fast_grid_size(3 * K + 2)


def window_width(K: int) -> int:
    return 2 * K + 1


def kvalues(K: int) -> np.ndarray:
    return np.arange(-K, K + 1)


def kgrid(n: int, K: int) -> np.ndarray:
    """Integer mode vectors on the window, shape (2K+1,)*n + (n,)."""
    axes = np.meshgrid(*([kvalues(K)] * n), indexing="ij")
    return np.stack(axes, axis=-1)


def kdot(omega: np.ndarray, n: int, K: int) -> np.ndarray:
    """<k, omega> over the window, shape (2K+1,)*n."""
    return kgrid(n, K) @ np.asarray(omega, dtype=float)


def kinf(n: int, K: int) -> np.ndarray:
    """|k|_inf over the window."""
    return np.max(np.abs(kgrid(n, K)), axis=-1)


def half_index(n: int, K: int) -> tuple:
    """Index of the k_last >= 0 half in a window array (2K+1,)*n + tail."""
    return (slice(None),) * (n - 1) + (slice(K, None),)


def half_multiplicity(n: int, K: int) -> np.ndarray:
    """The number of window modes each half mode stands for, shape
    (2K+1,)*(n-1) + (K+1,): 2 for k_last > 0 (k and -k), 1 at k_last = 0."""
    return np.where(kgrid(n, K)[half_index(n, K)][..., -1] > 0, 2.0, 1.0)


def _phases(G: int, modes: np.ndarray) -> np.ndarray:
    """exp(i k theta_g) for theta_g = 2 pi g / G, shape (G, len(modes)). The
    phase index g*k is reduced mod G in integers, so every entry is one of the
    G roots of unity, exact to roundoff."""
    gk = np.outer(np.arange(G), modes) % G
    return np.exp(2j * np.pi * gk / G)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@functools.lru_cache(maxsize=None)
def _to_grid(K: int, G: int) -> np.ndarray:
    """E[g, k] = exp(i k theta_g): window coefficients -> grid values, G x (2K+1)."""
    if G < 2 * K + 1:
        raise ValueError("grid too small for the coefficient window")
    return _frozen(_phases(G, kvalues(K)))


@functools.lru_cache(maxsize=None)
def _to_window(K: int, G: int) -> np.ndarray:
    """E^H / G: grid values -> window coefficients, (2K+1) x G."""
    return _frozen(np.ascontiguousarray(_to_grid(K, G).conj().T) / G)


@functools.lru_cache(maxsize=None)
def _half_to_grid(K: int, G: int) -> np.ndarray:
    """mult_k [cos | -sin](k theta_g), k = 0..K, G x 2(K+1): applied to the
    stacked real and imaginary parts [Re c; Im c] of half-window coefficients
    it gives the real field's values Re sum_{k>=0} mult_k c_k e^{i k theta_g}."""
    E = _to_grid(K, G)[:, K:] * half_multiplicity(1, K)
    return _frozen(np.concatenate([E.real, -E.imag], axis=1))


@functools.lru_cache(maxsize=None)
def _half_to_window(K: int, G: int) -> np.ndarray:
    """[Re; Im] of the k >= 0 rows of E^H / G, 2(K+1) x G: real grid values
    -> stacked real and imaginary parts of their k >= 0 coefficients."""
    W = _to_window(K, G)[K:]
    return _frozen(np.concatenate([W.real, W.imag]))


def _read_half(values: np.ndarray, ax: int, K: int) -> np.ndarray:
    """k >= 0 coefficients along axis ax of real grid values (complex), by one
    real matmul."""
    re_im = _along(_half_to_window(K, values.shape[ax]), values, ax)
    re, im = np.split(re_im, 2, axis=ax)
    return re + 1j * im


@functools.lru_cache(maxsize=None)
def spectral_derivative_matrix(G: int) -> np.ndarray:
    """G x G matrix of d/dtheta on G uniform samples, float64: the derivative
    of the real trigonometric interpolant. Mode k (``np.fft.fftfreq``) is
    multiplied by i k for |k| < G/2; the Nyquist mode of an even G, whose
    interpolant a cos(G theta / 2) has a zero derivative at every sample, by 0.
    So real grid values have a real derivative at every G."""
    modes = np.rint(np.fft.fftfreq(G, d=1.0 / G)).astype(int)
    E = _phases(G, modes)
    D = (E * (1j * np.where(2 * np.abs(modes) < G, modes, 0))) @ E.conj().T / G
    return _frozen(np.ascontiguousarray(D.real))


def _along(mat: np.ndarray, x: np.ndarray, ax: int, out: np.ndarray | None = None) -> np.ndarray:
    """mat applied along axis ax of x: one broadcast matmul on the
    (pre, axis, post) view, so no axis is moved; written to out if given."""
    shape = x.shape
    oshape = shape[:ax] + (mat.shape[0],) + shape[ax + 1:]
    x = x.reshape(math.prod(shape[:ax]), shape[ax], -1)
    y = None if out is None else out.reshape(x.shape[0], mat.shape[0], x.shape[2])
    return np.matmul(mat, x, out=y).reshape(oshape)


def _per_axis(mat: np.ndarray, x: np.ndarray, n: int, first: int = 0) -> np.ndarray:
    """mat applied along each of the axes first..n-1 of x."""
    for ax in range(first, n):
        x = _along(mat, x, ax)
    return x


def window_to_grid(coeffs: np.ndarray, n: int, K: int, G: int) -> np.ndarray:
    """Values sum_k c_k e^{i k.theta} on the uniform G^n grid."""
    return _per_axis(_to_grid(K, G), coeffs, n)


def grid_to_window(values: np.ndarray, n: int, K: int, first: int = 0) -> np.ndarray:
    """Read window coefficients off uniform grid samples, along the theta
    axes first..n-1 (all by default; none when first = n).

    With first=1, values may hold any rows of the first theta axis: slabs of
    rows are read along the other axes one at a time and stacked in row
    order, and the stack is read along the first axis once at the end, as
    the only theta axis (grid_to_window(stack, 1, K)). No full grid array is
    then ever needed.
    """
    if first == n:
        return values
    return _per_axis(_to_window(K, values.shape[first]), values, n, first=first)


def project_window_grid(values: np.ndarray, n: int, K: int,
                        out: np.ndarray | None = None) -> np.ndarray:
    """Kill all grid content outside the coefficient window, in place of the
    real values, through RealWindow and RealGrid. The result, float64, is
    written to out if given (values itself may be out, as values is read in
    full before out is written)."""
    G = values.shape[0]
    coeffs = RealWindow(n, K, G).put(values).coefficients()
    return RealGrid(coeffs, n, K, G).rows(out=out)


class RealGrid:
    """Grid values of a real field, from its half-window coefficients
    (2K+1,)*(n-1) + (K+1,) + tail, on the uniform G^n grid, read rows of the
    first theta axis at a time.

    The axes before the last are transformed once, here (window_to_grid on
    the half); the source keeps the real and imaginary parts side by side,
    float64 of shape (G,)*(n-1) + (2(K+1),) + tail, and no reference to the
    coefficients. Each rows() call is then one real [cos | -sin] matmul along
    the last axis.
    """

    def __init__(self, coeffs: np.ndarray, n: int, K: int, G: int):
        half = coeffs if n == 1 else window_to_grid(coeffs, n - 1, K, G)
        self.source = np.concatenate([half.real, half.imag], axis=n - 1)
        self.n, self.K, self.G = n, K, G

    def rows(self, rows: slice = slice(None), out: np.ndarray | None = None) -> np.ndarray:
        """Values on the grid rows ``rows`` of the first theta axis, float64,
        (rows,) + (G,)*(n-1) + tail; written to out if given."""
        cs = _half_to_grid(self.K, self.G)
        if self.n == 1:
            return _along(cs[rows], self.source, 0, out=out)
        return _along(cs, self.source[rows], self.n - 1, out=out)


class RealWindow:
    """Half-window coefficients (2K+1,)*(n-1) + (K+1,) + tail of a real field,
    read off its values on the uniform G^n grid rows of the first theta axis
    at a time.

    Each put() reads its rows along the last theta axis onto the k_last >= 0
    half with one real matmul, then along the axes between
    (grid_to_window, first=1), and files them in a stack of all G rows.
    coefficients() reads the stack along the first axis once. For n = 1 the
    first axis is the last: the stack holds the values, and coefficients()
    makes the real read.
    """

    def __init__(self, n: int, K: int, G: int):
        self.n, self.K, self.G = n, K, G
        self.stack = None

    def put(self, values: np.ndarray, rows: slice = slice(None)) -> "RealWindow":
        """File the real values, (rows,) + (G,)*(n-1) + tail, of the grid rows
        ``rows`` of the first theta axis (all by default)."""
        if np.iscomplexobj(values):
            raise TypeError("RealWindow reads real grid values only")
        n, K = self.n, self.K
        if n > 1:
            values = grid_to_window(_read_half(values, n - 1, K), n - 1, K, first=1)
        if self.stack is None:
            self.stack = np.empty((self.G,) + values.shape[1:], dtype=values.dtype)
        self.stack[rows] = values
        return self

    def coefficients(self) -> np.ndarray:
        """The half-window coefficients, complex; the stack is released."""
        n, K = self.n, self.K
        half = _read_half(self.stack, 0, K) if n == 1 else grid_to_window(self.stack, 1, K)
        self.stack = None
        return half


def omega_derivative(values: np.ndarray, omega: np.ndarray, n: int,
                     first: int = 0) -> np.ndarray:
    """omega . d_theta of grid values of shape (G,)*n + tail, spectral per
    axis, summed over the theta axes first..n-1 (all by default; 0 when
    first = n).

    With first=1, values may hold any rows of the first theta axis, as in
    grid_to_window. The first axis couples every row, so its part is left to
    the caller, to take once over the whole grid."""
    return sum(float(omega[ax]) * _along(spectral_derivative_matrix(values.shape[ax]), values, ax)
               for ax in range(first, n))


def active_modes(coeffs: np.ndarray, n: int, K: int) -> tuple:
    """(mode vectors (A, n), coefficients (A,) + tail) of the window modes
    whose max magnitude exceeds a relative floor, both read-only; with
    eval_modes, the cost of a point value tracks the active band rather than
    the full window."""
    W = window_width(K)
    flat = coeffs.reshape((W**n,) + coeffs.shape[n:])
    mags = np.abs(flat).reshape(W**n, -1).max(axis=1)
    top = mags.max()
    active = np.nonzero(mags > 1e-300 + 1e-16 * top)[0]
    return _frozen(kgrid(n, K).reshape(W**n, n)[active]), _frozen(flat[active])


def real_at_points(coeffs: np.ndarray, n: int, K: int, thetas: np.ndarray) -> np.ndarray:
    """Values of the real field with half-window coefficients coeffs at
    arbitrary points, float64 (P,) + tail."""
    mult = half_multiplicity(n, K)
    weighted = coeffs * mult.reshape(mult.shape + (1,) * (coeffs.ndim - n))
    return eval_modes(kgrid(n, K)[half_index(n, K)].reshape(mult.size, n),
                      weighted.reshape((mult.size,) + coeffs.shape[n:]), thetas).real


def eval_modes(modes: np.ndarray, values: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """sum_a values_a e^{i modes_a.theta} at each point, shape (P,) + tail."""
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    if modes.shape[0] == 0:
        return np.zeros((thetas.shape[0],) + values.shape[1:], dtype=complex)
    phases = np.exp(1j * (thetas @ modes.T))  # (P, active)
    return np.tensordot(phases, values, axes=(1, 0))


def theta_grid_points(n: int, G: int) -> np.ndarray:
    """The uniform grid as a flat (G^n, n) point list, C order."""
    ax = 2.0 * np.pi * np.arange(G) / G
    mesh = np.meshgrid(*([ax] * n), indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def reality_enforce(coeffs: np.ndarray, n: int, K: int) -> np.ndarray:
    """Average with the conjugate-reflected coefficients so that the underlying
    theta-function is exactly real (c(-k) = conj(c(k)))."""
    rev = coeffs[(slice(None, None, -1),) * n]
    return 0.5 * (coeffs + np.conj(rev))
