"""Torus Fourier-window helpers shared across the engine.

Coefficient arrays for a function on the n-torus are stored on a hypercube
window |k|_inf <= K: shape (2K+1,)*n + tail, axis index i <-> mode k = i - K.
Grid values use the convention f(theta_m) = sum_k c_k exp(i<k, theta_m>) on the
uniform grid theta_m = 2*pi*m/G.

Window <-> grid transforms are exact-window DFTs: one dense G x (2K+1) or
(2K+1) x G matrix applied along each theta axis, so only window modes are
ever touched. Real fields (RealGrid, RealWindow) run on the k_last >= 0 half
of the last theta axis, which they cross in real arithmetic.
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
    """[cos | -sin](k theta_g), k = 0..K, G x 2(K+1): applied to the stacked
    real and imaginary parts [Re h; Im h] of half-window coefficients it gives
    Re sum_{k>=0} h_k e^{i k theta_g}."""
    E = _to_grid(K, G)[:, K:]
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
    """G x G matrix of d/dtheta on G uniform samples: FFT, multiply mode k by
    i k, inverse FFT. Modes follow ``np.fft.fftfreq``; for even G the Nyquist
    mode -G/2 is kept, as the FFT derivative keeps it, and makes the matrix
    complex. For odd G the matrix is real and is returned as float64."""
    modes = np.rint(np.fft.fftfreq(G, d=1.0 / G)).astype(int)
    E = _phases(G, modes)
    D = (E * (1j * modes)) @ E.conj().T / G
    return _frozen(D if G % 2 == 0 else np.ascontiguousarray(D.real))


def _along(mat: np.ndarray, x: np.ndarray, ax: int, out: np.ndarray | None = None) -> np.ndarray:
    """mat applied along axis ax of x: one broadcast matmul on the
    (pre, axis, post) view, so no axis is moved; written to out if given. A
    complex mat meets real x as its real and imaginary parts, so x is never
    copied to complex."""
    shape = x.shape
    oshape = shape[:ax] + (mat.shape[0],) + shape[ax + 1:]
    x = x.reshape(math.prod(shape[:ax]), shape[ax], -1)
    y = None if out is None else out.reshape(x.shape[0], mat.shape[0], x.shape[2])
    if np.iscomplexobj(mat) and not np.iscomplexobj(x):
        if y is None:
            y = np.empty((x.shape[0], mat.shape[0], x.shape[2]), dtype=complex)
        y.real = np.matmul(mat.real, x)
        y.imag = np.matmul(mat.imag, x)
    else:
        y = np.matmul(mat, x, out=y)
    return y.reshape(oshape)


def _per_axis(mat: np.ndarray, x: np.ndarray, n: int, first: int = 0,
              out: np.ndarray | None = None) -> np.ndarray:
    """mat applied along each of the axes first..n-1 of x; the last
    application is written to out if given."""
    for ax in range(first, n):
        x = _along(mat, x, ax, out=out if ax == n - 1 else None)
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
    """Kill all grid content outside the coefficient window, in place of values.
    The result is written to out if given (values itself may be out, as
    values is read in full before out is written). Real values go through
    RealWindow and RealGrid and give real values."""
    G = values.shape[0]
    if not np.iscomplexobj(values):
        coeffs = RealWindow(n, K, G).put(values).coefficients()
        return RealGrid(coeffs, n, K, G).rows(out=out)
    return _per_axis(_to_grid(K, G), _per_axis(_to_window(K, G), values, n), n, out=out)


class RealGrid:
    """Real grid values Re sum_k c_k e^{i k.theta} of window coefficients
    (2K+1,)*n + tail on the uniform G^n grid, read rows of the first theta
    axis at a time.

    The coefficients are folded onto the k_last >= 0 half of the last theta
    axis: h_k = c_k + conj(c_-k) for k_last > 0 and h_k = c_k at k_last = 0.
    The fold is exact whether or not c is conjugate-symmetric, so the values
    are the real part of window_to_grid up to rounding. The axes before the
    last are transformed once, here (window_to_grid on the half); the source
    keeps the real and imaginary parts side by side, float64 of shape
    (G,)*(n-1) + (2(K+1),) + tail, and no reference to the coefficients.
    Each rows() call is then one real [cos | -sin] matmul along the last axis.
    """

    def __init__(self, coeffs: np.ndarray, n: int, K: int, G: int):
        before = (slice(None),) * (n - 1)
        mirror = np.flip(coeffs, axis=tuple(range(n)))  # c_-k at the index of c_k
        half = np.conj(mirror[before + (slice(K, None),)]).astype(complex, copy=False)
        half += coeffs[before + (slice(K, None),)]
        half[before + (0,)] = coeffs[before + (K,)]
        if n > 1:
            half = window_to_grid(half, n - 1, K, G)
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
    """Window coefficients (2K+1,)*n + tail of a real field, read off its
    values on the uniform G^n grid rows of the first theta axis at a time.

    Each put() reads its rows along the last theta axis onto the k_last >= 0
    half with one real matmul, then along the axes between
    (grid_to_window, first=1), and files them in a stack of all G rows.
    coefficients() reads the stack along the first axis once and fills the
    negative half by conjugate reflection, c_-k = conj(c_k), as for any real
    field. For n = 1 the first axis is the last: the stack holds the values,
    and coefficients() makes the real read.
    """

    def __init__(self, n: int, K: int, G: int):
        self.n, self.K, self.G = n, K, G
        self.stack = None

    def put(self, values: np.ndarray, rows: slice = slice(None)) -> "RealWindow":
        """File the real values, (rows,) + (G,)*(n-1) + tail, of the grid rows
        ``rows`` of the first theta axis (all by default)."""
        n, K = self.n, self.K
        if n > 1:
            values = grid_to_window(_read_half(values, n - 1, K), n - 1, K, first=1)
        if self.stack is None:
            self.stack = np.empty((self.G,) + values.shape[1:], dtype=values.dtype)
        self.stack[rows] = values
        return self

    def coefficients(self) -> np.ndarray:
        """The window coefficients, complex; the stack is released."""
        n, K = self.n, self.K
        half = _read_half(self.stack, 0, K) if n == 1 else grid_to_window(self.stack, 1, K)
        self.stack = None
        before = (slice(None),) * (n - 1)
        out = np.empty((2 * K + 1,) * n + half.shape[n:], dtype=complex)
        out[before + (slice(K, None),)] = half
        mirror = np.flip(out, axis=tuple(range(n)))
        out[before + (slice(None, K),)] = np.conj(mirror[before + (slice(None, K),)])
        return out


def omega_derivative(values: np.ndarray, omega: np.ndarray, n: int,
                     rows: slice = slice(None)) -> np.ndarray:
    """omega . d_theta of grid values of shape (G,)*n + tail, spectral per
    axis, on the grid rows ``rows`` of the first theta axis (all by default).
    The first axis couples every row: its derivative applies those rows of
    the derivative matrix to the whole of values."""
    D = spectral_derivative_matrix(values.shape[0])
    parts = [_along(D[rows], values, 0)] + [_along(D, values[rows], ax) for ax in range(1, n)]
    return sum(float(omega[ax]) * part for ax, part in enumerate(parts))


def eval_at_points(coeffs: np.ndarray, n: int, K: int, thetas: np.ndarray) -> np.ndarray:
    """Evaluate sum_k c_k e^{i k.theta} at arbitrary points, shape (P,) + tail.

    Only modes whose max-magnitude exceeds a relative floor participate, so the
    cost tracks the active band rather than the full window.
    """
    return eval_modes(*active_modes(coeffs, n, K), thetas)


def active_modes(coeffs: np.ndarray, n: int, K: int) -> tuple:
    """(mode vectors (A, n), coefficients (A,) + tail) of the window modes that
    eval_at_points sums, both read-only: those whose max magnitude exceeds a
    relative floor."""
    W = window_width(K)
    flat = coeffs.reshape((W**n,) + coeffs.shape[n:])
    mags = np.abs(flat).reshape(W**n, -1).max(axis=1)
    top = mags.max()
    active = np.nonzero(mags > 1e-300 + 1e-16 * top)[0]
    return _frozen(kgrid(n, K).reshape(W**n, n)[active]), _frozen(flat[active])


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


def reality_residual(coeffs: np.ndarray, n: int, K: int) -> float:
    rev = coeffs[(slice(None, None, -1),) * n]
    return float(np.max(np.abs(coeffs - np.conj(rev))))
