"""Truncated Hamiltonian data on the sine-mode lattice.

The wave field u = sum u_k sin(kx) with lam_k = k^2 turns the operator into a
lattice Hamiltonian whose quadratic coupling forms are built from the cosine
potential amplitudes v_j(theta) through the tensor c_jlk = integral of
cos(jx) sin(lx) sin(kx) over [-pi, pi]. All theta-dependence is carried as
coefficients on a hypercube Fourier window; a real form's, on its
k_last >= 0 half. A form is its real (q, p) matrix S from assembly on; its
u-form blocks (zz, zzbar, zbzb) are only the homological solve's view
(blocks_from_qp, qp_from_blocks) and the three-block norms' (block_norms).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fourier import RealGrid, half_index, kinf
from .potential import PotentialFourier

HALF_PI = np.pi / 2.0


class DimensionError(ValueError):
    """Incompatible truncation sizes between engine objects."""


# ---------------------------------------------------------------------------
# Coupling tensor


def coupling_tensor(J_max: int) -> np.ndarray:
    """Closed-form c_jlk for 1 <= j, l, k <= J_max, dense (J_max,)*3 at 0-based
    indices (j - 1, l - 1, k - 1), read-only: pi/2 when k = l +- j, -pi/2 when
    k = j - l, 0 otherwise (at most one case holds for each entry)."""
    if J_max < 1:
        raise ValueError("J_max must be >= 1")
    j, l, k = np.meshgrid(*[np.arange(1, J_max + 1)] * 3, indexing="ij")
    out = np.where((k == l + j) | (k == l - j), HALF_PI, np.where(k == j - l, -HALF_PI, 0.0))
    out.flags.writeable = False
    return out


# ---------------------------------------------------------------------------
# Spectral norms

# |A|_F >= |A|_2, but the rounded Frobenius norm of a rank-one matrix can fall
# a few ulp below the SVD's sigma_max; this factor covers both roundings
FROBENIUS_MARGIN = 1.0 + 1e-12
_SVD_FIRST = 16
# below this largest bound, squared entries may underflow and the Frobenius
# norm is no longer a bound within the margin
_FROBENIUS_FLOOR = 1e-100
# mu = best^2 (1 - CERTIFICATE_MARGIN) in the Cholesky certificate: best is
# at least the sigma_max of the matrix with the largest bound, so every A has
# |A|_F^2 <= d best^2, and the rounding of A^H A and of its factorization stays
# within a few d^2 * 1.1e-16 of best^2 (about 1e-12 at d = 64); a certified
# matrix, and its computed sigma_max, lie strictly below best
CERTIFICATE_MARGIN = 1e-8
_CERTIFY_CHUNK = 64  # matrices per certificate or SVD call
# above this largest bound, best^2 or an entry of A^H A may overflow
_CERTIFY_CEILING = 1e150


def _sigma_max(mats: np.ndarray) -> np.ndarray:
    return np.linalg.svd(mats, compute_uv=False).max(axis=-1)


def _certified_below(mats: np.ndarray, best: float) -> bool:
    """True when every matrix A of the (m, r, c) batch has sigma_max(A) < best:
    mu I - A^H A, mu = best^2 (1 - CERTIFICATE_MARGIN), has a Cholesky factor."""
    gram = np.matmul(np.swapaxes(-mats.conj(), -1, -2), mats)
    diag = np.arange(gram.shape[-1])
    gram[:, diag, diag] += best * best * (1.0 - CERTIFICATE_MARGIN)
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return False
    return True


def max_spectral_norm(mats: np.ndarray) -> float:
    """Largest spectral norm in a (..., r, c) batch. For a finite batch it
    equals np.max(np.linalg.norm(mats, ord=2, axis=(-2, -1))) bit for bit; a
    batch with a NaN entry gives NaN, and one with an infinite entry (but no
    NaN) inf, without an SVD, which would not converge on either.

    Each matrix's Frobenius norm bounds its spectral norm, so the SVD runs on
    the matrices with the largest bounds first. The others whose bound still
    reaches the maximum found so far, best, are taken in chunks by decreasing
    bound: a chunk that the Cholesky certificate puts strictly below best is
    skipped, any other goes through the SVD and may raise best.
    """
    mats = np.asarray(mats)
    flat = mats.reshape((-1,) + mats.shape[-2:])
    # an overflowing bound takes the full sweep; an infinite complex entry
    # makes its product with its conjugate invalid
    with np.errstate(over="ignore", invalid="ignore"):
        bound = np.linalg.norm(flat, axis=(-2, -1)) * FROBENIUS_MARGIN
    top = float(np.max(bound))
    if np.isnan(top) or (top == np.inf and np.isinf(flat).any()):
        return top  # the bound of a NaN entry is NaN, of an infinite one inf
    if not _FROBENIUS_FLOOR <= top < np.inf:  # zero, tiny or huge entries
        return float(np.max(np.linalg.norm(mats, ord=2, axis=(-2, -1))))
    order = np.argsort(bound)[::-1]
    best = _sigma_max(flat[order[:_SVD_FIRST]]).max()
    certify = top < _CERTIFY_CEILING
    rest = order[_SVD_FIRST:]
    for start in range(0, rest.size, _CERTIFY_CHUNK):
        chunk = rest[start:start + _CERTIFY_CHUNK]
        chunk = chunk[bound[chunk] >= best]
        if not chunk.size:
            break  # the bounds decrease: none after this chunk reaches best
        batch = flat[chunk]
        if not (certify and _certified_below(batch, best)):
            best = max(best, _sigma_max(batch).max())
    return float(best)


def metric_opnorm(mats: np.ndarray, d: np.ndarray) -> float:
    """Largest operator norm in a (..., r, r) batch for the metric diag(d):
    the spectral norm of diag(d) mat diag(d)^-1."""
    return max_spectral_norm(mats * (d[:, None] / d[None, :]))


# ---------------------------------------------------------------------------
# Weighted sequence space


@dataclass(frozen=True)
class WeightedSpace:
    """h_N with norm^2 = sum k^{2N} |z_k|^2 and rescaling weight J = diag(sqrt(k))."""

    N: int
    J_max: int

    def __post_init__(self):
        if self.N < 0 or self.J_max < 1:
            raise ValueError("need N >= 0 and J_max >= 1")

    @property
    def modes(self) -> np.ndarray:
        return np.arange(1, self.J_max + 1, dtype=float)

    @property
    def sqrt_weights(self) -> np.ndarray:
        return np.sqrt(self.modes)

    @property
    def metric_weights(self) -> np.ndarray:
        return self.modes**self.N

    @property
    def doubled_metric_weights(self) -> np.ndarray:
        """The metric weights on doubled coordinates, x = (q, p) or
        u = (z, zbar) = T x alike: diag(w, w) commutes with the unitary T."""
        w = self.metric_weights
        return np.concatenate([w, w])

    def state_norm(self, x: np.ndarray) -> np.ndarray:
        """Weighted norm of (q, p) states (..., 2J), one per state."""
        return np.sqrt(np.sum((self.doubled_metric_weights * x) ** 2, axis=-1))

    def state_opnorm(self, mats: np.ndarray) -> float:
        """Largest operator norm, for state_norm, in a (..., 2J, 2J) batch of
        linear maps or vector fields on (q, p) states."""
        return metric_opnorm(mats, self.doubled_metric_weights)

    def opnorm(self, mat: np.ndarray) -> float:
        """Operator norm h_N -> h_N of a (..., J, J) matrix (max over leading dims)."""
        return metric_opnorm(mat, self.metric_weights)

    def opnorm_weighted(self, mat: np.ndarray) -> float:
        """Operator norm h_N -> h_N of J * mat * J."""
        s = self.sqrt_weights
        return self.opnorm(mat * (s[:, None] * s[None, :]))


# ---------------------------------------------------------------------------
# The u-form blocks of a (q, p) form: the solve's and the norms' view


def qp_from_blocks(zz: np.ndarray, zzbar: np.ndarray, zbzb: np.ndarray) -> np.ndarray:
    """(q, p) form T^T Q T of the u-form Q = [[zz, zzbar^T/2], [zzbar/2, zbzb]],
    T = [[I, -iI], [I, iI]] / sqrt(2), written out by blocks; works on window
    coefficients as on values."""
    J = zz.shape[-1]
    zzbar_t = np.swapaxes(zzbar, -1, -2)
    mean = 0.5 * (zz + zbzb)
    diff = 0.5j * (zbzb - zz)
    sym = 0.25 * (zzbar + zzbar_t)
    skew = 0.25j * (zzbar - zzbar_t)
    S = np.empty(zz.shape[:-2] + (2 * J, 2 * J), dtype=complex)
    S[..., :J, :J] = mean + sym
    S[..., :J, J:] = diff - skew
    S[..., J:, :J] = diff + skew
    S[..., J:, J:] = sym - mean
    return S


def _uform_parts(S: np.ndarray) -> tuple:
    """(real, imag, zzbar) of the u-form conj(T) S T^H, whose zz and zbzb
    blocks are real + imag and real - imag (symmetrized)."""
    J = S.shape[-1] // 2
    qq, qp, pq, pp = S[..., :J, :J], S[..., :J, J:], S[..., J:, :J], S[..., J:, J:]
    real = 0.5 * (qq - pp)
    imag = 0.5 * (qp + pq)
    real = 0.5 * (real + np.swapaxes(real, -1, -2))
    imag = 0.5j * (imag + np.swapaxes(imag, -1, -2))
    trace = qq + pp
    cross = 1j * (qp - pq)
    zzbar = 0.5 * (trace + np.swapaxes(trace, -1, -2) + cross - np.swapaxes(cross, -1, -2))
    return real, imag, zzbar


def blocks_from_qp(S: np.ndarray) -> tuple:
    """(zz, zzbar, zbzb) of the u-form conj(T) S T^H, the inverse of
    qp_from_blocks (zz and zbzb symmetrized)."""
    real, imag, zzbar = _uform_parts(S)
    return real + imag, zzbar, real - imag


def block_norms(S: np.ndarray, norm) -> tuple:
    """norm of each u-form block (zz, zzbar, zbzb) of the real (q, p) form
    values S: the one way the three-block norms read a form. On real values
    zbzb = conj(zz) exactly, so zz's norm is reported for both, and zbzb is
    not built."""
    if np.iscomplexobj(S):
        raise TypeError("block_norms reads real (q, p) values")
    real, imag, zzbar = _uform_parts(S)
    zz_norm = norm(real + imag)
    return zz_norm, norm(zzbar), zz_norm


# ---------------------------------------------------------------------------
# Quadratic forms


def grid_points(G: int, K: int) -> int:
    """Points per theta axis of the grid values asked on G points of a form on
    the |k|_inf <= K window: at least the window size."""
    return max(G, 2 * K + 1)


@dataclass(frozen=True)
class QuadraticForm:
    """A real quadratic Hamiltonian piece H(theta) = <S(theta) x, x> in the
    real coordinates x = (q, p), S(theta) real symmetric (2J, 2J).

    coeffs holds S's window Fourier coefficients on the k_last >= 0 half
    (fourier's real-field convention), complex, shape
    (2K+1,)*(n-1) + (K+1, 2J, 2J). Its u-form blocks are those of
    <zz z, z> + <zzbar z, zbar> + <zbzb zbar, zbar> in z = (q - i p)/sqrt(2).

    norms is form_norm's memo, keyed by (weighted space, grid points); while
    it holds a value, coeffs is read-only. The form is frozen, so coeffs is
    never rebound and the memo cannot go stale.
    """

    n: int
    K: int
    J: int
    coeffs: np.ndarray
    norms: dict = field(default_factory=dict, repr=False, compare=False)

    @classmethod
    def zeros(cls, n: int, K: int, J: int) -> "QuadraticForm":
        return cls(n, K, J, np.zeros((2 * K + 1,) * (n - 1) + (K + 1, 2 * J, 2 * J), complex))

    def __add__(self, other: "QuadraticForm") -> "QuadraticForm":
        self._check_compatible(other)
        return QuadraticForm(self.n, self.K, self.J, self.coeffs + other.coeffs)

    def __sub__(self, other: "QuadraticForm") -> "QuadraticForm":
        self._check_compatible(other)
        return QuadraticForm(self.n, self.K, self.J, self.coeffs - other.coeffs)

    def scaled(self, c: float) -> "QuadraticForm":
        return QuadraticForm(self.n, self.K, self.J, c * self.coeffs)

    def _check_compatible(self, other: "QuadraticForm"):
        if (self.n, self.K, self.J) != (other.n, other.K, other.J):
            raise DimensionError("quadratic forms have mismatched truncations")

    def truncate(self, K_cut: int) -> tuple["QuadraticForm", "QuadraticForm"]:
        """Split into (modes |k|_inf <= K_cut, modes |k|_inf > K_cut); exact."""
        if K_cut < 0:
            raise ValueError("K_cut must be >= 0")
        rings = kinf(self.n, self.K)[half_index(self.n, self.K)]
        low_mask = (rings <= K_cut)[..., None, None]
        return tuple(QuadraticForm(self.n, self.K, self.J, part)
                     for part in (np.where(low_mask, self.coeffs, 0.0),
                                  np.where(low_mask, 0.0, self.coeffs)))

    def grid_values(self, G: int) -> np.ndarray:
        """Real values of S on the flat uniform theta grid of at least window
        size, float64 (G^n, 2J, 2J)."""
        values = RealGrid(self.coeffs, self.n, self.K, grid_points(G, self.K)).rows()
        return values.reshape(-1, 2 * self.J, 2 * self.J)


# ---------------------------------------------------------------------------
# Assembly and norms


def assemble_initial_forms(
    pf: PotentialFourier, ct: np.ndarray, ws: WeightedSpace
) -> QuadraticForm:
    """Coupling form of the rescaled lattice Hamiltonian.

    The potential couples positions only: with
    M(theta)_{il} = sum_j c_jli v_j(theta) / (sqrt(i) sqrt(l)), the (q, p)
    form is S = [[M, 0], [0, 0]], written from v_hat's k_last >= 0 half.
    M(theta) is symmetric because c_jlk is symmetric in l and k, and real
    because v_hat(-k) = conj(v_hat(k)), which fourier_analyze makes exact.
    """
    J = ws.J_max
    if pf.J_max < J:
        raise DimensionError("potential holds fewer x-modes than the weighted space")
    if ct.shape[0] < J:
        raise DimensionError("coupling tensor smaller than the weighted space")
    C = ct[: pf.J_max, :J, :J]  # (j, l, k=row index i)
    M = np.einsum("...j,jli->...il", pf.v_hat[half_index(pf.n, pf.K_theta)], C)
    s = ws.sqrt_weights
    qf = QuadraticForm.zeros(pf.n, pf.K_theta, J)
    qf.coeffs[..., :J, :J] = M / (s[:, None] * s[None, :])
    return qf


def form_norm(qf: QuadraticForm, ws: WeightedSpace, G: int) -> float:
    """Grid maximum over theta of the h_N -> h_N norm of J * block(theta) * J,
    over the three u-form blocks, on a uniform grid of at least window size.
    A zero form has norm 0.0 on any grid, so none is built. Any other value
    is kept in qf.norms, read again for the same space and grid points, and
    coeffs turns read-only, so that no write can leave it stale. A NaN block
    norm gives NaN."""
    if not qf.coeffs.any():
        return 0.0
    key = (ws, grid_points(G, qf.K))
    if key not in qf.norms:
        qf.norms[key] = float(np.max(block_norms(qf.grid_values(G), ws.opnorm_weighted)))
        qf.coeffs.flags.writeable = False
    return qf.norms[key]
