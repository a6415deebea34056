"""Iterative reduction of the lattice Hamiltonian to constant coefficients.

A quadratic Hamiltonian piece is carried as a QuadraticForm: the window
coefficients, on the k_last >= 0 half, of its real symmetric form S in the
real coordinates x = (q, p), H = <S x, x>. The doubled coordinates
u = (z, zbar) = T x, T = [[I, -iI], [I, iI]] / sqrt(2) (z = (q - i p)/sqrt(2)),
give the u-form Q = conj(T) S T^H, whose blocks
<A z, z> + <B z, zbar> + <C zbar, zbar> (Q = [[A, B^T/2], [B/2, C]]) are
used only where the homological divisors are diagonal: the solve, its
residual and the three-block norms. The solve's divisors, thresholds and
masks live on the k_last >= 0 half it divides, which holds every divisor of
the whole window. Brackets, flows, series and norms on
the grid work on float64 arrays, and each step's change of variables is
stored the same way as a piece: the half-window coefficients of Phi - I.
The transform chain composes these real maps, and verify reads them in
(q, p) as they are.

Conventions (fixed once, verified by the recomposition oracle):
  * flow of a Hamiltonian G:  dx/dt = 2 * JR * S_G * x, where
    JR = [[0, I], [-I, 0]] = T^H JSYM conj(T) and JSYM = [[0, +iI], [-iI, 0]]
    is the u-coordinate symplectic form,
  * Poisson bracket {G, H} = dG(X_H) has (q, p) form
    2 * (S_G JR S_H - S_H JR S_G),
  * each step's change of variables is the time-1 flow of eps_m * F at frozen
    angle, applied pointwise in theta; recomposition uses the transport rule
    L+ = Phi^-1 (L Phi - omega . d_theta Phi).
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import resonance
from .fourier import (
    RealGrid,
    RealWindow,
    half_index,
    kdot,
    kinf,
    omega_derivative,
    product_grid_size,
    project_window_grid,
    real_at_points,
    spectral_derivative_matrix,
    theta_grid_points,
)
from .galerkin import (
    QuadraticForm,
    WeightedSpace,
    block_norms,
    blocks_from_qp,
    form_norm,
    qp_from_blocks,
)
from .potential import FrequencySpec


class InvalidParameterError(ValueError):
    pass


class ResonanceError(RuntimeError):
    """A small divisor fell below its admissibility threshold."""

    def __init__(self, kind, k, i, j, divisor, threshold):
        self.kind, self.k, self.i, self.j = kind, tuple(int(x) for x in k), int(i), int(j)
        self.divisor, self.threshold = float(divisor), float(threshold)
        super().__init__(
            f"near-resonance in {kind} block at k={self.k}, (i,j)=({self.i},{self.j}): "
            f"|divisor|={abs(divisor):.3e} < threshold {threshold:.3e}"
        )


class StepSizeError(RuntimeError):
    """A flow or remainder series failed to contract; reduce eps."""


class SelfAdjointnessError(ValueError):
    """Diagonal correction came out non-real."""


class CertificateError(RuntimeError):
    """A step's certificate exceeded its tolerance."""


# ---------------------------------------------------------------------------
# Schedules


@dataclass
class Schedule:
    """Per-step sizes: eps_v = eps^{(4/3)^v}, strips s_v = eps_{v+1}^{1/N}
    (clamped to s_0 <= 1/2 with proportional rescale), cutoffs
    K_v = 100 s_v^{-1} 2^v |log eps|, gamma_v = gamma / 2^v."""

    eps0: float
    N: int
    gamma: float
    n: int
    M: int
    eps: np.ndarray
    strip: np.ndarray
    strip_raw: np.ndarray
    cutoff: np.ndarray
    gamma_steps: np.ndarray
    clamped: bool

    @property
    def degenerate(self) -> bool:
        return self.eps0 == 0.0

    def eps_at(self, level: int) -> float:
        """Level weight eps_l = eps0^((4/3)^l), at any level (0 if degenerate);
        equal to eps[l] bit for bit."""
        if self.degenerate:
            return 0.0
        return float(np.exp(_log_level_weight(self.eps0, level)))

    def K_eff(self, m: int, K_theta: int) -> int:
        """Step m's mode cutoff, capped at the theta window (the whole window
        for a degenerate schedule)."""
        if self.degenerate:
            return K_theta
        return int(min(math.ceil(self.cutoff[m]), K_theta))

    def as_dict(self) -> dict:
        return {
            "eps0": self.eps0, "N": self.N, "gamma": self.gamma, "n": self.n,
            "M": self.M, "eps": self.eps.tolist(), "strip": self.strip.tolist(),
            "strip_raw": self.strip_raw.tolist(), "cutoff": self.cutoff.tolist(),
            "gamma_steps": self.gamma_steps.tolist(), "clamped": self.clamped,
        }

    @classmethod
    def degenerate_schedule(cls, n: int, N: int, gamma: float) -> "Schedule":
        z = np.zeros(1)
        return cls(0.0, N, gamma, n, 0, z, z.copy(), z.copy(), z.copy(), np.array([gamma]),
                   False)


def _log_level_weight(eps0: float, level: int) -> float:
    """log eps_l = (4/3)^l log eps0, the one formula of the level weights (in
    scalar arithmetic: numpy's array power can differ by an ulp)."""
    return (4.0 / 3.0) ** level * math.log(eps0)


def build_schedule(eps0: float, N: int, gamma: float, n: int, M: int) -> Schedule:
    """All lists are computed in log space; length M+1 (indices 0..M)."""
    if not (0.0 < eps0 < 1.0):
        raise InvalidParameterError("eps0 must lie in (0, 1)")
    if M < 1 or N < 2:
        raise InvalidParameterError("need M >= 1 and N >= 2")
    log_eps = np.array([_log_level_weight(eps0, v) for v in range(M + 2)])  # indices 0..M+1
    eps = np.array([float(np.exp(x)) for x in log_eps])  # as in eps_at
    strip_raw = np.exp(log_eps[1 : M + 2] / N)  # s_v, v = 0..M
    clamped = bool(strip_raw[0] > 0.5)
    strip = strip_raw * (0.5 / strip_raw[0]) if clamped else strip_raw.copy()
    cutoff = 100.0 / strip * 2.0 ** np.arange(M + 1) * abs(math.log(eps0))
    gamma_steps = gamma / 2.0 ** np.arange(M + 1)
    return Schedule(
        eps0=eps0, N=N, gamma=gamma, n=n, M=M,
        eps=eps[: M + 1],
        strip=strip, strip_raw=strip_raw, cutoff=cutoff,
        gamma_steps=gamma_steps, clamped=clamped,
    )


# ---------------------------------------------------------------------------
# Normal form


@dataclass
class NormalForm:
    """Frequencies lam_j = j + sum_i eps_i mu_j^(i), rebuilt from history."""

    J: int
    mu_history: list = field(default_factory=list)  # [(eps_i, mu_i array)]

    @property
    def base(self) -> np.ndarray:
        return np.arange(1, self.J + 1, dtype=float)

    def lambdas(self) -> np.ndarray:
        lam = self.base.copy()
        for eps_i, mu_i in self.mu_history:
            lam = lam + eps_i * mu_i
        return lam

    def mu_decay_constants(self) -> list:
        """max_j j * |mu_j| per recorded step."""
        j = self.base
        return [float(np.max(j * np.abs(mu))) for _, mu in self.mu_history]

    def copy(self) -> "NormalForm":
        return NormalForm(self.J, [(e, m.copy()) for e, m in self.mu_history])


MU_IMAG_TOL = 1e-12  # update_normal_form's bound on the average's imaginary part


def update_normal_form(nf: NormalForm, diag_avg: np.ndarray, eps_m: float) -> NormalForm:
    diag_avg = np.asarray(diag_avg)
    if diag_avg.shape != (nf.J,):
        raise InvalidParameterError("diagonal average has wrong length")
    imag = float(np.max(np.abs(diag_avg.imag))) if np.iscomplexobj(diag_avg) else 0.0
    if imag > MU_IMAG_TOL:
        raise SelfAdjointnessError(
            f"diagonal average has imaginary part {imag:.3e} > {MU_IMAG_TOL:.1e}"
        )
    out = nf.copy()
    out.mu_history.append((float(eps_m), np.real(diag_avg).astype(float)))
    return out


# ---------------------------------------------------------------------------
# Slabs: the pointwise layer runs over slabs of the theta grid

SLAB_POINTS = 50  # grid points per slab


def _slabs(G: int, n: int) -> list:
    """(rows, points) of each slab of the flat G^n grid: a range of rows of
    the first theta axis and the matching range of flat grid points, about
    SLAB_POINTS points (at least one row)."""
    row = G ** (n - 1)
    step = max(1, round(SLAB_POINTS / row))
    return [(slice(r0, min(r0 + step, G)), slice(r0 * row, min(r0 + step, G) * row))
            for r0 in range(0, G, step)]


def _max_of(values) -> float:
    """The largest of the values, NaN if any is NaN: the fold of every
    certificate over its blocks or slabs. (Python's max keeps its running
    value when a later one is NaN.)"""
    return float(np.max(values))


# ---------------------------------------------------------------------------
# The (q, p) grid layer

@functools.lru_cache(maxsize=None)
def jr_matrix(J: int) -> np.ndarray:
    """JR = [[0, I], [-I, 0]]; read-only."""
    JR = np.zeros((2 * J, 2 * J))
    JR[:J, J:] = np.eye(J)
    JR[J:, :J] = -np.eye(J)
    JR.flags.writeable = False
    return JR


def jr_mul(S: np.ndarray) -> np.ndarray:
    """JR @ S for (..., 2J, 2J) arrays, by block rows."""
    J = S.shape[-2] // 2
    out = np.empty_like(S)
    out[..., :J, :] = S[..., J:, :]
    out[..., J:, :] = -S[..., :J, :]
    return out


def qp_rows(source: RealGrid, rows: slice) -> np.ndarray:
    """Real (q, p) form values, flat (points, 2J, 2J), on the grid rows
    ``rows`` of the first theta axis, from the RealGrid of a form's
    coefficients (built once per form, then read slab by slab)."""
    values = source.rows(rows)
    return values.reshape((-1,) + values.shape[-2:])


def bracket_sym(QA: np.ndarray, JS_QB: np.ndarray) -> np.ndarray:
    """(q, p) form of the Poisson bracket of symmetric QA, QB, given
    JS_QB = jr_mul(QB).

    The bracket is 2 (QA JR QB - QB JR QA). For symmetric operands
    QB JR QA = -(QA JR QB)^T, so one product suffices: bracket = 2 (P + P^T)
    with P = QA @ JS_QB.
    """
    P = QA @ JS_QB
    out = P + np.swapaxes(P, -1, -2)
    out *= 2.0
    return out


def generator_of(S: np.ndarray) -> np.ndarray:
    """Linear vector field x' = L x generated by <S x, x>."""
    return 2.0 * jr_mul(S)


def _center(n: int, K: int) -> tuple:
    """Index of the mode k = 0 in half-window coefficients."""
    return (K,) * (n - 1) + (0,)


def hamiltonian_window(lam: np.ndarray, pieces: list, weights: list) -> np.ndarray:
    """Half-window coefficients of the (q, p) form of lam + sum_l w_l p_l:
    the pieces are summed as coefficients, and the normal form
    sum_j lam_j |z_j|^2, whose (q, p) form is diag(lam, lam) / 2, is added
    at k = 0."""
    total = pieces[0].scaled(weights[0])
    for w, piece in zip(weights[1:], pieces[1:]):
        total = total + piece.scaled(w)
    hat = total.coeffs
    dim = 2 * total.J
    hat[_center(total.n, total.K)][np.arange(dim), np.arange(dim)] += \
        0.5 * np.concatenate([lam, lam])
    return hat


def _grid_size(S: np.ndarray, w2: np.ndarray) -> float:
    """Grid maximum of the weighted Frobenius norm of real (q, p) arrays,
    |diag(w2) S diag(w2)^-1|_F, over every grid point; for series stopping."""
    ratio2 = ((w2[:, None] / w2[None, :]) ** 2).ravel()
    return float(np.sqrt(np.max(np.square(S).reshape(S.shape[0], -1) @ ratio2)))


# ---------------------------------------------------------------------------
# Homological solve


@dataclass
class HomologicalSolution:
    F: QuadraticForm
    diag_avg: np.ndarray
    divisor_min: float
    residual: float  # homological_residual of the division


def _divisor_arrays(nf_lam: np.ndarray, omega: np.ndarray, n: int, K: int):
    """The zz, zzbar and zbzb divisors on the k_last >= 0 half."""
    kw = kdot(omega, n, K)[half_index(n, K)][..., None, None]
    lam_i = nf_lam[:, None]
    lam_j = nf_lam[None, :]
    div_zz = kw + (lam_i + lam_j)
    div_zbzb = kw - (lam_i + lam_j)
    div_zzbar = kw - (lam_i - lam_j)
    return div_zz, div_zzbar, div_zbzb


def _remainder_blocks(remainder_mm: QuadraticForm, K_m: int) -> tuple:
    """u-form blocks of R_mm's |k|_inf <= K_m part on the half, with their
    averaged zzbar diagonal removed, and that average."""
    qf = remainder_mm
    low, _ = qf.truncate(min(K_m, qf.K))
    zz, zzbar, zbzb = blocks_from_qp(low.coeffs)
    center = zzbar[_center(qf.n, qf.K)]
    diag = center[np.arange(qf.J), np.arange(qf.J)]  # a copy
    center[np.arange(qf.J), np.arange(qf.J)] -= diag
    return (zz, zzbar, zbzb), diag


def solve_homological(
    remainder_mm: QuadraticForm,
    nf: NormalForm,
    omega: np.ndarray,
    K_m: int,
    gamma_m: float,
) -> HomologicalSolution:
    """Solve the step's homological equations on the |k| <= K_m window.

    Fourier-coefficient division F_hat = -i R_hat / divisor of R_mm's u-form
    blocks on the half, with divisors <k,w> + lam_i + lam_j (zz),
    <k,w> - lam_i - lam_j (zbzb) and <k,w> - lam_i + lam_j (zzbar); the
    averaged zzbar diagonal is removed and returned for the normal-form
    update, and F is returned as a form with the homological_residual of
    the division. This is each step's small-divisor gate: every divisor is
    checked against resonance.divisor_threshold first; ResonanceError names
    the worst divisor of the first block that fails. The half's three kinds
    hold every divisor of the whole window (zz at -k is -zbzb at k, zzbar at
    -k is -zzbar^T at k, at the same thresholds), so the gate and
    divisor_min are the whole window's.
    """
    qf = remainder_mm
    n, K, J = qf.n, qf.K, qf.J
    lam = nf.lambdas()
    divisors = _divisor_arrays(lam, np.asarray(omega, float), n, K)

    rings = kinf(n, K)[half_index(n, K)][..., None, None]
    in_support = rings <= K_m
    i_idx = np.arange(1, J + 1)
    gap = np.abs(i_idx[:, None] - i_idx[None, :]).astype(float)
    thresholds = resonance.divisor_threshold(gap, rings, gamma_m, n)

    diag_sel = (np.arange(J), np.arange(J))
    center = _center(n, K)

    divisor_min = np.inf
    for kind, div in zip(("zz", "zzbar", "zbzb"), divisors):
        checked = np.abs(div) - thresholds
        mask = np.broadcast_to(in_support, checked.shape).copy()
        if kind == "zzbar":
            mask[center][diag_sel] = False  # k = 0 diagonal handled separately
        if np.any((checked < 0) & mask):
            flat = np.argmin(np.where(mask, checked, np.inf))
            idx = np.unravel_index(flat, checked.shape)
            kvec = tuple(int(a) - c for a, c in zip(idx[:n], center))
            raise ResonanceError(kind, kvec, idx[-2] + 1, idx[-1] + 1,
                                 div[idx], thresholds[idx])
        divisor_min = min(divisor_min, float(np.min(np.abs(div)[mask])))

    R, diag_avg = _remainder_blocks(qf, K_m)
    div_zz, div_zzbar, div_zbzb = divisors
    safe = div_zzbar.copy()
    safe[center][diag_sel] = 1.0  # excluded entry, numerator already zero
    blocks = tuple(-1j * r / div for r, div in zip(R, (div_zz, safe, div_zbzb)))
    residual = homological_residual(blocks, R, divisors)

    F = QuadraticForm(n, K, J, qp_from_blocks(*blocks))
    return HomologicalSolution(F=F, diag_avg=diag_avg, divisor_min=divisor_min,
                               residual=residual)


def homological_residual(blocks: tuple, R: tuple, half_divisors: tuple) -> float:
    """Relative plug-back residual of the component equations on the half:
    i divisor F_hat against R_hat, block by block, each block with its own
    divisor, for the u-form blocks as the solve divided them. (The form F
    carries them to roundoff relative to its largest entry; read back from
    it, a small divisor would amplify that roundoff in the other blocks of
    its mode.)"""
    num = _max_of([np.max(np.abs(1j * div * f - r))
                   for f, r, div in zip(blocks, R, half_divisors)])
    den = _max_of([np.max(np.abs(r)) for r in R])
    return num / den if den > 0 else num


# ---------------------------------------------------------------------------
# Flow transform


_PICARD_MAX_TERMS = 80
SYMPLECTIC_TOL = 1e-12  # bound on each step's symplectic_defect, enforced by KamEngine.step
PLUGBACK_TOL = 1e-12  # bound on each step's homological_residual, enforced by KamEngine.step


@dataclass
class FlowResult:
    grid: int
    B: np.ndarray            # (G^n, 2J, 2J) real (q, p) flow generator, x' = eps B x
    Phi: np.ndarray          # (G^n, 2J, 2J) real (q, p) map on the flat theta grid
    P_hat: np.ndarray        # half-window coefficients of Phi - id, (q, p) as Phi
    n: int
    K: int
    J: int
    P_norm: float
    symplectic_defect: float
    picard_terms: int


def flow_transform(
    F: QuadraticForm,
    eps_m: float,
    ws: WeightedSpace,
    grid: int,
    picard_tol: float = 1e-12,
) -> FlowResult:
    """Time-1 map of the step generator F (the homological solution's form)
    at frozen angle, per theta grid point.

    Picard iteration on U(t) = I + eps * B(theta) * integral U; with the
    generator frozen the iterates are the exponential partial sums, and the
    stopping rule compares successive iterates in the weighted norm.
    """
    n, K, J = F.n, F.K, F.J
    B = generator_of(F.grid_values(grid))
    w2 = ws.doubled_metric_weights

    gen_norm = ws.state_opnorm(B)
    if eps_m * gen_norm >= 0.5:
        raise StepSizeError(
            f"flow generator too large: eps*|B| = {eps_m * gen_norm:.3e} >= 0.5"
        )

    npts = B.shape[0]
    eye = np.broadcast_to(np.eye(2 * J), (npts, 2 * J, 2 * J))
    U = eye.copy()
    term, spare = eye.copy(), np.empty_like(U)  # each term is written over the one before last
    terms_used = 0
    for j in range(1, _PICARD_MAX_TERMS + 1):
        term, spare = np.matmul(B, term, out=spare), term
        term *= eps_m / j
        U += term
        terms_used = j
        if _grid_size(term, w2) <= picard_tol * max(_grid_size(U, w2), 1.0):
            break
    else:
        raise StepSizeError("Picard iteration did not converge; reduce eps")
    del term, spare

    P = U - eye
    P_hat = RealWindow(n, K, grid).put(P.reshape((grid,) * n + (2 * J, 2 * J))).coefficients()
    P_norm = ws.state_opnorm(P)

    JR = jr_matrix(J)
    defect = _max_of([np.max(np.abs(np.matmul(U[pts].transpose(0, 2, 1), jr_mul(U[pts])) - JR))
                     for _, pts in _slabs(grid, n)])

    return FlowResult(grid=grid, B=B, Phi=U, P_hat=P_hat, n=n, K=K, J=J,
                      P_norm=P_norm, symplectic_defect=defect,
                      picard_terms=terms_used)


# ---------------------------------------------------------------------------
# Transform chain


@dataclass
class TransformChain:
    """Each step's P_hat: the half-window coefficients of the real (q, p) map
    Phi - id, shape (2K+1,)*(n-1) + (K+1, 2J, 2J)."""

    steps: list = field(default_factory=list)

    def append(self, flow: FlowResult):
        self.steps.append(flow.P_hat)

    def matrices_at(self, thetas: np.ndarray) -> np.ndarray:
        """Composed real (q, p) map Phi_0 Phi_1 ... Phi_{M-1} at each theta,
        float64 (P, 2J, 2J)."""
        thetas = np.atleast_2d(thetas)
        if not self.steps:
            raise ValueError("empty chain")
        dim = self.steps[0].shape[-1]
        out = np.broadcast_to(np.eye(dim), (thetas.shape[0], dim, dim)).copy()
        for P_hat in self.steps:
            n = P_hat.ndim - 2
            out = out @ (np.eye(dim) + real_at_points(P_hat, n, P_hat.shape[n - 1] - 1, thetas))
        return out

    def measure_composed_norm(self, ws: WeightedSpace, grid: int = 12) -> float:
        if not self.steps:
            return 0.0
        pts = theta_grid_points(self.steps[0].ndim - 2, grid)
        mats = self.matrices_at(pts)
        return ws.state_opnorm(mats - np.eye(mats.shape[-1]))


# ---------------------------------------------------------------------------
# Remainder push


_FACT = [math.factorial(i) for i in range(80)]
_SERIES_RTOL = 1e-13
_SERIES_MAX_TERMS = 60


def _lie_series(T0: np.ndarray, JS_S: np.ndarray, eps: float, coeff_offset: int,
                w2: np.ndarray):
    """sum_j ad^j(T0) * eps^j / (j + coeff_offset)! for symmetric operands.

    Iterates on grid values without intermediate window projection (the
    beyond-window content of the decayed operands is far below the series
    floor); the caller projects the accumulated stream once. The stopping
    rule reads every grid point of T0, relative to T0's own size.
    Returns (accumulated grid array, per-term sizes).
    """
    term = T0
    acc = term / _FACT[coeff_offset]
    sizes = [_grid_size(term, w2) / _FACT[coeff_offset]]
    for j in range(1, _SERIES_MAX_TERMS):
        term = bracket_sym(term, JS_S)
        term *= eps
        coeff = 1.0 / _FACT[j + coeff_offset]
        size = _grid_size(term, w2) * coeff
        acc += coeff * term
        sizes.append(size)
        if size <= _SERIES_RTOL * max(sizes[0], 1e-300):
            return acc, sizes
        if j >= 3 and sizes[-1] > sizes[-2] > sizes[-3]:
            raise StepSizeError("remainder series is not decaying; reduce eps")
    raise StepSizeError("remainder series did not converge within the term cap")


def _streamed_series(streams: dict, B: np.ndarray, eps: float, n: int, K: int, G: int,
                     w2: np.ndarray, series_terms: dict) -> np.ndarray:
    """Half-window coefficients, (2K+1,)*(n-1) + (K+1, 2J, 2J), of the summed
    Lie series of ``streams``, each run whole on one slab at a time. streams
    maps a name to (RealGrid of a form's coefficients, coeff_offset); the
    grid seed is the bracket of the form's values with the step generator
    S_F. B = 2 JR S_F is the flow generator on the flat grid, so the bracket
    operand jr_mul(S_F) is B / 2; the factor 1/2 rides on the seed and on eps
    instead (a power of two, so every term is bit for bit the one with B / 2).
    Each slab's seeds are its rows of the stream's RealGrid, and its summed
    series is filed into one RealWindow, read once at the end: no grid array
    but B spans more than a slab; term sizes go to series_terms["name[slab]"].
    """
    dim = B.shape[-1]
    window = RealWindow(n, K, G)
    for i, (rows, pts) in enumerate(_slabs(G, n)):
        B_s = B[pts]
        total = None
        for name, (source, offset) in streams.items():
            seed = bracket_sym(qp_rows(source, rows), B_s)
            seed *= 0.5
            acc, series_terms[f"{name}[{i}]"] = _lie_series(seed, B_s, 0.5 * eps, offset, w2)
            if total is None:
                total = acc
            else:
                total += acc
        window.put(total.reshape((-1,) + (G,) * (n - 1) + (dim, dim)), rows)
    return window.coefficients()


def _carried(piece: QuadraticForm, Phi: np.ndarray, G: int) -> np.ndarray:
    """Half-window coefficients of Phi^T S Phi, the piece S carried by the
    step's time-1 map Phi (flat (G^n, 2J, 2J)), formed slab by slab from the
    rows of the piece's RealGrid and filed into one RealWindow."""
    n, K, dim = piece.n, piece.K, Phi.shape[-1]
    source = RealGrid(piece.coeffs, n, K, G)
    window = RealWindow(n, K, G)
    for rows, pts in _slabs(G, n):
        P = Phi[pts]
        moved = np.swapaxes(P, -1, -2) @ qp_rows(source, rows) @ P
        window.put(moved.reshape((-1,) + (G,) * (n - 1) + (dim, dim)), rows)
    return window.coefficients()


PUSH_NORM_GRID = 8  # the grid of the push's piece and tail norms


@dataclass
class PushDiagnostics:
    series_terms: dict
    tail_norm: float
    spec_truncation_ok: bool
    new_piece_norms: list


def push_remainder(
    pieces: list,
    K_m: int,
    diag_avg: np.ndarray,
    flow: FlowResult,
    eps_m: float,
    eps_next: float,
    ws: WeightedSpace,
    grid: int,
) -> tuple:
    """Assemble the next remainder family from the four step contributions:
    the high-frequency tail, the double-bracket stream seeded by
    diag(mu) - Gamma R, the single-bracket stream seeded by R_mm, and the
    higher pieces carried by the step's own map, Phi^T S Phi (_carried), with
    no series. Of the homological solution it reads the cutoff K_m and the
    averaged diagonal diag_avg only. The two bracket streams run slab by slab
    (_streamed_series), and series_terms holds the term sizes of each of
    their slabs. A zero piece is carried to zero without a grid.
    """
    R_mm = pieces[0]
    n, K, J = R_mm.n, R_mm.K, R_mm.J
    w2 = ws.doubled_metric_weights

    low, tail = R_mm.truncate(min(K_m, K))

    # seed of the double-bracket stream: diag(mu) - truncated R_mm; the
    # u-form diagonal mu <z, zbar> has the (q, p) form diag(mu, mu) / 2
    star = low.scaled(-1.0)
    star.coeffs[_center(n, K)][np.arange(2 * J), np.arange(2 * J)] += \
        0.5 * np.concatenate([diag_avg, diag_avg])
    del low

    series_terms = {}
    bc = _streamed_series({"double_bracket": (RealGrid(star.coeffs, n, K, grid), 2),
                           "single_bracket": (RealGrid(R_mm.coeffs, n, K, grid), 1)},
                          flow.B, eps_m, n, K, grid, w2, series_terms)
    del star

    new_pieces = [tail.scaled(eps_m / eps_next)]
    new_pieces[0].coeffs[...] += (eps_m**2 / eps_next) * bc
    del bc

    for idx, piece in enumerate(pieces[1:]):
        if piece.coeffs.any():
            moved = QuadraticForm(n, K, J, _carried(piece, flow.Phi, grid))
        else:
            moved = QuadraticForm.zeros(n, K, J)
        if idx == 0:
            new_pieces[0] = new_pieces[0] + moved
        else:
            new_pieces.append(moved)

    for i, piece in enumerate(new_pieces):  # made exactly symmetric
        new_pieces[i] = QuadraticForm(n, K, J,
                                      0.5 * (piece.coeffs + np.swapaxes(piece.coeffs, -1, -2)))

    # one decision over the last term of every slab of both bracket streams
    last_sizes = [s[-1] for s in series_terms.values() if s]
    spec_ok = all(s <= 1e-3 * eps_next for s in last_sizes)
    piece_norms = [form_norm(p, ws, PUSH_NORM_GRID) for p in new_pieces]
    diag = PushDiagnostics(series_terms=series_terms,
                           tail_norm=form_norm(tail, ws, PUSH_NORM_GRID),
                           spec_truncation_ok=bool(spec_ok), new_piece_norms=piece_norms)
    return new_pieces, diag


# ---------------------------------------------------------------------------
# Recomposition oracle


def recompose_generator(
    lam_old: np.ndarray,
    pieces_old: list,
    eps_weights_old: list,
    flow: FlowResult,
    omega: np.ndarray,
) -> np.ndarray:
    """Exact transported (q, p) form on the flat flow grid, (G^n, 2J, 2J),
    float64: S+ = -1/2 JR [ Phi^-1 (L Phi - omega . d_theta Phi) ].

    Independent of the series assembly; used to certify each step. Its term
    for a piece S is -1/2 JR Phi^-1 L Phi with L = 2 JR S, which equals the
    push's Phi^T S Phi only when Phi is symplectic: the symplectic_defect
    gate is what ties this oracle to the carried pieces. The first
    theta axis couples every row, so omega_0 d_theta0 (Phi - I) is taken once
    over the whole grid, straight into the result. Each slab then adds its
    other axes and solves into its own rows, which no other slab reads.
    """
    n, K, J, G = flow.n, flow.K, flow.J, flow.grid
    dim = 2 * J
    ham = RealGrid(hamiltonian_window(lam_old, pieces_old, eps_weights_old), n, K, G)
    # d_theta I = 0: differentiating Phi - I keeps the matmul's rounding relative
    # to |Phi - I| (D's row sums are zero only to ~1e-14)
    PmI = (flow.Phi - np.eye(dim)).reshape((G,) * n + (dim, dim))
    out = np.empty(flow.Phi.shape)
    np.matmul(spectral_derivative_matrix(G), PmI.reshape(G, -1), out=out.reshape(G, -1))
    out *= float(omega[0])
    dtheta0 = out.reshape(PmI.shape)
    for rows, pts in _slabs(G, n):
        Phi = flow.Phi[pts]
        dPhi = dtheta0[rows] + omega_derivative(PmI[rows], omega, n, first=1)
        rhs = generator_of(qp_rows(ham, rows)) @ Phi - dPhi.reshape(-1, dim, dim)
        out[pts] = -0.5 * jr_mul(np.linalg.solve(Phi, rhs))
    return out


def consistency_defect(
    lam_old: np.ndarray,
    pieces_old: list,
    eps_old: list,
    lam_new: np.ndarray,
    pieces_new: list,
    eps_new: list,
    flow: FlowResult,
    omega: np.ndarray,
) -> float:
    """Relative gap between the recomposed and the assembled new Hamiltonian,
    entrywise in (q, p) coordinates."""
    n, K, J, G = flow.n, flow.K, flow.J, flow.grid
    diff = recompose_generator(lam_old, pieces_old, eps_old, flow, omega)
    ham = RealGrid(hamiltonian_window(lam_new, pieces_new, eps_new), n, K, G)
    slabs = _slabs(G, n)
    scales = np.empty(len(slabs))
    for i, (rows, pts) in enumerate(slabs):
        Q_asm = qp_rows(ham, rows)
        diff[pts] -= Q_asm
        scales[i] = np.max(np.abs(Q_asm))
    del ham, Q_asm
    scale = _max_of(scales)

    # compare inside the coefficient window only (the assembly lives there),
    # projected in place
    diff = diff.reshape((G,) * n + (2 * J, 2 * J))
    diff = project_window_grid(diff, n, K, out=diff)
    diff = diff.reshape(-1, 2 * J, 2 * J)
    return _max_of([np.max(np.abs(diff[pts])) for _, pts in slabs]) / scale


# ---------------------------------------------------------------------------
# Iteration state and driver


@dataclass
class IterationState:
    m: int
    normal_form: NormalForm
    remainder: list
    diagnostics: list = field(default_factory=list)


@dataclass
class KamOptions:
    picard_tol: float = 1e-12
    residual_tol: float = 1e-10  # bound on each step's consistency_defect
    norm_grid: int = 12


@dataclass
class KamResult:
    normal_form: NormalForm
    chain: TransformChain
    history: list
    composed_norm: float
    final_weighted_size: float = 0.0   # eps_M * |R_MM| (next active piece)
    final_remainder_norm: float = 0.0  # sum_l eps_l * |R_{l,M}| over all pieces

    def contraction_exponents(self) -> list:
        """log(eps_{m+1} |R_{m+1}|) / log(eps_m |R_m|) for each completed step."""
        sizes = [rec["weighted_size"] for rec in self.history]
        if self.final_weighted_size > 0:
            sizes.append(self.final_weighted_size)
        return [float(np.log(b) / np.log(a)) for a, b in zip(sizes, sizes[1:])]


# the sub-stages of a step that KamEngine.step times, in seconds
STEP_TIMINGS = ("norms_s", "solve_s", "flow_s", "push_s", "oracle_s")

# the keys of a step record, in KamEngine.step's order
RECORD_KEYS = ("m", "eps_m", "eps_next", "gamma_m", "K_raw", "K_eff", "K_capped", "strip",
               "divisor_min", "homological_residual", "solution_norms", "mu_max_times_j",
               "P_norm", "P_bound", "symplectic_defect", "picard_terms", "active_norm",
               "weighted_size", "new_piece_norms", "tail_norm", "series_truncation_spec_ok",
               "consistency_defect")


class KamEngine:
    """Stepper owning one reduction run (single writer of its state).

    step_timings holds the last completed step's sub-stage wall times, keyed
    by STEP_TIMINGS: the active-piece norm, the homological solve with its
    residual, the flow, the push and the oracle. It is kept apart from the
    step record, so records and checkpoints stay bit-reproducible."""

    def __init__(
        self,
        pieces: list,
        freq: FrequencySpec,
        schedule: Schedule,
        ws: WeightedSpace,
        K_theta: int,
        options: KamOptions | None = None,
    ):
        self.opts = options or KamOptions()
        self.freq = freq
        self.schedule = schedule
        self.ws = ws
        self.K_theta = K_theta
        self.state = IterationState(m=0, normal_form=NormalForm(J=ws.J_max), remainder=pieces)
        self.chain = TransformChain()
        self.grid = product_grid_size(K_theta)
        self.step_timings: dict = {}

    @property
    def finished(self) -> bool:
        return self.state.m >= self.schedule.M or self.schedule.degenerate

    def step(self, consistency: float | None = None) -> dict:
        """Run step m and return its record (keys RECORD_KEYS). A resume
        re-runs a stored step with its recorded consistency, which the step
        gates in place of running the oracle."""
        if self.finished:
            raise RuntimeError("iteration already finished")
        st = self.state
        m = st.m
        sched = self.schedule
        eps_m = sched.eps_at(m)
        eps_next = sched.eps_at(m + 1)
        gamma_m = float(sched.gamma_steps[m])
        K_raw = float(sched.cutoff[m])
        K_eff = sched.K_eff(m, self.K_theta)
        omega = self.freq.omega

        clock = [time.perf_counter()]
        R_mm = st.remainder[0]
        active_norm = form_norm(R_mm, self.ws, self.opts.norm_grid)
        clock.append(time.perf_counter())

        # the small-divisor gate: a ResonanceError leaves the state untouched
        sol = solve_homological(R_mm, st.normal_form, omega, K_eff, gamma_m)
        if not sol.residual <= PLUGBACK_TOL:  # NaN fails too, before any SVD of F
            raise CertificateError(
                f"homological_residual {sol.residual:.3e} > {PLUGBACK_TOL:.1e}")
        solution_norms = dict(zip(("zz", "zzbar", "zbzb"), block_norms(
            sol.F.grid_values(self.opts.norm_grid), self.ws.opnorm_weighted)))

        nf_new = update_normal_form(st.normal_form, sol.diag_avg, eps_m)
        clock.append(time.perf_counter())

        flow = flow_transform(sol.F, eps_m, self.ws, self.grid,
                              picard_tol=self.opts.picard_tol)
        if not flow.symplectic_defect <= SYMPLECTIC_TOL:  # NaN fails too
            raise CertificateError(
                f"symplectic_defect {flow.symplectic_defect:.3e} > {SYMPLECTIC_TOL:.1e}")
        P_bound = math.sqrt(eps_m)
        if not flow.P_norm <= P_bound:  # NaN fails too
            raise CertificateError(f"P_norm {flow.P_norm:.3e} > P_bound {P_bound:.3e}")
        clock.append(time.perf_counter())

        new_pieces, push_diag = push_remainder(
            st.remainder, K_eff, sol.diag_avg, flow, eps_m, eps_next, self.ws, self.grid,
        )
        if not push_diag.spec_truncation_ok:
            raise CertificateError("series_truncation_spec_ok is false")
        clock.append(time.perf_counter())

        if consistency is None:
            eps_old = [sched.eps_at(m + i) for i in range(len(st.remainder))]
            eps_new_w = [sched.eps_at(m + 1 + i) for i in range(len(new_pieces))]
            consistency = consistency_defect(
                st.normal_form.lambdas(), st.remainder, eps_old,
                nf_new.lambdas(), new_pieces, eps_new_w, flow, omega,
            )
        if not consistency <= self.opts.residual_tol:  # NaN fails too
            raise CertificateError(f"consistency_defect {consistency:.3e} > "
                                   f"residual_tol {self.opts.residual_tol:.1e}")
        clock.append(time.perf_counter())

        self.chain.append(flow)
        record = {
            "m": m,
            "eps_m": eps_m,
            "eps_next": eps_next,
            "gamma_m": gamma_m,
            "K_raw": K_raw,
            "K_eff": K_eff,
            "K_capped": bool(math.ceil(K_raw) > self.K_theta),
            "strip": float(sched.strip[m]),
            "divisor_min": sol.divisor_min,
            "homological_residual": float(sol.residual),
            "solution_norms": solution_norms,
            "mu_max_times_j": float(np.max(np.arange(1, self.ws.J_max + 1)
                                           * np.abs(sol.diag_avg.real))),
            "P_norm": flow.P_norm,
            "P_bound": P_bound,
            "symplectic_defect": flow.symplectic_defect,
            "picard_terms": flow.picard_terms,
            "active_norm": active_norm,
            "weighted_size": eps_m * active_norm,
            "new_piece_norms": push_diag.new_piece_norms,
            "tail_norm": push_diag.tail_norm,
            "series_truncation_spec_ok": push_diag.spec_truncation_ok,
            "consistency_defect": consistency,
        }
        st.remainder = new_pieces
        st.normal_form = nf_new
        st.m = m + 1
        st.diagnostics.append(record)
        self.step_timings = {key: b - a for key, a, b in zip(STEP_TIMINGS, clock, clock[1:])}
        return record

    def result(self) -> KamResult:
        nf = self.state.normal_form
        composed = self.chain.measure_composed_norm(self.ws)
        final_active = 0.0
        total = 0.0
        for i, piece in enumerate(self.state.remainder):
            norm = form_norm(piece, self.ws, self.opts.norm_grid)
            weight = self.schedule.eps_at(self.state.m + i)
            total += weight * norm
            if i == 0:
                final_active = weight * norm
        return KamResult(
            normal_form=nf,
            chain=self.chain,
            history=list(self.state.diagnostics),
            composed_norm=composed,
            final_weighted_size=final_active,
            final_remainder_norm=total,
        )


def seed_pieces(decomposition, eps0: float, schedule: Schedule) -> list:
    """Bookkeeping weights for the split remainder: level l enters with weight
    eps_l, so the stored piece is (eps0 / eps_l) * raw piece; the smoothing
    residual is folded into the last level. A degenerate schedule (eps0 = 0)
    has nothing to reduce and gets no pieces."""
    if schedule.degenerate:
        return []
    pieces = [piece.scaled(eps0 / schedule.eps_at(l))
              for l, piece in enumerate(decomposition.pieces)]
    if pieces:
        last = len(pieces) - 1
        pieces[last] = pieces[last] + decomposition.residual_form.scaled(
            eps0 / schedule.eps_at(last))
    return pieces
