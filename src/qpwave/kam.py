"""Iterative reduction of the lattice Hamiltonian to constant coefficients.

A quadratic Hamiltonian piece ``<A z, z> + <B z, zbar> + <C zbar, zbar>`` is
carried as a QuadraticForm: window Fourier coefficients per block, in the
doubled coordinates u = (z, zbar). Its u-form is the symmetric matrix
Q = [[A, B^T/2], [B/2, C]] with H = <Q u, u>.

Everything pointwise on the theta grid runs in the real coordinates
x = (q, p) instead, with u = T x, T = [[I, -iI], [I, iI]] / sqrt(2)
(z = (q - i p)/sqrt(2), as in verify.qp_to_u). A real Hamiltonian has the
real symmetric (q, p) form S = T^T Q T, so brackets, flows, series and norms
on the grid work on float64 arrays; window coefficients stay complex u-forms.

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
    eval_at_points,
    kdot,
    kinf,
    omega_derivative,
    product_grid_size,
    project_window_grid,
    spectral_derivative_matrix,
    theta_grid_points,
    window_to_grid,
)
from .galerkin import QuadraticForm, WeightedSpace, form_norm, metric_opnorm
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
    log_eps: np.ndarray
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
        return cls(0.0, N, gamma, n, 0, z, z.copy(), z.copy(), z.copy(), z.copy(),
                   np.array([gamma]), False)


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
        log_eps=log_eps[: M + 1], eps=eps[: M + 1],
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


def update_normal_form(nf: NormalForm, diag_avg: np.ndarray, eps_m: float,
                       imag_tol: float = 1e-12) -> NormalForm:
    diag_avg = np.asarray(diag_avg)
    if diag_avg.shape != (nf.J,):
        raise InvalidParameterError("diagonal average has wrong length")
    imag = float(np.max(np.abs(diag_avg.imag))) if np.iscomplexobj(diag_avg) else 0.0
    if imag > imag_tol:
        raise SelfAdjointnessError(
            f"diagonal average has imaginary part {imag:.3e} > {imag_tol:.1e}"
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


# ---------------------------------------------------------------------------
# The (q, p) grid layer

STRUCTURE_RTOL = 1e-12  # relative structure defect a form may carry onto the grid


class RealStructureError(ValueError):
    """A form is not a real Hamiltonian (conj(zz) != zbzb or zzbar not
    Hermitian), so its (q, p) form is not real."""


@functools.lru_cache(maxsize=None)
def qp_unitary(J: int) -> np.ndarray:
    """T = [[I, -iI], [I, iI]] / sqrt(2), u = T (q, p); read-only."""
    eye = np.eye(J)
    T = np.block([[eye, -1j * eye], [eye, 1j * eye]]) / math.sqrt(2.0)
    T.flags.writeable = False
    return T


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


def _swap(a: np.ndarray) -> tuple:
    return tuple(range(a.ndim - 2)) + (a.ndim - 1, a.ndim - 2)


def qp_from_blocks(zz: np.ndarray, zzbar: np.ndarray, zbzb: np.ndarray) -> np.ndarray:
    """(q, p) form T^T Q T of the u-form Q = [[zz, zzbar^T/2], [zzbar/2, zbzb]],
    written out by blocks; works on window coefficients as on values."""
    J = zz.shape[-1]
    zzbar_t = zzbar.transpose(_swap(zzbar))
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


def blocks_from_qp(S: np.ndarray) -> tuple:
    """(zz, zzbar, zbzb) of the u-form conj(T) S T^H, the inverse of
    qp_from_blocks (zz and zbzb symmetrized)."""
    J = S.shape[-1] // 2
    tr = _swap(S)
    qq, qp, pq, pp = S[..., :J, :J], S[..., :J, J:], S[..., J:, :J], S[..., J:, J:]
    real = 0.5 * (qq - pp)
    imag = 0.5 * (qp + pq)
    real = 0.5 * (real + real.transpose(tr))
    imag = 0.5j * (imag + imag.transpose(tr))
    trace = qq + pp
    cross = 1j * (qp - pq)
    zzbar = 0.5 * (trace + trace.transpose(tr) + cross - cross.transpose(tr))
    return real + imag, zzbar, real - imag


def check_real_structure(qf: QuadraticForm) -> None:
    """The grid layer's precondition: the form is a real Hamiltonian to
    STRUCTURE_RTOL relative (its (q, p) values are then real)."""
    defect, scale = qf.structure_defect(), qf.max_abs()
    if not defect <= STRUCTURE_RTOL * scale:  # NaN fails too
        raise RealStructureError(
            f"form is not a real Hamiltonian: structure defect {defect:.3e} > "
            f"{STRUCTURE_RTOL:.0e} * max |coefficient| {scale:.3e}"
        )


def qp_window(qf: QuadraticForm) -> np.ndarray:
    """Window coefficients of qf's (q, p) form, (2K+1,)*n + ((2J)^2,), after
    the real-structure check that makes its grid values real."""
    check_real_structure(qf)
    hat = qp_from_blocks(qf.zz, qf.zzbar, qf.zbzb)
    return hat.reshape(hat.shape[:qf.n] + (-1,))


def qp_rows(source: RealGrid, rows: slice) -> np.ndarray:
    """Real (q, p) form values, flat (points, 2J, 2J), on the grid rows
    ``rows`` of the first theta axis, from the RealGrid of qp window
    coefficients (built once per form, then read slab by slab)."""
    values = source.rows(rows)
    dim = math.isqrt(values.shape[-1])
    return values.reshape(-1, dim, dim)


def qp_grid(qf: QuadraticForm, G: int) -> np.ndarray:
    """Real (q, p) form values of qf on the flat theta grid, (G^n, 2J, 2J)."""
    return qp_rows(RealGrid(qp_window(qf), qf.n, qf.K, G), slice(None))


def bracket_sym(QA: np.ndarray, JS_QB: np.ndarray) -> np.ndarray:
    """(q, p) form of the Poisson bracket of symmetric QA, QB, given
    JS_QB = jr_mul(QB).

    The bracket is 2 (QA JR QB - QB JR QA). For symmetric operands
    QB JR QA = -(QA JR QB)^T, so one product suffices: bracket = 2 (P + P^T)
    with P = QA @ JS_QB.
    """
    P = QA @ JS_QB
    out = P + P.transpose(_swap(P))
    out *= 2.0
    return out


def generator_of(S: np.ndarray) -> np.ndarray:
    """Linear vector field x' = L x generated by <S x, x>."""
    return 2.0 * jr_mul(S)


def hamiltonian_window(lam: np.ndarray, pieces: list, weights: list) -> np.ndarray:
    """qp window coefficients of lam + sum_l w_l p_l: the pieces are summed as
    window coefficients, and the normal form sum_j lam_j |z_j|^2, whose
    (q, p) form is diag(lam, lam) / 2, is added at k = 0."""
    total = pieces[0].scaled(weights[0])
    for w, piece in zip(weights[1:], pieces[1:]):
        total = total + piece.scaled(w)
    hat = qp_window(total)
    dim = 2 * total.J
    center = hat[(total.K,) * total.n].reshape(dim, dim)
    center[np.arange(dim), np.arange(dim)] += 0.5 * np.concatenate([lam, lam])
    return hat


def uform_opnorm(Q: np.ndarray, ws: WeightedSpace) -> float:
    """Weighted operator norm (doubled h_N metric) of (..., 2J, 2J) matrices,
    u-forms or (q, p) forms alike: diag(w, w) commutes with T, T is unitary."""
    return metric_opnorm(Q, ws.doubled_metric_weights)


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
    norm_report: dict
    K_m: int


def _divisor_arrays(nf_lam: np.ndarray, omega: np.ndarray, n: int, K: int):
    kw = kdot(omega, n, K)[..., None, None]
    lam_i = nf_lam[:, None]
    lam_j = nf_lam[None, :]
    div_zz = kw + (lam_i + lam_j)
    div_zbzb = kw - (lam_i + lam_j)
    div_zzbar = kw - (lam_i - lam_j)
    return div_zz, div_zzbar, div_zbzb


def solve_homological(
    remainder_mm: QuadraticForm,
    nf: NormalForm,
    omega: np.ndarray,
    K_m: int,
    gamma_m: float,
    ws: WeightedSpace | None = None,
    norm_grid: int = 12,
) -> HomologicalSolution:
    """Solve the step's homological equations on the |k| <= K_m window.

    Fourier-coefficient division F_hat = -i R_hat / divisor with divisors
    <k,w> + lam_i + lam_j (zz), <k,w> - lam_i - lam_j (zbzb) and
    <k,w> - lam_i + lam_j (zzbar); the averaged zzbar diagonal is removed and
    returned for the normal-form update. This is each step's small-divisor
    gate: every divisor on the window is checked against
    resonance.divisor_threshold first; ResonanceError names the worst divisor
    of the first block that fails.
    """
    qf = remainder_mm
    n, K, J = qf.n, qf.K, qf.J
    lam = nf.lambdas()
    low, _ = qf.truncate(min(K_m, K))
    div_zz, div_zzbar, div_zbzb = _divisor_arrays(lam, np.asarray(omega, float), n, K)

    rings = kinf(n, K)[..., None, None]
    in_support = rings <= K_m
    i_idx = np.arange(1, J + 1)
    gap = np.abs(i_idx[:, None] - i_idx[None, :]).astype(float)
    thresholds = resonance.divisor_threshold(gap, rings, gamma_m, n)

    center = (K,) * n
    diag_sel = (np.arange(J), np.arange(J))

    divisor_min = np.inf
    for kind, div in (("zz", div_zz), ("zzbar", div_zzbar), ("zbzb", div_zbzb)):
        checked = np.abs(div) - thresholds
        mask = np.broadcast_to(in_support, checked.shape).copy()
        if kind == "zzbar":
            mask[center][diag_sel] = False  # k = 0 diagonal handled separately
        if np.any((checked < 0) & mask):
            flat = np.argmin(np.where(mask, checked, np.inf))
            idx = np.unravel_index(flat, checked.shape)
            kvec = tuple(int(a) - K for a in idx[:n])
            raise ResonanceError(kind, kvec, idx[-2] + 1, idx[-1] + 1,
                                 div[idx], thresholds[idx])
        divisor_min = min(divisor_min, float(np.min(np.abs(div)[mask])))

    diag_avg = low.zzbar[center][diag_sel].copy()

    Fzz = -1j * low.zz / div_zz
    Fzbzb = -1j * low.zbzb / div_zbzb
    zzbar_num = low.zzbar.copy()
    zzbar_num[center][diag_sel] = 0.0  # removed average
    safe = div_zzbar.copy()
    safe[center][diag_sel] = 1.0  # excluded entry, numerator already zero
    Fzzbar = -1j * zzbar_num / safe

    F = QuadraticForm(n=n, K=K, J=J, zz=Fzz, zzbar=Fzzbar, zbzb=Fzbzb,
                      strip=qf.strip, meta={"K_m": K_m})
    ws = ws or WeightedSpace(N=2, J_max=J)
    G_norm = max(norm_grid, 2 * K + 1)
    report = {
        name: float(ws.opnorm_weighted(window_to_grid(b, n, K, G_norm)))
        for name, b in zip(("zz", "zzbar", "zbzb"), F.blocks())
    }
    return HomologicalSolution(F=F, diag_avg=diag_avg, divisor_min=divisor_min,
                               norm_report=report, K_m=K_m)


def homological_residual(
    sol: HomologicalSolution,
    remainder_mm: QuadraticForm,
    nf: NormalForm,
    omega: np.ndarray,
) -> float:
    """Relative plug-back residual of the component equations on the window."""
    qf = remainder_mm
    n, K, J = qf.n, qf.K, qf.J
    lam = nf.lambdas()
    low, _ = qf.truncate(min(sol.K_m, K))
    kw = kdot(np.asarray(omega, float), n, K)[..., None, None]
    lam_i, lam_j = lam[:, None], lam[None, :]
    center = (K,) * n
    diag_sel = (np.arange(J), np.arange(J))

    F = sol.F
    lhs_zz = 1j * kw * F.zz + 1j * (lam_i + lam_j) * F.zz
    lhs_zbzb = 1j * kw * F.zbzb - 1j * (lam_i + lam_j) * F.zbzb
    lhs_zzbar = 1j * kw * F.zzbar - 1j * (lam_i - lam_j) * F.zzbar
    rhs_zzbar = low.zzbar.copy()
    rhs_zzbar[center][diag_sel] -= sol.diag_avg

    num = 0.0
    den = 0.0
    for lhs, rhs in ((lhs_zz, low.zz), (lhs_zbzb, low.zbzb), (lhs_zzbar, rhs_zzbar)):
        num = max(num, float(np.max(np.abs(lhs - rhs))))
        den = max(den, float(np.max(np.abs(rhs))))
    return num / den if den > 0 else num


# ---------------------------------------------------------------------------
# Flow transform


_PICARD_MAX_TERMS = 80
SYMPLECTIC_TOL = 1e-12  # bound on each step's symplectic_defect, enforced by KamEngine.step


@dataclass
class FlowResult:
    grid: int
    B: np.ndarray            # (G^n, 2J, 2J) real (q, p) flow generator, x' = eps B x
    Phi: np.ndarray          # (G^n, 2J, 2J) real (q, p) map on the flat theta grid
    P_hat: np.ndarray        # window coefficients of the u-form map T (Phi - id) T^H
    n: int
    K: int
    J: int
    P_norm: float
    symplectic_defect: float
    picard_terms: int


def flow_transform(
    sol: HomologicalSolution,
    eps_m: float,
    ws: WeightedSpace,
    grid: int,
    picard_tol: float = 1e-12,
) -> FlowResult:
    """Time-1 map of the step generator at frozen angle, per theta grid point.

    Picard iteration on U(t) = I + eps * B(theta) * integral U; with the
    generator frozen the iterates are the exponential partial sums, and the
    stopping rule compares successive iterates in the weighted norm.
    """
    F = sol.F
    n, K, J = F.n, F.K, F.J
    B = generator_of(qp_grid(F, grid))
    w2 = ws.doubled_metric_weights

    gen_norm = uform_opnorm(B, ws)
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
    P_qp = RealWindow(n, K, grid).put(P.reshape((grid,) * n + (2 * J, 2 * J))).coefficients()
    T = qp_unitary(J)
    P_hat = T @ P_qp @ T.conj().T
    P_norm = uform_opnorm(P, ws)

    JR = jr_matrix(J)
    defect = max(float(np.max(np.abs(np.matmul(U[pts].transpose(0, 2, 1), jr_mul(U[pts])) - JR)))
                 for _, pts in _slabs(grid, n))

    return FlowResult(grid=grid, B=B, Phi=U, P_hat=P_hat, n=n, K=K, J=J,
                      P_norm=P_norm, symplectic_defect=defect,
                      picard_terms=terms_used)


# ---------------------------------------------------------------------------
# Transform chain


@dataclass
class TransformChain:
    """Each step's P_hat, the window coefficients of Phi - id, shape
    (2K+1,)*n + (2J, 2J)."""

    steps: list = field(default_factory=list)
    composed_norm: float = 0.0

    def append(self, flow: FlowResult):
        self.steps.append(flow.P_hat)

    def matrices_at(self, thetas: np.ndarray) -> np.ndarray:
        """Composed map Psi_0 Psi_1 ... Psi_{M-1} at each theta, (P, 2J, 2J)."""
        thetas = np.atleast_2d(thetas)
        if not self.steps:
            raise ValueError("empty chain")
        dim = self.steps[0].shape[-1]
        out = np.broadcast_to(np.eye(dim, dtype=complex),
                              (thetas.shape[0], dim, dim)).copy()
        for P_hat in self.steps:
            n = P_hat.ndim - 2
            P = eval_at_points(P_hat, n, P_hat.shape[0] // 2, thetas)
            out = out @ (np.eye(dim) + P)
        return out

    def measure_composed_norm(self, ws: WeightedSpace, grid: int = 12) -> float:
        if not self.steps:
            return 0.0
        pts = theta_grid_points(self.steps[0].ndim - 2, grid)
        mats = self.matrices_at(pts)
        eye = np.eye(mats.shape[-1])
        self.composed_norm = uform_opnorm(mats - eye, ws)
        return self.composed_norm


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
    """Window coefficients, (2K+1,)*n + (2J, 2J), of the summed Lie series
    of ``streams``, each series run whole on one slab of the grid at a time.

    streams maps a name to (RealGrid of the qp window coefficients,
    coeff_offset, bracketed): a stream's grid seed is the form's values, or
    for a bracketed stream their bracket with the step generator S_F.
    B = 2 JR S_F is the flow generator on the flat grid, so the bracket
    operand jr_mul(S_F) is B / 2; the factor 1/2 rides on the seed and on eps
    instead (a power of two, so every term is bit for bit the one with B / 2).
    Each slab's seeds are its rows of the stream's RealGrid, and its summed
    series is filed into one RealWindow, read once at the end: no grid array
    but B spans more than a slab. Each slab's term sizes go to
    series_terms["name[slab]"].
    """
    dim = B.shape[-1]
    window = RealWindow(n, K, G)
    for i, (rows, pts) in enumerate(_slabs(G, n)):
        B_s = B[pts]
        total = None
        for name, (source, offset, bracketed) in streams.items():
            seed = qp_rows(source, rows)
            if bracketed:
                seed = bracket_sym(seed, B_s)
                seed *= 0.5
            acc, series_terms[f"{name}[{i}]"] = _lie_series(seed, B_s, 0.5 * eps, offset, w2)
            if total is None:
                total = acc
            else:
                total += acc
        window.put(total.reshape((-1,) + (G,) * (n - 1) + (dim, dim)), rows)
    return window.coefficients()


@dataclass
class PushDiagnostics:
    series_terms: dict
    tail_norm: float
    spec_truncation_ok: bool
    new_piece_norms: list


def push_remainder(
    pieces: list,
    sol: HomologicalSolution,
    flow: FlowResult,
    eps_m: float,
    eps_next: float,
    strips_next: list,
    ws: WeightedSpace,
    grid: int,
) -> tuple:
    """Assemble the next remainder family from the four step contributions:
    the high-frequency tail, the double-bracket stream seeded by
    diag(mu) - Gamma R, the single-bracket stream seeded by R_mm, and the
    Lie-series transport of the higher pieces. Every stream runs slab by slab
    (_streamed_series), and series_terms holds the term sizes of each slab.
    """
    R_mm = pieces[0]
    n, K, J = R_mm.n, R_mm.K, R_mm.J
    w2 = ws.doubled_metric_weights

    low, tail = R_mm.truncate(min(sol.K_m, K))

    # seed of the double-bracket stream: diag(mu) - truncated R_mm
    center = (K,) * n
    star = low.scaled(-1.0)
    diag_sel = (np.arange(J), np.arange(J))
    star.zzbar[center][diag_sel] += sol.diag_avg
    del low

    series_terms = {}

    def source(qf: QuadraticForm) -> RealGrid:
        # built once per stream; its window is released once the source exists
        return RealGrid(qp_window(qf), n, K, grid)

    def stream(streams: dict) -> tuple:
        coeffs = _streamed_series(streams, flow.B, eps_m, n, K, grid, w2, series_terms)
        return blocks_from_qp(coeffs)

    bc_blocks = stream({"double_bracket": (source(star), 2, True),
                        "single_bracket": (source(R_mm), 1, True)})
    del star

    new_pieces = []
    first = tail.scaled(eps_m / eps_next)
    first.zz = first.zz + (eps_m**2 / eps_next) * bc_blocks[0]
    first.zzbar = first.zzbar + (eps_m**2 / eps_next) * bc_blocks[1]
    first.zbzb = first.zbzb + (eps_m**2 / eps_next) * bc_blocks[2]
    new_pieces.append(first)
    del bc_blocks

    for idx, piece in enumerate(pieces[1:]):
        blocks = stream({f"transport_{idx}": (source(piece), 0, False)})
        moved = QuadraticForm(n=n, K=K, J=J, zz=blocks[0], zzbar=blocks[1],
                              zbzb=blocks[2], strip=piece.strip, meta=dict(piece.meta))
        if idx == 0:
            new_pieces[0] = new_pieces[0] + moved
        else:
            new_pieces.append(moved)

    for i, piece in enumerate(new_pieces):
        piece.strip = strips_next[i] if i < len(strips_next) else (
            strips_next[-1] if strips_next else piece.strip)
        piece.symmetrize()

    # one decision over the last term of every slab of every stream
    last_sizes = [s[-1] for s in series_terms.values() if s]
    spec_ok = all(s <= 1e-3 * eps_next for s in last_sizes)
    piece_norms = [form_norm(p, ws, 8) for p in new_pieces]
    diag = PushDiagnostics(series_terms=series_terms, tail_norm=form_norm(tail, ws, 8),
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

    Independent of the series assembly; used to certify each step. The first
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
    scale = 0.0
    for rows, pts in _slabs(G, n):
        Q_asm = qp_rows(ham, rows)
        diff[pts] -= Q_asm
        scale = max(scale, float(np.max(np.abs(Q_asm))))
    del ham, Q_asm

    # compare inside the coefficient window only (the assembly lives there),
    # projected in place
    diff = diff.reshape((G,) * n + (2 * J, 2 * J))
    diff = project_window_grid(diff, n, K, out=diff)
    diff = diff.reshape(-1, 2 * J, 2 * J)
    return max(float(np.max(np.abs(diff[pts]))) for _, pts in _slabs(G, n)) / scale


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
    pieces: list
    xi: np.ndarray
    composed_norm: float
    converged: bool
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
        normal_form: NormalForm | None = None,
        chain: TransformChain | None = None,
        m_start: int = 0,
        diagnostics: list | None = None,
    ):
        self.opts = options or KamOptions()
        self.freq = freq
        self.schedule = schedule
        self.ws = ws
        self.K_theta = K_theta
        J = ws.J_max
        self.state = IterationState(
            m=m_start,
            normal_form=normal_form or NormalForm(J=J),
            remainder=pieces,
            diagnostics=diagnostics or [],
        )
        self.chain = chain or TransformChain()
        self.grid = product_grid_size(K_theta)
        self.step_timings: dict = {}

    @property
    def finished(self) -> bool:
        return self.state.m >= self.schedule.M or self.schedule.degenerate

    def step(self) -> dict:
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
        sol = solve_homological(R_mm, st.normal_form, omega, K_eff, gamma_m,
                                ws=self.ws, norm_grid=self.opts.norm_grid)
        residual = homological_residual(sol, R_mm, st.normal_form, omega)

        nf_new = update_normal_form(st.normal_form, sol.diag_avg, eps_m)
        clock.append(time.perf_counter())

        flow = flow_transform(sol, eps_m, self.ws, self.grid,
                              picard_tol=self.opts.picard_tol)
        if not flow.symplectic_defect <= SYMPLECTIC_TOL:  # NaN fails too
            raise CertificateError(
                f"step m={m}: symplectic_defect {flow.symplectic_defect:.3e} > "
                f"{SYMPLECTIC_TOL:.1e}"
            )
        clock.append(time.perf_counter())

        strips_next = [float(s) for s in sched.strip[m + 1:]]
        new_pieces, push_diag = push_remainder(
            st.remainder, sol, flow, eps_m, eps_next, strips_next, self.ws, self.grid,
        )
        if not push_diag.spec_truncation_ok:
            raise CertificateError(f"step m={m}: series_truncation_spec_ok is false")
        clock.append(time.perf_counter())

        eps_old = [sched.eps_at(m + i) for i in range(len(st.remainder))]
        eps_new_w = [sched.eps_at(m + 1 + i) for i in range(len(new_pieces))]
        consistency = consistency_defect(
            st.normal_form.lambdas(), st.remainder, eps_old,
            nf_new.lambdas(), new_pieces, eps_new_w, flow, omega,
        )
        if not consistency <= self.opts.residual_tol:  # NaN fails too
            raise CertificateError(
                f"step m={m}: consistency_defect {consistency:.3e} > "
                f"residual_tol {self.opts.residual_tol:.1e}"
            )
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
            "homological_residual": float(residual),
            "solution_norms": sol.norm_report,
            "mu_max_times_j": float(np.max(np.arange(1, self.ws.J_max + 1)
                                           * np.abs(sol.diag_avg.real))),
            "P_norm": flow.P_norm,
            "P_bound": float(math.sqrt(eps_m)),
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

    def run(self) -> KamResult:
        while not self.finished:
            self.step()
        return self.result()

    def result(self) -> KamResult:
        nf = self.state.normal_form
        lam = nf.lambdas()
        j = nf.base
        xi = lam**2 - j**2
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
            pieces=self.state.remainder,
            xi=xi,
            composed_norm=composed,
            converged=self.finished,
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
        for l, p in enumerate(pieces):
            p.strip = float(schedule.strip[l]) if l < len(schedule.strip) else p.strip
    return pieces


def kam_run(
    pf,
    decomposition,
    freq: FrequencySpec,
    schedule: Schedule,
    ws: WeightedSpace,
    options: KamOptions | None = None,
) -> KamResult:
    """Full reduction: truncate, solve, update, flow, push, for m = 0..M-1."""
    pieces = seed_pieces(decomposition, schedule.eps0, schedule)
    engine = KamEngine(pieces, freq, schedule, ws, K_theta=pf.K_theta, options=options)
    return engine.run()
