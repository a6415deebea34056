"""Time-quasi-periodic potentials V(omega*t, x) on [-pi, pi].

A potential is described by its hull function V(theta, x) on T^n x [-pi, pi],
required to be even in x with zero x-average, together with frequency data
omega = tau * omega0 where omega0 satisfies a Diophantine bound. Analysis
produces the double Fourier data v_hat(k, j) of V(theta, x) = sum_j v_j(theta)
cos(j x), on a hypercube theta-window |k|_inf <= K_theta and x-modes
j = 1..J_max.

Hull callables take theta with shape (..., n) and x broadcastable to the
leading shape, and return values of the matching shape.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fourier import (
    active_modes,
    eval_modes,
    kgrid,
    kvalues,
    reality_enforce,
    theta_grid_points,
)

MAX_SAMPLE_ENTRIES = 200_000_000  # quadrature sampling budget
PARITY_TOL = 1e-9  # validate_assumptions' bound on the evenness residual
AVERAGE_TOL = 1e-9  # validate_assumptions' bound on the x-average residual
TAIL_TOL = 1e-6  # fourier_analyze flags a weighted tail norm above this


class InvalidPotentialError(ValueError):
    """Hull violates a structural assumption (finiteness, parity, average)."""


class ResourceBudgetError(RuntimeError):
    """Requested truncation sizes exceed the sampling memory budget."""


@dataclass(frozen=True)
class FrequencySpec:
    """Base frequencies omega0, scaling parameter tau in [1,2], Diophantine gamma."""

    omega0: tuple
    tau: float
    gamma: float

    def __post_init__(self):
        omega0 = tuple(float(w) for w in self.omega0)
        object.__setattr__(self, "omega0", omega0)
        if len(omega0) < 1:
            raise ValueError("need at least one base frequency")
        if not (1.0 <= self.tau <= 2.0):
            raise ValueError("tau must lie in [1, 2]")
        if not (0.0 < self.gamma < 1.0):
            raise ValueError("gamma must lie in (0, 1)")

    @property
    def n(self) -> int:
        return len(self.omega0)

    @property
    def omega(self) -> np.ndarray:
        return self.tau * np.asarray(self.omega0)

    def diophantine_margin(self, K_check: int) -> float:
        """min over 0 < |k|_inf <= K_check of |<k, omega0>| * |k|_inf^(n+1) / gamma.

        A margin >= 1 means the Diophantine bound holds on the tested modes.
        """
        n = self.n
        kv = kgrid(n, K_check).reshape(-1, n)
        norms = np.max(np.abs(kv), axis=1)
        mask = norms > 0
        dots = np.abs(kv[mask] @ np.asarray(self.omega0))
        return float(np.min(dots * norms[mask] ** (n + 1) / self.gamma))


@dataclass
class PotentialSpec:
    hull: Callable[[np.ndarray, np.ndarray], np.ndarray]
    smoothness_N: int
    freq: FrequencySpec
    amplitude_eps: float
    # largest |k|_inf and j of the hull's coefficient table (make_potential
    # records them; 0 for a hull without one): fourier_analyze samples finely
    # enough that no table mode outside the window folds onto a kept one
    table_k_max: int = 0
    table_j_max: int = 0

    def __post_init__(self):
        if self.smoothness_N < 2:
            raise ValueError("smoothness class must be at least 2")
        if self.amplitude_eps < 0:
            raise ValueError("amplitude must be nonnegative")
        if self.smoothness_N <= 200 * self.freq.n:
            warnings.warn(
                f"smoothness N={self.smoothness_N} is below 200*n={200 * self.freq.n}; "
                "convergence is observed empirically, not guaranteed",
                stacklevel=2,
            )


@dataclass
class PotentialFourier:
    """Double Fourier data: v_hat[k-window..., j] with V = sum_j v_j(theta) cos(jx)."""

    v_hat: np.ndarray  # complex, shape (2K+1,)*n + (J_max,)
    K_theta: int
    J_max: int
    n: int
    tail_norm: float = 0.0
    tail_flagged: bool = False

    @functools.cached_property
    def _active_modes(self) -> tuple:
        """The active window modes of v_hat, found once per object."""
        return active_modes(self.v_hat, self.n, self.K_theta)

    def v_of_theta(self, theta: np.ndarray) -> np.ndarray:
        """Mode amplitudes v_j at theta points, shape (P, J_max); complex with
        negligible imaginary part when the reality invariant holds."""
        return eval_modes(*self._active_modes, theta)


@dataclass
class ValidationReport:
    finite: bool
    evenness_residual: float
    average_residual: float
    diophantine_margin: float
    evenness_ok: bool
    average_ok: bool
    diophantine_ok: bool

    @property
    def all_ok(self) -> bool:
        return self.finite and self.evenness_ok and self.average_ok and self.diophantine_ok

    def as_dict(self) -> dict:
        return {
            "finite": self.finite,
            "evenness_residual": self.evenness_residual,
            "average_residual": self.average_residual,
            "diophantine_margin": self.diophantine_margin,
            "evenness_ok": self.evenness_ok,
            "average_ok": self.average_ok,
            "diophantine_ok": self.diophantine_ok,
            "all_ok": self.all_ok,
        }


def _x_sample_points(G: int) -> np.ndarray:
    # Uniform full-period grid, wrapped back into [-pi, pi) where hulls live.
    x = 2.0 * np.pi * np.arange(G) / G
    return ((x + np.pi) % (2.0 * np.pi)) - np.pi


def validate_assumptions(
    p: PotentialSpec,
    K_check: int = 20,
    grid: int = 32,
) -> ValidationReport:
    """Check evenness in x, zero x-average, and the Diophantine margin on a grid."""
    if grid < 4 or K_check < 1:
        raise ValueError("need grid >= 4 and K_check >= 1")
    n = p.freq.n
    th = theta_grid_points(n, grid)
    x = _x_sample_points(4 * grid)
    vals = np.asarray(p.hull(th[:, None, :], x[None, :]), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise InvalidPotentialError("hull produced non-finite values")
    vals_neg = np.asarray(p.hull(th[:, None, :], -x[None, :]), dtype=float)
    evenness = float(np.max(np.abs(vals - vals_neg)))
    # trapezoid on the full period == uniform mean * 2*pi
    averages = vals.mean(axis=1) * 2.0 * np.pi
    average = float(np.max(np.abs(averages)))
    margin = p.freq.diophantine_margin(K_check)
    return ValidationReport(
        finite=True,
        evenness_residual=evenness,
        average_residual=average,
        diophantine_margin=margin,
        evenness_ok=evenness <= PARITY_TOL,
        average_ok=average <= AVERAGE_TOL,
        diophantine_ok=margin >= 1.0,
    )


def fourier_analyze(p: PotentialSpec, K_theta: int, J_max: int) -> PotentialFourier:
    """Tensor-product trapezoidal analysis of the hull into v_hat(k, j).

    Exact (to roundoff) for trigonometric-polynomial hulls inside the
    truncation, since uniform trapezoid sums are exact DFTs. A mode of the
    hull's table outside the window is left out: on Gt > K_theta +
    table_k_max points per theta axis and Gx > J_max + table_j_max in x,
    none aliases onto a kept mode.
    """
    if K_theta < 1 or J_max < 1:
        raise ValueError("truncation sizes must be >= 1")
    n = p.freq.n
    Gt = max(4 * K_theta, 8, K_theta + p.table_k_max + 1)
    Gx = max(4 * J_max, 8, J_max + p.table_j_max + 1)
    if Gt**n * Gx > MAX_SAMPLE_ENTRIES:
        raise ResourceBudgetError(
            f"sampling grid {Gt}^{n} x {Gx} exceeds the memory budget"
        )
    th = theta_grid_points(n, Gt)
    x = _x_sample_points(Gx)
    vals = np.asarray(p.hull(th[:, None, :], x[None, :]), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise InvalidPotentialError("hull produced non-finite values")
    vals = vals.reshape((Gt,) * n + (Gx,))
    hat = np.fft.fftn(vals, axes=tuple(range(n + 1)), norm="forward")
    j = np.arange(1, J_max + 1)
    # cos-mode amplitudes: v_j = c_j + c_{-j}
    v = hat[..., j] + hat[..., (-j) % Gx]
    idx = tuple(kvalues(K_theta) % Gt for _ in range(n))
    v_hat = v[np.ix_(*idx)]
    v_hat = reality_enforce(v_hat, n, K_theta)

    N = p.smoothness_N
    power = np.abs(v_hat) ** 2  # Parseval mean over theta per (k, j)
    per_j = power.reshape(-1, J_max).sum(axis=0)
    tail_mask = j > J_max // 2
    tail = float(np.sum(j[tail_mask] ** (2 * N) * per_j[tail_mask]))
    return PotentialFourier(
        v_hat=v_hat,
        K_theta=K_theta,
        J_max=J_max,
        n=n,
        tail_norm=tail,
        tail_flagged=bool(tail > TAIL_TOL),
    )


# ---------------------------------------------------------------------------
# Presets


def _hull_from_table(table: dict, n: int) -> Callable:
    """Real hull from a table {(k_tuple, j): complex coefficient}.

    The table holds the one-sided theta-coefficients: V = sum Re(2*c e^{ik.th})
    for k listed once (k=0 entries must be real and are used as-is).
    """
    items = [(np.asarray(k, dtype=float), int(j), complex(c)) for (k, j), c in table.items()]

    def hull(theta: np.ndarray, x: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        x = np.asarray(x, dtype=float)
        out = np.zeros(np.broadcast_shapes(theta.shape[:-1], x.shape))
        for k, j, c in items:
            phase = theta @ k
            if np.all(k == 0):
                term = c.real * np.ones_like(phase)
            else:
                term = 2.0 * (c * np.exp(1j * phase)).real
            out = out + term * np.cos(j * x)
        return out

    return hull


def preset_table(name: str, n: int, N: int, scale: float = 1.0,
                 theta_band: int = 16) -> dict:
    """One-sided coefficient tables for the named potential presets."""
    e1 = (1,) + (0,) * (n - 1)
    if name == "single_mode":
        return {(e1, 2): 0.5 * scale}
    if name == "product_mode":
        # prod_d cos(theta_d) * (cos x + 0.5 cos 2x): one-sided rep over k sign classes
        table = {}
        for j, a in ((1, 1.0), (2, 0.5)):
            for signs in range(2 ** (n - 1)):
                k = [1] + [1 if (signs >> d) & 1 else -1 for d in range(n - 1)]
                table[(tuple(k), j)] = scale * a / 2**n
        return table
    if name == "finite_smooth":
        # Lacunary series: sparse theta-shells on a sqrt(2)-geometric radius
        # ladder (reaching the window corners) with amplitude |k|^-N (class-N
        # angular smoothness), times x-coefficient decay j^-(N+1); dc parts on
        # even x-modes feed the diagonal corrections. Shells beyond the first
        # carry a fixed boost so the dyadic ladder stays visible against the
        # leading harmonics.
        if n == 1:
            shell_ks = [(1,), (2,), (3,), (4,), (6,), (8,), (11,), (16,)]
        else:
            shell_ks = [
                (1, 0), (0, 1), (1, 1), (2, 0), (2, 2), (4, 1), (5, -3),
                (8, 2), (11, -3), (16, 2), (16, -16),
            ]
            shell_ks = [k + (0,) * (n - 2) for k in shell_ks]
        shell_ks = [k for k in shell_ks if max(abs(x) for x in k) <= theta_band]
        table = {}
        for j in range(1, 7):
            a = scale * j ** (-(N + 1.0))
            if j % 2 == 0:
                table[((0,) * n, j)] = 0.6 * a
            for p, k in enumerate(shell_ks):
                r = float(np.hypot(*k[:2])) if n >= 2 else float(abs(k[0]))
                boost = 1.0 if r <= 1.0 else 4.0
                amp = a * r ** (-float(N)) * boost
                phase = np.exp(1j * (0.4 * j + 1.1 * p))
                table[(k, j)] = table.get((k, j), 0.0) + 0.5 * amp * phase
        return table
    raise ValueError(f"unknown potential preset: {name}")


def make_potential(
    name: str,
    freq: FrequencySpec,
    eps: float,
    N: int = 6,
    scale: float = 1.0,
    theta_band: int = 16,
    coefficients: dict | None = None,
) -> tuple[PotentialSpec, dict]:
    """Build a preset PotentialSpec; returns (spec, coefficient table)."""
    if name == "custom_coefficients":
        if not coefficients:
            raise ValueError("custom_coefficients preset needs a coefficient table")
        table = {
            (tuple(int(x) for x in k), int(j)): complex(c)
            for (k, j), c in coefficients.items()
        }
    else:
        table = preset_table(name, freq.n, N, scale, theta_band)
    hull = _hull_from_table(table, freq.n)
    spec = PotentialSpec(hull=hull, smoothness_N=N, freq=freq, amplitude_eps=eps,
                         table_k_max=max(max(abs(x) for x in k) for k, _ in table),
                         table_j_max=max(j for _, j in table))
    return spec, table
