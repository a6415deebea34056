"""Analytic-approximation split of finitely smooth theta-families.

Convolution with the scaled transform of a flat-top bump acts on window
Fourier coefficients as multiplication by phi(sigma * |k|), where phi is the
bump itself: identically 1 on r <= 1/2, smoothly decaying to 0 at r = 1.
Differences of consecutive smoothing scales split an operator family into
pieces analytic on shrinking strips, with a telescoping reconstruction that is
exact in coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fourier import kgrid
from .galerkin import QuadraticForm, WeightedSpace, form_norm, max_spectral_norm


class ScheduleError(ValueError):
    """Strip-width schedule is not strictly decreasing and positive."""


def _transition(t: np.ndarray) -> np.ndarray:
    """C-infinity step: 1 at t <= 0, 0 at t >= 1 (exp(-1/t) glue)."""
    t = np.clip(t, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        a = np.where(t > 0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
        b = np.where(t < 1, np.exp(-1.0 / np.maximum(1.0 - t, 1e-300)), 0.0)
    return b / (a + b)


@dataclass
class JacksonKernel:
    """Radially symmetric flat-top bump profile and its Fourier multiplier.

    phi(r) = 1 for r <= flat_radius, smooth monotone decay to 0 at r = 1,
    zero outside the closed unit ball. The Fourier-side action of convolving
    with the scaled kernel is coefficient-wise multiplication by phi(sigma k).
    """

    flat_radius: float = 0.5

    def phi(self, r: np.ndarray) -> np.ndarray:
        r = np.abs(np.asarray(r, dtype=float))
        t = (r - self.flat_radius) / (1.0 - self.flat_radius)
        return np.where(r >= 1.0, 0.0, np.where(r <= self.flat_radius, 1.0, _transition(t)))

    def envelope(self, sigma: float, n: int, K: int) -> np.ndarray:
        """Multiplier phi(sigma |k|) over the window, Euclidean radius."""
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        radii = np.linalg.norm(kgrid(n, K), axis=-1)
        return self.phi(sigma * radii)


def smooth_at_scale(
    f_hat: np.ndarray, kernel: JacksonKernel, sigma: float, n: int, K: int
) -> np.ndarray:
    """Coefficient-side convolution at scale sigma; preserves constants exactly."""
    env = kernel.envelope(sigma, n, K)
    return f_hat * env.reshape(env.shape + (1,) * (f_hat.ndim - n))


def smooth_form(qf: QuadraticForm, kernel: JacksonKernel, sigma: float) -> QuadraticForm:
    blocks = (smooth_at_scale(b, kernel, sigma, qf.n, qf.K) for b in qf.blocks())
    return QuadraticForm(qf.n, qf.K, qf.J, *blocks, strip=sigma, meta=dict(qf.meta))


@dataclass
class DyadicDecomposition:
    """Pieces of qf = pieces[0] + pieces[1] + ... + residual.

    pieces[0] is the coarsest smoothing; pieces[l] (l >= 1) the difference of
    the smoothings at scales s_l and s_{l-1}; the leftover qf - smooth(s_last)
    is reported as residual_form with its sup norm.
    """

    pieces: list
    strips: list
    residual_form: QuadraticForm
    residual_norm: float
    piece_norms: list = field(default_factory=list)
    bound_constants: list = field(default_factory=list)

    def analyticity_certificate(self, level: int) -> float:
        """Strip-weighted coefficient sum sum_k e^{s_l |k|} max-block|hat(k)|."""
        piece = self.pieces[level]
        s = self.strips[level]
        radii = np.linalg.norm(kgrid(piece.n, piece.K), axis=-1)
        weight = np.exp(s * radii)
        total = 0.0
        for b in piece.blocks():
            mags = np.linalg.norm(b, ord=2, axis=(-2, -1))
            total = max(total, float(np.sum(weight * mags)))
        return total


def decompose(
    qf: QuadraticForm,
    schedule: list,
    kernel: JacksonKernel,
    ws: WeightedSpace | None = None,
    theta_grid: int = 16,
) -> DyadicDecomposition:
    """Split qf along the strip-width schedule s_0 > s_1 > ... > 0, s_0 <= 1/2."""
    strips = [float(s) for s in schedule]
    if any(s <= 0 for s in strips) or any(
        b >= a for a, b in zip(strips, strips[1:])
    ):
        raise ScheduleError("strip widths must be positive and strictly decreasing")
    if strips and strips[0] > 0.5:
        raise ScheduleError("first strip width must be <= 1/2")

    # one smoothing at a time: each piece needs only the previous one
    pieces, prev = [], None
    for l, s in enumerate(strips):
        cur = smooth_form(qf, kernel, s)
        piece = cur if prev is None else cur - prev
        piece.strip = s
        piece.meta = {"piece_index": l, "strip_width": s}
        pieces.append(piece)
        prev = cur
    residual = qf - prev
    residual.strip = None
    del cur, prev  # the norms below see only the pieces and the residual

    G = max(theta_grid, 2 * qf.K + 2, 8)
    def supnorm(form: QuadraticForm) -> float:
        return max(max_spectral_norm(v) for v in form.grid_values(G))

    ws = ws or WeightedSpace(N=2, J_max=qf.J)
    piece_norms = []
    bound_constants = []
    for l, piece in enumerate(pieces):
        wn = form_norm(piece, ws, G)
        piece_norms.append(wn)
        bound_constants.append(wn / strips[l - 1] ** ws.N if l >= 1 else wn)

    return DyadicDecomposition(
        pieces=pieces,
        strips=strips,
        residual_form=residual,
        residual_norm=supnorm(residual),
        piece_norms=piece_norms,
        bound_constants=bound_constants,
    )
