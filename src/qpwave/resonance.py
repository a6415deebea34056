"""Small-divisor screening and excluded-set measurement on the scaling interval.

Admissibility of a scaling value tau in [1, 2] requires every divisor
-<k, omega0> tau + lam_i - lam_j (difference family) and
-<k, omega0> tau + lam_i + lam_j (sum family, covering both quadratic blocks
through the symmetric k window) to clear ``divisor_threshold``, which
kam.solve_homological applies to every divisor it divides by.

Measurement of the excluded subset is a grid scan over [1, 2], realized by
exact interval marking (each query excludes an explicit interval in tau).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fourier import kgrid


@dataclass
class DivisorQuery:
    k: tuple
    i: int
    j: int
    kind: str  # "zzbar" or "zz" (sum family; zbzb is its mirror in k)
    value: float
    threshold: float

    @property
    def margin(self) -> float:
        return abs(self.value) - self.threshold

    def as_dict(self) -> dict:
        return {
            "k": list(self.k), "i": self.i, "j": self.j, "kind": self.kind,
            "value": self.value, "threshold": self.threshold, "margin": self.margin,
        }


@dataclass
class ScreenResult:
    passed: bool
    worst: DivisorQuery
    n_queries: int


@dataclass
class ResonanceReport:
    m: int
    gamma_m: float
    K_m: int
    J_max: int
    grid_points: int
    tau_span: tuple
    excluded_fraction: float
    empirical_constant: float  # excluded_fraction / gamma_m^{1/3}
    n_queries: int
    per_k_stats: dict
    index_caps: dict
    excluded_mask: np.ndarray = field(repr=False, default=None)

    def as_dict(self) -> dict:
        return {
            "m": self.m, "gamma_m": self.gamma_m, "K_m": self.K_m,
            "J_max": self.J_max, "grid_points": self.grid_points,
            "tau_span": list(self.tau_span),
            "excluded_fraction": self.excluded_fraction,
            "empirical_constant": self.empirical_constant,
            "n_queries": self.n_queries,
            "per_k_stats": {str(k): v for k, v in sorted(self.per_k_stats.items())},
            "index_caps": {str(k): v for k, v in sorted(self.index_caps.items())},
        }


def _lambda_array(nf, J_max: int) -> np.ndarray:
    lam = nf.lambdas() if hasattr(nf, "lambdas") else np.asarray(nf, dtype=float)
    if lam.shape[0] < J_max:
        raise ValueError("normal form holds fewer modes than requested")
    return lam[:J_max]


def divisor_threshold(gap, k_inf, gamma_m: float, n: int):
    """Admissibility threshold (|i-j| + 1) gamma_m / (|k|_inf^(2n+3) + 8) for
    index gap |i-j| and ring |k|_inf (arrays broadcast)."""
    return (gap + 1.0) * gamma_m / (np.asarray(k_inf, dtype=float) ** (2 * n + 3) + 8.0)


def _enumerate_queries(lam: np.ndarray, omega0: np.ndarray, K_m: int,
                       gamma_m: float, J_max: int):
    """Affine query family: value(tau) = a * tau + b, threshold t.

    Yields tuples of arrays (a, b, t, kind_id, k_index, i, j). The difference
    family is pruned to |i - j| <= 4 * max_tau |<k, omega>|; the sum family to
    lam_i + lam_j <= 2 max|<k, omega0>| + 2 (larger sums cannot dip below
    threshold on tau in [1, 2]). kind_id: 0 = zzbar, 1 = zz.
    """
    omega0 = np.asarray(omega0, dtype=float)
    n = omega0.shape[0]
    kv = kgrid(n, K_m).reshape(-1, n)
    kdots = kv @ omega0
    kinf_v = np.max(np.abs(kv), axis=1)

    out = []
    # difference family, grouped by the index gap d = i - j
    dmax_per_k = np.minimum(J_max - 1, np.ceil(8.0 * np.abs(kdots))).astype(int)
    for d in range(-(J_max - 1), J_max):
        i_lo, i_hi = max(1, 1 + d), min(J_max, J_max + d)
        if i_lo > i_hi:
            continue
        i_arr = np.arange(i_lo, i_hi + 1)
        j_arr = i_arr - d
        b_arr = lam[i_arr - 1] - lam[j_arr - 1]
        if d == 0:
            k_sel = np.nonzero((dmax_per_k >= 0) & (kinf_v > 0))[0]
        else:
            k_sel = np.nonzero(dmax_per_k >= abs(d))[0]
        if k_sel.size == 0:
            continue
        a = -kdots[k_sel]
        t = divisor_threshold(abs(d), kinf_v[k_sel], gamma_m, n)
        A = np.repeat(a, i_arr.size)
        B = np.tile(b_arr, k_sel.size)
        T = np.repeat(t, i_arr.size)
        KI = np.repeat(k_sel, i_arr.size)
        I = np.tile(i_arr, k_sel.size)
        Jj = np.tile(j_arr, k_sel.size)
        out.append((A, B, T, np.zeros_like(KI), KI, I, Jj))

    # sum family over all k (value = -<k,w> tau + lam_i + lam_j)
    cap = 2.0 * float(np.max(np.abs(kdots))) + 2.0 if kdots.size else 2.0
    ii, jj = np.triu_indices(J_max)
    sums = lam[ii] + lam[jj]
    keep = sums <= cap
    ii, jj, sums = ii[keep] + 1, jj[keep] + 1, sums[keep]
    if ii.size:
        gaps = np.abs(ii - jj).astype(float)
        a = -kdots
        A = np.repeat(a, ii.size)
        B = np.tile(sums, kv.shape[0])
        T = divisor_threshold(np.tile(gaps, kv.shape[0]), np.repeat(kinf_v, ii.size),
                              gamma_m, n)
        KI = np.repeat(np.arange(kv.shape[0]), ii.size)
        I = np.tile(ii, kv.shape[0])
        Jj = np.tile(jj, kv.shape[0])
        out.append((A, B, T, np.ones_like(KI), KI, I, Jj))

    if not out:
        z = np.zeros(0)
        return z, z, z, z.astype(int), z.astype(int), z.astype(int), z.astype(int), kv
    cols = [np.concatenate([o[c] for o in out]) for c in range(7)]
    return (*cols, kv)


def screen_tau(tau: float, nf, omega0, K_m: int, gamma_m: float, J_max: int) -> ScreenResult:
    """Pass iff no divisor query violates its threshold at this tau."""
    if K_m < 0:
        raise ValueError("K_m must be >= 0")
    lam = _lambda_array(nf, J_max)
    A, B, T, kindid, KI, I, Jj, kv = _enumerate_queries(
        lam, np.asarray(omega0, float), K_m, gamma_m, J_max
    )
    if A.size == 0:
        dummy = DivisorQuery((0,) * len(tuple(np.atleast_1d(omega0))), 1, 1, "zzbar",
                             np.inf, 0.0)
        return ScreenResult(True, dummy, 0)
    margins = np.abs(A * float(tau) + B) - T
    w = int(np.argmin(margins))
    worst = DivisorQuery(
        k=tuple(int(x) for x in kv[KI[w]]),
        i=int(I[w]), j=int(Jj[w]),
        kind="zzbar" if kindid[w] == 0 else "zz",
        value=float(A[w] * tau + B[w]),
        threshold=float(T[w]),
    )
    return ScreenResult(bool(margins[w] >= 0.0), worst, int(A.size))


def measure_scan(
    nf,
    freq_template,
    K_m: int,
    gamma_m: float,
    J_max: int,
    grid_points: int = 10_000,
    m: int = 0,
    prev_mask: np.ndarray | None = None,
) -> ResonanceReport:
    """Scan tau over [1, 2]; a grid point is excluded iff some query interval
    covers it. Interval marking is exact for the affine query values."""
    if grid_points < 100:
        raise ValueError("need at least 100 grid points")
    omega0 = np.asarray(freq_template.omega0, dtype=float)
    n = omega0.shape[0]
    lam = _lambda_array(nf, J_max)
    A, B, T, kindid, KI, I, Jj, kv = _enumerate_queries(lam, omega0, K_m, gamma_m, J_max)
    taus = np.linspace(1.0, 2.0, grid_points)
    diff = np.zeros(grid_points + 1, dtype=np.int64)
    kinf_v = np.max(np.abs(kv), axis=1) if kv.size else np.zeros(0, int)

    per_k: dict = {}
    caps: dict = {}
    for ring in sorted(set(kinf_v.tolist())):
        caps[int(ring)] = float(ring ** (n + 1) * gamma_m ** (-1.0 / 3.0))

    edge_hits = np.zeros(grid_points, dtype=bool)
    if A.size:
        nz = A != 0.0
        lo = np.where(nz, (-T - B) / np.where(nz, A, 1.0), -np.inf)
        hi = np.where(nz, (T - B) / np.where(nz, A, 1.0), np.inf)
        swap = lo > hi
        lo2 = np.where(swap, hi, lo)
        hi2 = np.where(swap, lo, hi)
        const_excluded = (~nz) & (np.abs(B) < T)
        lo2 = np.where(const_excluded, -np.inf, np.where(nz, lo2, np.inf))
        hi2 = np.where(const_excluded, np.inf, np.where(nz, hi2, -np.inf))
        i_lo = np.searchsorted(taus, lo2, side="right")
        i_hi = np.searchsorted(taus, hi2, side="left")
        # mark the strict interior; settle the <= 2 edge grid points of each
        # query by evaluating the exclusion predicate exactly there
        core_lo = np.minimum(i_lo + 1, grid_points)
        core_hi = np.maximum(i_hi - 1, core_lo)
        valid = core_hi > core_lo
        np.add.at(diff, core_lo[valid], 1)
        np.add.at(diff, core_hi[valid], -1)
        for edge in (i_lo - 1, i_lo, i_hi - 1, i_hi):
            sel = (edge >= 0) & (edge < grid_points)
            idx = edge[sel]
            hit = np.abs(A[sel] * taus[idx] + B[sel]) < T[sel]
            np.logical_or.at(edge_hits, idx[hit], True)

        clip_lo = np.clip(lo2, 1.0, 2.0)
        clip_hi = np.clip(hi2, 1.0, 2.0)
        lengths = np.maximum(clip_hi - clip_lo, 0.0)
        for ring in caps:
            sel = kinf_v[KI] == ring
            per_k[int(ring)] = {
                "queries": int(np.sum(sel)),
                "excluded_length": float(np.sum(lengths[sel])),
                "min_threshold": float(np.min(T[sel])) if np.any(sel) else None,
            }

    excluded = (np.cumsum(diff[:-1]) > 0) | edge_hits
    if prev_mask is not None:
        base = ~prev_mask.astype(bool)
        fraction = float(np.sum(excluded & base) / max(np.sum(base), 1))
    else:
        fraction = float(np.mean(excluded))
    return ResonanceReport(
        m=m, gamma_m=gamma_m, K_m=K_m, J_max=J_max, grid_points=grid_points,
        tau_span=(1.0, 2.0), excluded_fraction=fraction,
        empirical_constant=float(fraction / gamma_m ** (1.0 / 3.0)),
        n_queries=int(A.size), per_k_stats=per_k, index_caps=caps,
        excluded_mask=excluded,
    )
