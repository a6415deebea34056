"""Truncated Hamiltonian data on the sine-mode lattice.

The wave field u = sum u_k sin(kx) with lam_k = k^2 turns the operator into a
lattice Hamiltonian whose quadratic coupling forms are built from the cosine
potential amplitudes v_j(theta) through the tensor c_jlk = integral of
cos(jx) sin(lx) sin(kx) over [-pi, pi]. All theta-dependence is carried as
coefficients on a hypercube Fourier window.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .fourier import kinf, reality_residual, window_to_grid
from .potential import PotentialFourier

HALF_PI = np.pi / 2.0


class DimensionError(ValueError):
    """Incompatible truncation sizes between engine objects."""


# ---------------------------------------------------------------------------
# Coupling tensor


@dataclass
class CouplingTensor:
    """Sparse c_jlk for 1 <= j,l,k <= J_max; nonzero only when k = +-l +- j."""

    J_max: int
    entries: dict = field(default_factory=dict)

    def coefficient(self, j: int, l: int, k: int) -> float:
        return self.entries.get((j, l, k), 0.0)

    @functools.cached_property
    def _dense(self) -> np.ndarray:
        J = self.J_max
        out = np.zeros((J, J, J))
        for (j, l, k), v in self.entries.items():
            out[j - 1, l - 1, k - 1] = v
        out.flags.writeable = False
        return out

    def dense(self) -> np.ndarray:
        """Dense (j, l, k) array, 0-based indices shifted by one; built once
        per tensor and returned read-only."""
        return self._dense


def coupling_tensor(J_max: int) -> CouplingTensor:
    """Closed-form tensor: pi/2 when k = l+-j >= 1, -pi/2 when k = -l+j >= 1."""
    if J_max < 1:
        raise ValueError("J_max must be >= 1")
    entries: dict = {}
    for j in range(1, J_max + 1):
        for l in range(1, J_max + 1):
            for k, val in ((l + j, HALF_PI), (l - j, HALF_PI), (j - l, -HALF_PI)):
                if 1 <= k <= J_max:
                    entries[(j, l, k)] = entries.get((j, l, k), 0.0) + val
    return CouplingTensor(J_max=J_max, entries=entries)


# ---------------------------------------------------------------------------
# Spectral norms

# |A|_F >= |A|_2, but the rounded Frobenius norm of a rank-one matrix can fall
# a few ulp below the SVD's sigma_max; this factor covers both roundings
FROBENIUS_MARGIN = 1.0 + 1e-12
_SVD_FIRST = 16
# below this largest bound, squared entries may underflow and the Frobenius
# norm is no longer a bound within the margin
_FROBENIUS_FLOOR = 1e-100


def _sigma_max(mats: np.ndarray) -> np.ndarray:
    return np.linalg.svd(mats, compute_uv=False).max(axis=-1)


def max_spectral_norm(mats: np.ndarray) -> float:
    """Largest spectral norm in a (..., r, c) batch, equal bit for bit to
    np.max(np.linalg.norm(mats, ord=2, axis=(-2, -1))).

    Each matrix's Frobenius norm bounds its spectral norm, so the SVD runs only
    on the matrices with the largest bounds and then on those whose bound
    still reaches the maximum found so far.
    """
    mats = np.asarray(mats)
    flat = mats.reshape((-1,) + mats.shape[-2:])
    bound = np.linalg.norm(flat, axis=(-2, -1)) * FROBENIUS_MARGIN
    top = float(np.max(bound))
    if not _FROBENIUS_FLOOR <= top < np.inf:  # zero, tiny, huge or NaN entries
        return float(np.max(np.linalg.norm(mats, ord=2, axis=(-2, -1))))
    first = np.argsort(bound)[-_SVD_FIRST:]
    best = _sigma_max(flat[first]).max()
    rest = bound >= best
    rest[first] = False
    if rest.any():
        best = max(best, _sigma_max(flat[rest]).max())
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
        """The metric weights on doubled coordinates u = (z, zbar)."""
        w = self.metric_weights
        return np.concatenate([w, w])

    def norm(self, z: np.ndarray) -> float:
        z = np.asarray(z)
        return float(np.sqrt(np.sum(self.modes ** (2 * self.N) * np.abs(z) ** 2, axis=-1)))

    def opnorm(self, mat: np.ndarray) -> float:
        """Operator norm h_N -> h_N of a (..., J, J) matrix (max over leading dims)."""
        return metric_opnorm(mat, self.metric_weights)

    def opnorm_weighted(self, mat: np.ndarray) -> float:
        """Operator norm h_N -> h_N of J * mat * J."""
        s = self.sqrt_weights
        return self.opnorm(mat * (s[:, None] * s[None, :]))


# ---------------------------------------------------------------------------
# Quadratic forms


@dataclass
class QuadraticForm:
    """Theta-dependent coefficient blocks of a quadratic Hamiltonian piece.

    H(theta) = <zz(theta) z, z> + <zzbar(theta) z, zbar> + <zbzb(theta) zbar, zbar>,
    each block stored as window Fourier coefficients, shape (2K+1,)*n + (J, J).
    zz/zbzb are kept symmetric; zzbar is a general matrix (it stays Hermitian
    at real theta along the iteration but need not be symmetric).
    """

    n: int
    K: int
    J: int
    zz: np.ndarray
    zzbar: np.ndarray
    zbzb: np.ndarray
    strip: float | None = None
    meta: dict = field(default_factory=dict)

    BLOCKS = ("zz", "zzbar", "zbzb")

    @classmethod
    def zeros(cls, n: int, K: int, J: int, strip: float | None = None) -> "QuadraticForm":
        shape = (2 * K + 1,) * n + (J, J)
        return cls(
            n=n, K=K, J=J,
            zz=np.zeros(shape, complex),
            zzbar=np.zeros(shape, complex),
            zbzb=np.zeros(shape, complex),
            strip=strip,
        )

    def blocks(self):
        return (self.zz, self.zzbar, self.zbzb)

    def copy(self) -> "QuadraticForm":
        return QuadraticForm(
            self.n, self.K, self.J,
            self.zz.copy(), self.zzbar.copy(), self.zbzb.copy(),
            self.strip, dict(self.meta),
        )

    def __add__(self, other: "QuadraticForm") -> "QuadraticForm":
        self._check_compatible(other)
        return QuadraticForm(
            self.n, self.K, self.J,
            self.zz + other.zz, self.zzbar + other.zzbar, self.zbzb + other.zbzb,
            self.strip,
        )

    def __sub__(self, other: "QuadraticForm") -> "QuadraticForm":
        self._check_compatible(other)
        return QuadraticForm(
            self.n, self.K, self.J,
            self.zz - other.zz, self.zzbar - other.zzbar, self.zbzb - other.zbzb,
            self.strip,
        )

    def scaled(self, c: float) -> "QuadraticForm":
        return QuadraticForm(
            self.n, self.K, self.J,
            c * self.zz, c * self.zzbar, c * self.zbzb, self.strip,
        )

    def _check_compatible(self, other: "QuadraticForm"):
        if (self.n, self.K, self.J) != (other.n, other.K, other.J):
            raise DimensionError("quadratic forms have mismatched truncations")

    def max_abs(self) -> float:
        return max(float(np.max(np.abs(b))) if b.size else 0.0 for b in self.blocks())

    def truncate(self, K_cut: int) -> tuple["QuadraticForm", "QuadraticForm"]:
        """Split into (modes |k|_inf <= K_cut, modes |k|_inf > K_cut); exact."""
        if K_cut < 0:
            raise ValueError("K_cut must be >= 0")
        rings = kinf(self.n, self.K)
        low_mask = (rings <= K_cut).reshape(rings.shape + (1, 1))
        low = [np.where(low_mask, b, 0.0) for b in self.blocks()]
        high = [np.where(low_mask, 0.0, b) for b in self.blocks()]
        return tuple(QuadraticForm(self.n, self.K, self.J, *blocks, self.strip, dict(self.meta))
                     for blocks in (low, high))

    def symmetrize(self):
        """Enforce the exact index symmetry of the zz and zbzb blocks."""
        tr = tuple(range(self.n)) + (self.n + 1, self.n)
        self.zz = 0.5 * (self.zz + self.zz.transpose(tr))
        self.zbzb = 0.5 * (self.zbzb + self.zbzb.transpose(tr))

    def symmetry_defect(self) -> float:
        tr = tuple(range(self.n)) + (self.n + 1, self.n)
        return max(
            float(np.max(np.abs(b - b.transpose(tr)))) for b in (self.zz, self.zbzb)
        )

    def zzbar_symmetry_defect(self) -> float:
        tr = tuple(range(self.n)) + (self.n + 1, self.n)
        return float(np.max(np.abs(self.zzbar - self.zzbar.transpose(tr))))

    def reality_defect(self) -> float:
        """Reality of the underlying theta-functions: hat(-k) = conj(hat(k))."""
        return max(reality_residual(b, self.n, self.K) for b in self.blocks())

    def structure_defect(self) -> float:
        """Real-Hamiltonian structure: conj(zz) pairs with zbzb and zzbar(theta)
        is Hermitian at real theta (hat(-k)^H = hat(k))."""
        rev = (slice(None, None, -1),) * self.n
        tr = tuple(range(self.n)) + (self.n + 1, self.n)
        d1 = float(np.max(np.abs(np.conj(self.zz[rev]) - self.zbzb)))
        d2 = float(np.max(np.abs(np.conj(self.zzbar[rev]).transpose(tr) - self.zzbar)))
        return max(d1, d2)

    def grid_values(self, G: int):
        """Block values on a uniform theta grid of at least window size,
        each (G,)*n + (J, J)."""
        G = max(G, 2 * self.K + 1)
        return tuple(window_to_grid(b, self.n, self.K, G) for b in self.blocks())

    # -- serialization: JSON manifest + raw little-endian complex blocks -----

    def save(self, directory: str | Path, name: str):
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        manifest = {
            "schema": 1,
            "n": self.n,
            "K": self.K,
            "J": self.J,
            "strip": self.strip,
            "meta": self.meta,
            "encoding": "complex128 little-endian float64 (re, im) pairs, "
                        "row-major over (k-window..., i, j)",
            "blocks": {},
        }
        for bname in self.BLOCKS:
            arr = np.ascontiguousarray(getattr(self, bname)).astype("<c16")
            fname = f"{name}.{bname}.bin"
            (directory / fname).write_bytes(arr.tobytes())
            manifest["blocks"][bname] = {"file": fname, "shape": list(arr.shape)}
        with open(directory / f"{name}.json", "w") as f:
            json.dump(manifest, f, indent=1, sort_keys=True)

    @classmethod
    def load(cls, directory: str | Path, name: str) -> "QuadraticForm":
        directory = Path(directory)
        with open(directory / f"{name}.json") as f:
            manifest = json.load(f)
        blocks = {}
        for bname in cls.BLOCKS:
            info = manifest["blocks"][bname]
            raw = (directory / info["file"]).read_bytes()
            blocks[bname] = np.frombuffer(raw, dtype="<c16").reshape(info["shape"]).astype(complex)
        return cls(
            n=manifest["n"], K=manifest["K"], J=manifest["J"],
            zz=blocks["zz"], zzbar=blocks["zzbar"], zbzb=blocks["zbzb"],
            strip=manifest["strip"], meta=manifest.get("meta", {}),
        )


# ---------------------------------------------------------------------------
# Assembly and norms


def assemble_initial_forms(
    pf: PotentialFourier, ct: CouplingTensor, ws: WeightedSpace
) -> QuadraticForm:
    """Coupling forms of the rescaled lattice Hamiltonian.

    With M(theta)_{il} = sum_j c_jli v_j(theta) / (sqrt(i) sqrt(l)), the blocks
    are zz = M/2, zzbar = M, zbzb = M/2.
    """
    J = ws.J_max
    if pf.J_max < J:
        raise DimensionError("potential holds fewer x-modes than the weighted space")
    if ct.J_max < J:
        raise DimensionError("coupling tensor smaller than the weighted space")
    C = ct.dense()[: pf.J_max, :J, :J]  # (j, l, k=row index i)
    M = np.einsum("...j,jli->...il", pf.v_hat, C)
    s = ws.sqrt_weights
    M = M / (s[:, None] * s[None, :])
    qf = QuadraticForm(
        n=pf.n, K=pf.K_theta, J=J,
        zz=0.5 * M, zzbar=M.copy(), zbzb=0.5 * M,
        strip=None,
    )
    qf.symmetrize()
    return qf


def form_norm(qf: QuadraticForm, ws: WeightedSpace, G: int) -> float:
    """Grid maximum over theta of the h_N -> h_N norm of J * block(theta) * J,
    over the three blocks, on a uniform grid of at least window size."""
    return float(max(ws.opnorm_weighted(v) for v in qf.grid_values(G)))
