"""Run orchestration: config ingestion, pipeline execution, checkpointing.

Pipeline: validate -> analyze -> assemble -> schedule/split -> screen ->
reduce -> verify, with per-step checkpoints under <out>/steps and a
deterministic summary.json (timings quarantined under their own key).
Everything before the screen's tau test is the front, which does not read
tau; a tau sweep builds it once and runs the rest at each tau.

A run, each sweep tau and the sweep's front run inside one stage context
(_Stages): `with stages.stage(name):` times each stage into timings[name]
and records the peak RSS after it, and any error becomes a PipelineAbort
whose detail names the stage, and the step in reduce. _run_dir alone
writes a run directory's config.json and summary.json, on every outcome.

Exit codes: 0 converged, 2 resonant scaling value, 3 step-size abort,
4 config error, 5 certificate failed (a step's or the verify stage's
conjugacy), 6 internal error (any other error in a stage). The engine's
errors take theirs from ENGINE_ERRORS.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import sys
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import resonance
from .fourier import half_index, kinf, product_grid_size
from .galerkin import (
    QuadraticForm,
    WeightedSpace,
    assemble_initial_forms,
    coupling_tensor,
    form_norm,
)
from .kam import (
    PUSH_NORM_GRID,
    STEP_TIMINGS,
    SYMPLECTIC_TOL,
    CertificateError,
    KamEngine,
    KamOptions,
    NormalForm,
    ResonanceError,
    Schedule,
    StepSizeError,
    TransformChain,
    build_schedule,
    flow_transform,
    seed_pieces,
)
from .potential import (
    FrequencySpec,
    InvalidPotentialError,
    PotentialFourier,
    fourier_analyze,
    make_potential,
    validate_assumptions,
)
from .smoothing import JacksonKernel, decompose
from .verify import (
    TruncatedWaveSystem,
    chain_initial_state,
    compare_through_chain,
    integrate_full,
    lyapunov_exponent,
    multiplier_decay,
)

EXIT_CONVERGED = 0
EXIT_RESONANT = 2
EXIT_STEPSIZE = 3
EXIT_CONFIG = 4
EXIT_CERTIFICATE = 5
EXIT_INTERNAL = 6

SCHEMA_VERSION = 1  # of summary.json; checkpoints have CHECKPOINT_SCHEMA

DEFAULT_OMEGA0 = (1.0, 1.4142135623730951, 1.7320508075688772, 2.2360679774997896)


# the types RunConfig.from_dict accepts for a field of each scalar annotation
_SCALAR_TYPES = {"int": int, "float": (int, float), "bool": bool}


@dataclass
class RunConfig:
    n: int = 2
    smoothness_N: int = 6
    gamma: float = 0.05
    eps: float = 1e-3
    tau: float = 1.48225
    tau_sweep: list | None = None
    omega0: list | None = None
    potential: dict = field(default_factory=lambda: {
        "preset": "finite_smooth", "scale": 0.1, "theta_band": 16,
        "coefficients": None,
    })
    J_max: int = 32
    K_theta: int = 16
    M: int = 4
    picard_tol: float = 1e-12
    residual_tol: float = 1e-10
    conjugacy_T: float = 100.0
    conjugacy_samples: int = 160
    lyapunov_T: float = 120.0
    lyapunov_renorm_dt: float = 1.0
    K_check: int = 20
    validation_grid: int = 24
    tau_grid_points: int = 10_000
    norm_grid: int = 12
    seed: int = 20260808
    # Always None: the BLAS thread count is the environment's
    # (OPENBLAS_NUM_THREADS). The key stays so summary.config keeps its keys.
    threads: None = None
    run_verify: bool = True

    def __post_init__(self):
        if self.omega0 is None:
            self.omega0 = list(DEFAULT_OMEGA0[: self.n])
        if len(self.omega0) != self.n:
            raise ValueError("omega0 length must equal n")
        if not (0.0 <= self.eps < 1.0):
            raise ValueError("eps must lie in [0, 1)")
        if self.tau_sweep is None and not (1.0 <= self.tau <= 2.0):
            raise ValueError("tau must lie in [1, 2]")
        if self.tau_sweep is not None:
            if len(self.tau_sweep) != 3:
                raise ValueError("tau_sweep must be [lo, hi, count]")
            lo, hi, count = (float(v) for v in self.tau_sweep)
            if not (1.0 <= lo <= 2.0 and 1.0 <= hi <= 2.0):
                raise ValueError("tau_sweep ends must lie in [1, 2]")
            if count < 2 or count != int(count):
                raise ValueError("tau_sweep needs an integer count >= 2")
        for name in ("picard_tol", "residual_tol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        # a Picard series cut off above the gate can leave a symplectic defect above it
        if self.picard_tol > SYMPLECTIC_TOL:
            raise ValueError(f"picard_tol must be <= {SYMPLECTIC_TOL:.0e}, the bound on "
                             "each step's symplectic_defect")
        if min(self.J_max, self.K_theta, self.M) < 1:
            raise ValueError("truncations and step count must be >= 1")
        if self.threads is not None:
            raise ValueError("threads is not a config setting; set OPENBLAS_NUM_THREADS "
                             "in the environment")

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        """The config of data's keys; an unknown key is a ValueError, and a
        value of the wrong type in an int, float or bool field a TypeError
        naming the field (an int field takes no bool, a float field an int)."""
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for name, value in data.items():
            kind = cls.__dataclass_fields__[name].type  # a string, by the __future__ import
            allowed = _SCALAR_TYPES.get(kind)
            if allowed and (not isinstance(value, allowed)
                            or (isinstance(value, bool) and kind != "bool")):
                raise TypeError(f"{name} must be {kind}, not {type(value).__name__}")
        return cls(**data)

    def as_dict(self) -> dict:
        return asdict(self)


def load_config(path: str | None, overrides: dict) -> RunConfig:
    data = {}
    if path:
        with open(path) as f:
            data = json.load(f)
        if not isinstance(data, dict):
            raise ValueError(f"{path}: a config is a JSON object, not {type(data).__name__}")
    data.update({k: v for k, v in overrides.items() if v is not None})
    return RunConfig.from_dict(data)


# ---------------------------------------------------------------------------
# Checkpoints: one directory per step, state.json and its arrays

CHECKPOINT_SCHEMA = 6  # format of a step directory
CHECKPOINT_ENCODING = (
    "complex128 little-endian float64 (re, im) pairs, row-major. Every array is an "
    "exactly symmetric (q, p) form of shape (k-window half..., 2J, 2J), coefficients "
    "for k_last >= 0, stored as the upper triangle of each matrix, diagonal included "
    "(numpy.triu_indices(2J)), on the centred window |k|_inf <= windows[name] of "
    "shape[:-2] (K if absent; -1 is the zero form, with no file). generator.bin holds "
    "the step's homological generator F, piece_<i>.bin remainder piece i; only the two "
    "newest steps keep pieces")
# the RunConfig fields the reduce reads: checkpoints written under other values
# hold another run's state
REDUCE_CONFIG_KEYS = ("n", "omega0", "tau", "gamma", "eps", "smoothness_N", "potential",
                      "J_max", "K_theta", "M", "picard_tol", "residual_tol", "norm_grid")


class CheckpointSchemaError(ValueError):
    """A checkpoint was written in another format, or steps/ has a gap."""


class CheckpointConfigError(ValueError):
    """A checkpoint was written under other values of the fields the reduce reads."""


def _reduce_config(config: RunConfig) -> dict:
    """config's REDUCE_CONFIG_KEYS fields as state.json stores them."""
    data = config.as_dict()
    return json.loads(json.dumps({key: data[key] for key in REDUCE_CONFIG_KEYS}))


def _save_complex(path: Path, arr: np.ndarray):
    path.write_bytes(np.ascontiguousarray(arr).astype("<c16").tobytes())


def _load_complex(path: Path, shape) -> np.ndarray:
    """The array of shape stored at path; a missing file or one of another
    byte count is a ValueError naming the file."""
    expected = 16 * int(np.prod(shape))
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        data = None
    if data is None or len(data) != expected:
        found = "no file" if data is None else f"{len(data)} bytes"
        raise ValueError(f"checkpoint array {path}: expected {expected} bytes, found {found}")
    return np.frombuffer(data, dtype="<c16").reshape(shape).astype(complex)


def _window(n: int, K: int, K_s: int) -> tuple:
    """Index of the centred window |k|_inf <= K_s in a half-window array of
    truncation K: rows K-K_s..K+K_s of the first n-1 axes, 0..K_s of the last."""
    return (slice(K - K_s, K + K_s + 1),) * (n - 1) + (slice(0, K_s + 1),)


def _support(coeffs: np.ndarray, n: int, K: int) -> int:
    """The least K_s whose window holds every nonzero coefficient of a
    half-window form of truncation K; -1 for the zero form."""
    rings = kinf(n, K)[half_index(n, K)][coeffs.any(axis=(-2, -1))]
    return int(rings.max()) if rings.size else -1


def _load_form(path: Path, state: dict) -> QuadraticForm:
    """The symmetric form stored at path as the upper triangles of its window
    |k|_inf <= K_s, zero outside it; K_s is state.json's windows entry, K
    without one, and -1 (the zero form) reads no file. (n, K, J) come from
    the stored shape, (2K+1,)*(n-1) + (K+1, 2J, 2J)."""
    shape = state["shape"]
    n, K, J = len(shape) - 2, shape[-3] - 1, shape[-1] // 2
    K_s = state["windows"].get(path.name, K)
    if type(K_s) is not int or not -1 <= K_s <= K:
        raise ValueError(f"checkpoint array {path}: window K_s = {K_s!r} outside [-1, {K}]")
    out = np.zeros(shape, dtype=complex)
    if K_s >= 0:
        window = _window(n, K, K_s)
        packed = _load_complex(path, [2 * K_s + 1] * (n - 1) + [K_s + 1, J * (2 * J + 1)])
        rows, cols = np.triu_indices(2 * J)
        out[(*window, rows, cols)] = packed
        out[(*window, cols, rows)] = packed
    return QuadraticForm(n, K, J, out)


def _step_map(path: Path, state: dict, ws: WeightedSpace, grid: int,
              picard_tol: float) -> np.ndarray:
    """P_hat of a stored step: the flow of its generator at path, which must
    give the step record's P_norm, symplectic_defect and picard_terms bit for
    bit (else a ValueError naming the file)."""
    record = state["record"]
    try:
        flow = flow_transform(_load_form(path, state), record["eps_m"], ws, grid, picard_tol)
    except StepSizeError as e:
        raise ValueError(f"checkpoint array {path}: {e}") from None
    keys = ("P_norm", "symplectic_defect", "picard_terms")
    got, want = [getattr(flow, key) for key in keys], [record[key] for key in keys]
    if got != want:
        raise ValueError(f"checkpoint array {path}: its flow gives {dict(zip(keys, got))}, "
                         f"the step record {dict(zip(keys, want))}")
    return flow.P_hat


def machine_info() -> dict:
    """What a run's timings depend on beyond its config: numpy and its BLAS,
    the core count and the BLAS thread settings of the environment."""
    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy < 1.26 has no dict mode
        blas = {}
    return {
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "cpu_count": os.cpu_count(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def peak_rss_mib() -> float:
    """Peak resident set size of this process so far, in MiB (Linux reports
    ru_maxrss in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _write_text(path: Path, text: str):
    """Write text through a temporary sibling and a rename, so that a kill
    mid-write leaves the old file or the new one, never a part of one."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _write_json(path: Path, payload: dict):
    _write_text(path, json.dumps(payload, indent=1, sort_keys=True))


def save_checkpoint(out: Path, engine: KamEngine, record: dict, config: RunConfig):
    """Write step m's checkpoint, its generator and remainder pieces, into a
    temporary sibling, then rename it to step_<m>, so that a step_*
    directory is either complete or absent. Then drop the pieces of every
    step before m - 1: resume reads the pieces of the newest complete step
    only, and step m - 1 keeps its own for a resume after step m is lost.
    Each form is written on the window its nonzero coefficients fill, named
    in windows when smaller than K, and an all-zero form gets no file. A
    form that is not exactly symmetric, which its upper triangle would not
    restore, is a ValueError."""
    st = engine.state
    forms = {f"piece_{i}.bin": piece.coeffs for i, piece in enumerate(st.remainder)}
    forms["generator.bin"] = engine.generator.coeffs
    for name, coeffs in forms.items():
        if not np.array_equal(coeffs, np.swapaxes(coeffs, -1, -2)):
            raise ValueError(f"{name}: the form is not exactly symmetric; "
                             "its checkpoint stores the upper triangle only")
    m_done = st.m  # steps completed
    steps = out / "steps"
    step_dir = steps / f"step_{m_done - 1:03d}"
    tmp_dir = step_dir.with_name(f".{step_dir.name}.tmp")  # not matched by step_*
    if tmp_dir.exists():
        shutil.rmtree(tmp_dir)
    tmp_dir.mkdir(parents=True)
    n, K, J = engine.generator.n, engine.generator.K, engine.generator.J
    upper = np.triu_indices(2 * J)
    windows = {}
    for name, coeffs in forms.items():
        K_s = _support(coeffs, n, K)
        if K_s < K:
            windows[name] = K_s
        if K_s >= 0:
            _save_complex(tmp_dir / name, coeffs[_window(n, K, K_s)][(..., *upper)])
    _write_json(tmp_dir / "state.json", {
        "schema": CHECKPOINT_SCHEMA,
        "config": _reduce_config(config),
        "m_next": st.m,
        "record": record,
        "mu_history": [[e, mu.tolist()] for e, mu in st.normal_form.mu_history],
        "pieces": len(st.remainder),
        "shape": list(engine.generator.coeffs.shape),
        "windows": windows,
        "encoding": CHECKPOINT_ENCODING,
    })
    if step_dir.exists():
        shutil.rmtree(step_dir)
    os.replace(tmp_dir, step_dir)
    for m in range(m_done - 2):
        for path in (steps / f"step_{m:03d}").glob("piece_*.bin"):
            path.unlink()


def checkpoint_states(out: Path, config: RunConfig) -> list:
    """(step directory, state.json contents) of step_000, step_001, ...; only
    the last may lack its state.json. A gap before the last, a state.json of
    another CHECKPOINT_SCHEMA or one that is not JSON raises
    CheckpointSchemaError naming it, one written under other values of
    REDUCE_CONFIG_KEYS than config's CheckpointConfigError naming them."""
    expected = _reduce_config(config)
    steps = out / "steps"
    names = sorted(d.name for d in steps.glob("step_*"))
    found = []
    for m, name in enumerate(names):
        d = steps / f"step_{m:03d}"
        path = d / "state.json"
        if name != d.name or not path.exists():
            if name == d.name == names[-1]:
                break  # an interrupted write: resume recomputes from this step on
            raise CheckpointSchemaError(f"{d}: missing or incomplete, yet {steps / names[-1]} "
                                        "is present")
        try:
            state = json.loads(path.read_text())
        except json.JSONDecodeError as e:
            raise CheckpointSchemaError(f"{path}: not JSON: {e}") from None
        if state.get("schema") != CHECKPOINT_SCHEMA:
            raise CheckpointSchemaError(f"{path}: checkpoint schema {state.get('schema')}, "
                                        f"expected {CHECKPOINT_SCHEMA}")
        differ = sorted(key for key, value in expected.items()
                        if state["config"].get(key) != value)
        if differ:
            raise CheckpointConfigError(f"{path}: checkpoint written under other "
                                        f"values of {differ}")
        found.append((d, state))
    return found


def load_checkpoints(config: RunConfig, found: list | None):
    """Rebuild (m_next, mu_history, pieces, chain, records) from the
    checkpoint_states found, or None without any.

    Each chain step is the flow of its stored generator, run again as the
    step ran it (_step_map), and the newest step's pieces must have its
    record's new_piece_norms on PUSH_NORM_GRID bit for bit (those norms stay
    in the pieces' form_norm memo for the resumed steps). A mismatch, or a
    missing or mis-sized array, is a ValueError naming the file."""
    if not found:
        return None
    ws = WeightedSpace(config.smoothness_N, config.J_max)
    grid = product_grid_size(config.K_theta)
    chain = TransformChain([_step_map(d / "generator.bin", state, ws, grid, config.picard_tol)
                            for d, state in found])
    last, state = found[-1]
    pieces, norms = [], state["record"]["new_piece_norms"]
    for i in range(state["pieces"]):
        path = last / f"piece_{i}.bin"
        pieces.append(_load_form(path, state))
        got, want = form_norm(pieces[-1], ws, PUSH_NORM_GRID), norms[i]
        if got != want:
            raise ValueError(f"checkpoint array {path}: its form_norm is {got!r}, "
                             f"the step record's new_piece_norms[{i}] {want!r}")
    mu_history = [(float(e), np.asarray(mu, dtype=float))
                  for e, mu in state["mu_history"]]
    return state["m_next"], mu_history, pieces, chain, [s["record"] for _, s in found]


# ---------------------------------------------------------------------------
# Pipeline


class PipelineAbort(Exception):
    """A run that ends without converging: its exit code, status and detail."""

    def __init__(self, code: int, status: str, detail: str):
        self.code, self.status, self.detail = code, status, detail
        super().__init__(detail)


# the engine's errors that end a run with their own exit code and status
ENGINE_ERRORS = ((ResonanceError, EXIT_RESONANT, "resonant_tau"),
                 (StepSizeError, EXIT_STEPSIZE, "step_size_abort"),
                 (CertificateError, EXIT_CERTIFICATE, "certificate_failed"))


class _Stages:
    """The stage record of one run, or of a sweep's front: the current stage
    name, timings and the start time. A stage stays current after it ends,
    until the next one begins. As a context manager it turns any error but a
    PipelineAbort into one whose detail names the current stage: an engine
    error by ENGINE_ERRORS, any other as internal_error with its type."""

    def __init__(self):
        self.name = "setup"
        self.start = time.time()
        self.timings: dict = {"peak_rss_mb": []}  # [stage or step, peak RSS so far] in run order

    def __enter__(self):
        return self

    def __exit__(self, kind, e, traceback):
        if not isinstance(e, Exception) or isinstance(e, PipelineAbort):
            return False
        for error, code, status in ENGINE_ERRORS:
            if isinstance(e, error):
                raise PipelineAbort(code, status, f"{self.name}: {e}") from e
        raise PipelineAbort(EXIT_INTERNAL, "internal_error",
                            f"{self.name}: {type(e).__name__}: {e}") from e

    @contextlib.contextmanager
    def stage(self, name: str, rss: bool = True):
        """Make name the current stage; once it ends without an error, add
        its wall time to timings[name] and, if rss, the peak RSS after it."""
        self.name = name
        t0 = time.time()
        yield
        self.done(name, t0, rss)

    def done(self, name: str, t0: float, rss: bool = True):
        self.timings[name] = self.timings.get(name, 0.0) + time.time() - t0
        if rss:
            self.timings["peak_rss_mb"].append([name, peak_rss_mib()])


def _build_inputs(config: RunConfig, tau: float):
    freq = FrequencySpec(tuple(config.omega0), tau, config.gamma)
    pot_cfg = dict(config.potential)
    preset = pot_cfg.get("preset", "finite_smooth")
    coefficients = pot_cfg.get("coefficients")
    if coefficients is not None:
        # config format: list of [[k_1, ..., k_n], j, re, im]
        coefficients = {
            (tuple(int(x) for x in row[0]), int(row[1])): complex(row[2], row[3])
            for row in coefficients
        }
    spec, table = make_potential(
        preset, freq, eps=config.eps, N=config.smoothness_N,
        scale=pot_cfg.get("scale", 1.0),
        theta_band=pot_cfg.get("theta_band", config.K_theta),
        coefficients=coefficients,
    )
    return freq, spec, table


def _schedule(config: RunConfig) -> Schedule:
    """The run's schedule: degenerate at eps = 0."""
    if config.eps == 0.0:
        return Schedule.degenerate_schedule(config.n, config.smoothness_N, config.gamma)
    return build_schedule(config.eps, config.smoothness_N, config.gamma, config.n, config.M)


def _screen(config: RunConfig, sched: Schedule) -> resonance.ScreenResult:
    """The resonance screen of config.tau at step 0's cutoff K_eff(0) and
    gamma_0, the one that run and validate both apply."""
    return resonance.screen_tau(config.tau, NormalForm(J=config.J_max),
                                np.asarray(config.omega0), sched.K_eff(0, config.K_theta),
                                float(sched.gamma_steps[0]), config.J_max)


@dataclass
class _Front:
    """The part of a run that does not read tau: inputs, validation,
    analysis, assembly, schedule and split, the seeded step-0 pieces and the
    step-0 resonance scan (which reads omega0 only). A sweep builds it once
    for all its taus."""

    freq: FrequencySpec  # at the tau it was built for; a run replaces tau
    pf: PotentialFourier
    ct: np.ndarray  # coupling_tensor(J_max)
    ws: WeightedSpace
    sched: Schedule
    pieces: list | None  # the run's engine takes them over
    scan: resonance.ResonanceReport
    scan_csv: str  # resonance.csv of the scan, which every run writes
    summary: dict  # its sections of a run summary


def run_pipeline(config: RunConfig, out_dir: str | Path, resume: bool = False) -> dict:
    """Execute the full pipeline, the front and then the run at config.tau;
    returns the summary dict (also written).

    A resume first checks the stored checkpoints against config; a check
    that fails (config_error if it refuses them) writes nothing. Any other
    error becomes a PipelineAbort naming the stage, and the step in reduce."""
    found = None
    if resume and config.eps != 0.0:  # a degenerate run has no steps to resume
        with _Stages():
            try:
                found = checkpoint_states(Path(out_dir), config)
            except (CheckpointSchemaError, CheckpointConfigError) as e:
                raise PipelineAbort(EXIT_CONFIG, "config_error", f"resume: {e}") from None
    return _run_dir(config, out_dir, None, found)


def _run_dir(config: RunConfig, out_dir: str | Path, front: _Front | PipelineAbort | None,
             found: list | None = None) -> dict:
    """Open the run directory (config.json), run config.tau from front (built
    here if None; a sweep's failed front fails the run) and the checkpoints
    found, then write summary.json: the full summary if the run reaches its
    end, else {status, detail, config}. Then raise its PipelineAbort, also if
    that summary cannot be written."""
    out = Path(out_dir)
    try:
        with _Stages() as stages:
            _write_json(out / "config.json", config.as_dict())
            if front is None:
                front = _front(config, stages)
            elif isinstance(front, PipelineAbort):
                raise front.with_traceback(None)
            else:  # the run's engine takes over its own list of the sweep's pieces
                front = replace(front, pieces=list(front.pieces))
            summary = _run_tau(config, out, front, stages, found)
            _write_json(out / "summary.json", summary)
    except PipelineAbort as e:
        with contextlib.suppress(OSError):
            _write_json(out / "summary.json", {"status": e.status, "detail": e.detail,
                                               "config": config.as_dict()})
        raise
    if summary["status"] != "converged":
        raise PipelineAbort(EXIT_CERTIFICATE, summary["status"], summary["detail"])
    return summary


def _front(config: RunConfig, stages: _Stages) -> _Front:
    summary: dict = {}
    try:
        freq, spec, _ = _build_inputs(config, config.tau)
    except (ValueError, InvalidPotentialError) as e:
        raise PipelineAbort(EXIT_CONFIG, "config_error", str(e))

    # 1. validate
    with stages.stage("validate"):
        try:
            report = validate_assumptions(spec, config.K_check, config.validation_grid)
        except InvalidPotentialError as e:
            raise PipelineAbort(EXIT_CONFIG, "config_error", str(e))
        summary["validation"] = report.as_dict()
    if not report.all_ok:
        raise PipelineAbort(EXIT_CONFIG, "config_error",
                            f"potential assumptions failed: {report.as_dict()}")

    # 2. analyze
    with stages.stage("analyze"):
        pf = fourier_analyze(spec, config.K_theta, config.J_max)
        summary["potential_tail"] = {"tail_norm": pf.tail_norm, "flagged": pf.tail_flagged}

    with stages.stage("assemble"):
        ws = WeightedSpace(config.smoothness_N, config.J_max)
        ct = coupling_tensor(config.J_max)
        qf0 = assemble_initial_forms(pf, ct, ws)

    # 3. schedule, analytic split and the step-0 pieces (a degenerate
    # schedule gets none)
    with stages.stage("schedule_split"):
        sched = _schedule(config)
        dec = None
        if not sched.degenerate:
            dec = decompose(qf0, list(sched.strip), JacksonKernel(), ws=ws)
            summary["decomposition"] = {
                "piece_norms": dec.piece_norms,
                "residual_norm": dec.residual_norm,
                "bound_constants": dec.bound_constants,
            }
        del qf0  # the split was its only reader
        pieces = seed_pieces(dec, sched.eps0, sched)
        del dec  # the seeding was its only reader
        summary["schedule"] = sched.as_dict()

    # 4. screen, its tau-independent part: step 0's measure scan (base
    # frequencies, cutoff K_eff(0), gamma_0); a run adds its own screen's
    # time and the peak RSS after it
    with stages.stage("screen", rss=False):
        scan = resonance.measure_scan(NormalForm(J=config.J_max), freq,
                                      sched.K_eff(0, config.K_theta),
                                      float(sched.gamma_steps[0]), config.J_max,
                                      config.tau_grid_points)
        scan_csv = _resonance_csv(scan)
    return _Front(freq, pf, ct, ws, sched, pieces, scan, scan_csv, summary)


def _run_tau(config: RunConfig, out: Path, front: _Front, stages: _Stages,
             found: list | None) -> dict:
    """The run at config.tau from its front: screen, reduce, the per-step
    scans for m >= 1 and verify; returns the summary, converged or
    certificate_failed at verify. A resume continues from the
    checkpoint_states found, if any."""
    freq = replace(front.freq, tau=config.tau)
    sched, ws = front.sched, front.ws
    summary: dict = {
        "schema_version": SCHEMA_VERSION,
        "config": config.as_dict(),
        "status": "incomplete",
        **front.summary,
    }

    # 4. screen at entry parameters (the front ran step 0's scan)
    with stages.stage("screen"):
        screen = _screen(config, sched)
        summary["resonance"] = {
            "screen_passed": screen.passed,
            "worst_query": screen.worst.as_dict(),
            "scan": front.scan.as_dict(),
        }
        _write_text(out / "resonance.csv", front.scan_csv)
    if not screen.passed:
        raise PipelineAbort(EXIT_RESONANT, "resonant_tau",
                            f"tau={config.tau} rejected: {screen.worst.as_dict()}")

    # 5. reduce (a degenerate schedule gets no pieces and no steps)
    timings = stages.timings
    with stages.stage("reduce"):
        opts = KamOptions(picard_tol=config.picard_tol,
                          residual_tol=config.residual_tol,
                          norm_grid=config.norm_grid)
        restored = load_checkpoints(config, found)
        if restored is not None:
            m_next, mu_history, pieces, chain, records = restored
            nf = NormalForm(J=config.J_max, mu_history=mu_history)
            engine = KamEngine(pieces, freq, sched, ws, K_theta=config.K_theta,
                               options=opts, normal_form=nf, chain=chain,
                               m_start=m_next, diagnostics=list(records))
        else:
            engine = KamEngine(front.pieces, freq, sched, ws, K_theta=config.K_theta,
                               options=opts)
        # the engine alone holds the step-0 or restored pieces, so that each
        # step frees the pieces it replaces (a sweep's front keeps its own
        # list of them)
        restored = pieces = front.pieces = None
        timings["steps"] = []  # the engine's sub-stage times of each step run here
        while not engine.finished:
            stages.name = f"reduce, step m={engine.state.m}"
            record = engine.step()
            t_save = time.time()
            save_checkpoint(out, engine, record, config)
            timings["steps"].append({"m": record["m"], **engine.step_timings,
                                     "save_s": time.time() - t_save})
            timings["peak_rss_mb"].append([f"step {record['m']}", peak_rss_mib()])
        stages.name = "reduce"
        result = engine.result()
        del engine  # with its last pieces and generator: the rest reads result

    summary["steps"] = result.history
    summary["normal_form"] = {
        "lambda_final": result.normal_form.lambdas().tolist(),
        "mu_decay_constants": result.normal_form.mu_decay_constants(),
    }

    # nested admissible-set bookkeeping: per-step scans with the running
    # frequencies, chaining the excluded masks across steps; step 0's is the
    # front's scan (base frequencies, same cutoff and gamma_0, no mask)
    if not sched.degenerate:
        scan_m, mask = front.scan, front.scan.excluded_mask
        per_step_scans = []
        hist = result.normal_form.mu_history
        for m in range(sched.M):
            if m > 0:
                scan_m = resonance.measure_scan(
                    NormalForm(J=config.J_max, mu_history=hist[:m]), freq,
                    sched.K_eff(m, config.K_theta), float(sched.gamma_steps[m]),
                    config.J_max, config.tau_grid_points, m=m, prev_mask=mask,
                )
                mask = mask | scan_m.excluded_mask
            entry = scan_m.as_dict()
            entry["cumulative_admissible_fraction"] = float(1.0 - np.mean(mask))
            per_step_scans.append(entry)
        summary["resonance"]["per_step"] = per_step_scans
    summary["contraction_exponents"] = result.contraction_exponents()
    summary["composed_transform_norm"] = result.composed_norm
    summary["final_weighted_size"] = result.final_weighted_size
    summary["final_remainder_norm"] = result.final_remainder_norm

    mult = multiplier_decay(result.normal_form.lambdas())
    summary["multiplier"] = mult.as_dict()

    # 6. verify
    detail = None
    if config.run_verify:
        with stages.stage("verify"):
            summary["verify"] = _verify_stage(config, freq, front.pf, front.ct, result, ws,
                                              sched, out)
        conj = summary["verify"]["conjugacy"]
        if not conj["within_tolerance"]:
            detail = (f"verify: conjugacy max_rel_deviation {conj['max_rel_deviation']:.3e}"
                      f" > tolerance {conj['tolerance']:.3e}")
            summary["detail"] = detail

    stages.name = "summary"
    summary["status"] = "converged" if detail is None else "certificate_failed"
    timings["total"] = time.time() - stages.start
    timings["machine"] = machine_info()
    summary["timings"] = timings
    return summary


def _verify_stage(config: RunConfig, freq, pf, ct, result, ws, sched: Schedule,
                  out: Path) -> dict:
    rng = np.random.default_rng(config.seed)
    J = config.J_max
    theta0 = np.zeros(config.n)
    sys_full = TruncatedWaveSystem(pf, ct, freq, config.eps, J, theta0)

    # initial state: smooth profile mapped through the chain at theta0
    decay = np.arange(1, J + 1, dtype=float) ** (-(config.smoothness_N + 1.0))
    y0 = chain_initial_state(result.chain, theta0, decay, rng.uniform(0, 2 * np.pi, J))

    times, states = integrate_full(sys_full, y0, config.conjugacy_T,
                                   record_every=None)
    sub = max(1, len(times) // config.conjugacy_samples)
    lam = result.normal_form.lambdas()
    conj = compare_through_chain(result.chain, times, states, lam, theta0,
                                 freq.omega, ws, subsample=sub)
    # residual_tol floors the tolerance at roundoff: at eps=0 every other term is 0
    tol = 10.0 * max(result.final_remainder_norm, result.final_weighted_size,
                     sched.eps_at(sched.M), config.residual_tol)
    _write_series_csv(out, "conjugacy.csv", "rel_deviation", conj.times, conj.deviations)

    lyap_T = config.lyapunov_T
    est_4T = lyapunov_exponent(sys_full, 4 * lyap_T, config.lyapunov_renorm_dt,
                               ws=ws, seed=config.seed)
    estimate_T = est_4T.prefix_exponent(lyap_T)
    _write_series_csv(out, "lyapunov.csv", "cum_log_growth", est_4T.times, est_4T.growth)

    norms = ws.state_norm(states)
    energy_drift = None
    if config.eps == 0.0:
        e0 = sys_full.energy(states[0])
        energies = np.array([sys_full.energy(s) for s in states])
        energy_drift = float(np.max(np.abs(energies - e0)) / max(abs(e0), 1e-300))

    return {
        "conjugacy": {
            "max_rel_deviation": conj.max_rel_deviation,
            "modulus_drift": conj.modulus_drift,
            "tolerance": tol,
            "within_tolerance": bool(conj.max_rel_deviation <= tol),
            "horizon": config.conjugacy_T,
        },
        "lyapunov": {
            "estimate_T": estimate_T,
            "estimate_4T": est_4T.top_exponent,
            "horizon_T": lyap_T,
            "shrink_factor": (abs(estimate_T) / max(abs(est_4T.top_exponent), 1e-300)),
        },
        "energy_drift": energy_drift,
        "state_norm_ratio": float(np.max(norms) / max(norms[0], 1e-300)),
    }


def _resonance_csv(scan) -> str:
    """resonance.csv of a scan: tau and its excluded flag, about 2000 rows."""
    taus = np.linspace(scan.tau_span[0], scan.tau_span[1], scan.grid_points)
    stride = max(1, scan.grid_points // 2000)
    return "tau,excluded\n" + "".join(
        f"{t:.6f},{int(flag)}\n" for t, flag in zip(taus[::stride], scan.excluded_mask[::stride]))


def _write_series_csv(out: Path, name: str, column: str, times, values):
    """trajectories/<name>: one (t, value) row per time."""
    _write_text(out / "trajectories" / name, f"t,{column}\n" + "".join(
        f"{t:.6f},{v:.12e}\n" for t, v in zip(times, values)))


# ---------------------------------------------------------------------------
# Sweep


def sweep_tau(config: RunConfig, out_dir: str | Path) -> dict:
    """Run the pipeline at each tau of config.tau_sweep into the run
    directory tau_<i>/ (_run_dir): the front once, then the run at each tau.
    A front that fails gives every tau its status; the front's stage times
    and peak RSS go under timings. A config without tau_sweep is a
    config_error that writes nothing."""
    if config.tau_sweep is None:
        raise PipelineAbort(EXIT_CONFIG, "config_error",
                            "tau_sweep must be [lo, hi, count]")
    front_stages = _Stages()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lo, hi, count = config.tau_sweep
    count = int(count)
    taus = np.linspace(float(lo), float(hi), count)
    runs = [RunConfig.from_dict({**config.as_dict(), "tau": float(tau), "tau_sweep": None})
            for tau in taus]
    try:
        with front_stages:
            front = _front(runs[0], front_stages)
    except PipelineAbort as e:
        front = e  # every tau fails as the front did
    front_stages.done("front", front_stages.start)
    results = []
    for i, run in enumerate(runs):
        try:
            s = _run_dir(run, out / f"tau_{i:03d}", front)
            results.append({"tau": run.tau, "status": "converged",
                            "max_abs_xi": s["multiplier"]["max_abs"]})
        except PipelineAbort as e:
            results.append({"tau": run.tau, "status": e.status, "detail": e.detail})
    # only the resonance screen excludes a tau; step-size aborts and failed
    # certificates are neither converged nor excluded
    statuses = [r["status"] for r in results]
    excluded = statuses.count("resonant_tau") / count
    front_stages.timings["total"] = time.time() - front_stages.start  # of the whole sweep
    aggregate = {
        "schema_version": SCHEMA_VERSION,
        "taus": taus.tolist(),
        "results": results,
        "converged_fraction": statuses.count("converged") / count,
        "excluded_fraction": excluded,
        "empirical_constant": excluded / config.gamma ** (1.0 / 3.0),
        "bound_form": "converged_fraction >= 1 - c * gamma^(1/3)",
        "timings": front_stages.timings,
    }
    _write_json(out / "sweep_summary.json", aggregate)
    return aggregate


# ---------------------------------------------------------------------------
# Entry points


def _cmd_validate(config: RunConfig, out: Path) -> int:
    try:
        freq, spec, _ = _build_inputs(config, config.tau)
        report = validate_assumptions(spec, config.K_check, config.validation_grid)
        screen = _screen(config, _schedule(config))
        payload = {"validation": report.as_dict(),
                   "screen_passed": screen.passed,
                   "worst_query": screen.worst.as_dict()}
        _write_json(out / "validate.json", payload)
        print(json.dumps(payload, indent=1, sort_keys=True))
        if not report.all_ok:
            return EXIT_CONFIG
        return EXIT_CONVERGED if screen.passed else EXIT_RESONANT
    except (ValueError, InvalidPotentialError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG


def _report_cell(value) -> str:
    # a null step field renders as an empty cell
    return "" if value is None else f"{value:.6e}"


def _timings_report(timings: dict) -> str:
    """timings_report.csv: one row per stage and step in run order (the order
    of timings.peak_rss_mb): stage seconds, step sub-stage and
    checkpoint-save seconds, peak RSS so far; then the total. Cells a summary
    lacks stay empty (a run from before timings.steps has no sub-stage
    cells)."""
    steps = {f"step {entry['m']}": entry for entry in timings.get("steps", [])}
    columns = STEP_TIMINGS + ("save_s",)
    rows = [("entry", "seconds") + columns + ("peak_rss_mb",)]
    for name, rss in timings.get("peak_rss_mb", []):
        sub = steps.get(name, {})
        rows.append([name, _report_cell(timings.get(name)),
                     *(_report_cell(sub.get(key)) for key in columns), _report_cell(rss)])
    rows.append(["total", _report_cell(timings.get("total"))] + [""] * (len(columns) + 1))
    return "".join(",".join(row) + "\n" for row in rows)


def _steps_report(steps: list) -> str:
    """steps_report.csv: one row of certificates per step record."""
    rows = ["m,eps_m,K_eff,divisor_min,homological_residual,P_norm,P_bound,"
            "symplectic_defect,consistency_defect,weighted_size"]
    for rec in steps:
        cells = [str(rec["m"]), _report_cell(rec["eps_m"]), str(rec["K_eff"])]
        cells += [_report_cell(rec[key]) for key in
                  ("divisor_min", "homological_residual", "P_norm", "P_bound",
                   "symplectic_defect", "consistency_defect", "weighted_size")]
        rows.append(",".join(cells))
    return "".join(row + "\n" for row in rows)


def _cmd_report(out: Path) -> int:
    """Re-render steps_report.csv and timings_report.csv from the run's
    summary.json, without recomputation. A summary.json that is not JSON, or
    not of a run summary's shape, is a config error naming the file, and
    neither report is written."""
    summary_path = out / "summary.json"
    if not summary_path.exists():
        print("no summary.json under --out", file=sys.stderr)
        return EXIT_CONFIG
    try:
        summary = json.loads(summary_path.read_text())
        if not isinstance(summary, dict):
            raise TypeError(f"a summary is a JSON object, not {type(summary).__name__}")
        steps_csv = _steps_report(summary.get("steps", []))
        timings_csv = _timings_report(summary.get("timings", {}))
    except json.JSONDecodeError as e:
        print(f"{summary_path}: not JSON: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except KeyError as e:
        print(f"{summary_path}: missing key {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (TypeError, AttributeError, ValueError) as e:
        print(f"{summary_path}: not a run summary: {e}", file=sys.stderr)
        return EXIT_CONFIG
    _write_text(out / "steps_report.csv", steps_csv)
    _write_text(out / "timings_report.csv", timings_csv)
    print(f"re-rendered reports under {out}")
    return EXIT_CONVERGED


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="qpwave",
        description="Reducibility engine for the time-quasi-periodic wave operator",
    )
    parser.add_argument("command",
                        choices=["validate", "run", "sweep", "resume", "report"])
    parser.add_argument("--config", default=None, help="JSON config path")
    parser.add_argument("--out", default="qpwave_out", help="output directory")
    parser.add_argument("--tau", type=float, default=None)
    parser.add_argument("--tau-sweep", default=None, metavar="LO:HI:COUNT")
    parser.add_argument("--steps", type=int, default=None, help="override M")
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)

    overrides: dict = {"tau": args.tau, "seed": args.seed}
    if args.steps is not None:
        overrides["M"] = args.steps
    try:
        if args.tau_sweep:
            parts = args.tau_sweep.split(":")
            if len(parts) != 3:
                raise ValueError(f"--tau-sweep must be LO:HI:COUNT, got {args.tau_sweep!r}")
            overrides["tau_sweep"] = [float(parts[0]), float(parts[1]), int(parts[2])]
        config = load_config(args.config, overrides)
    except (ValueError, TypeError, OSError) as e:  # a value of the wrong type is a TypeError
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG

    out = Path(args.out)
    try:
        if args.command == "validate":
            return _cmd_validate(config, out)
        if args.command == "report":
            return _cmd_report(out)
        if args.command == "sweep":
            agg = sweep_tau(config, out)
            print(json.dumps({k: agg[k] for k in
                              ("converged_fraction", "excluded_fraction",
                               "empirical_constant")}, indent=1))
            return EXIT_CONVERGED
        summary = run_pipeline(config, out, resume=(args.command == "resume"))
        print(f"status: {summary['status']}; summary at {out / 'summary.json'}")
        return EXIT_CONVERGED
    except PipelineAbort as e:
        print(f"{e.status}: {e.detail}", file=sys.stderr)
        return e.code


if __name__ == "__main__":
    sys.exit(main())
