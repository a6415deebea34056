"""In-memory span tracing around calls into qpwave's public functions.

Each traced function is replaced at every name it is looked up under: a
module-level function in every ``qpwave`` module that binds it (``integrate_full``
lives in both ``qpwave.verify`` and ``qpwave.cli``), a method on its class.
Spans (name, start, end, parent) stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
from collections import defaultdict
from pathlib import Path

# span name -> (module, attribute); "Class.method" names a method
SPANS = {
    "cli.run_pipeline": ("qpwave.cli", "run_pipeline"),
    "cli.save_checkpoint": ("qpwave.cli", "save_checkpoint"),
    "kam.step": ("qpwave.kam", "KamEngine.step"),
    "kam.solve_homological": ("qpwave.kam", "solve_homological"),
    "kam.homological_residual": ("qpwave.kam", "homological_residual"),
    "kam.flow_transform": ("qpwave.kam", "flow_transform"),
    "kam.push_remainder": ("qpwave.kam", "push_remainder"),
    "kam.consistency_defect": ("qpwave.kam", "consistency_defect"),
    "kam.recompose_generator": ("qpwave.kam", "recompose_generator"),
    "kam.result": ("qpwave.kam", "KamEngine.result"),
    "kam.bracket_sym": ("qpwave.kam", "bracket_sym"),
    "fourier.window_to_grid": ("qpwave.fourier", "window_to_grid"),
    "fourier.grid_to_window": ("qpwave.fourier", "grid_to_window"),
    "fourier.project_window_grid": ("qpwave.fourier", "project_window_grid"),
    "galerkin.opnorm_weighted": ("qpwave.galerkin", "WeightedSpace.opnorm_weighted"),
    "galerkin.coupling_tensor": ("qpwave.galerkin", "coupling_tensor"),
    "galerkin.assemble_initial_forms": ("qpwave.galerkin", "assemble_initial_forms"),
    "smoothing.decompose": ("qpwave.smoothing", "decompose"),
    "potential.validate_assumptions": ("qpwave.potential", "validate_assumptions"),
    "potential.fourier_analyze": ("qpwave.potential", "fourier_analyze"),
    "resonance.screen_tau": ("qpwave.resonance", "screen_tau"),
    "resonance.measure_scan": ("qpwave.resonance", "measure_scan"),
    "verify.integrate_full": ("qpwave.verify", "integrate_full"),
    "verify.lyapunov_exponent": ("qpwave.verify", "lyapunov_exponent"),
    "verify.compare_through_chain": ("qpwave.verify", "compare_through_chain"),
}


def _matrix_count(a) -> int:
    return a.size // (a.shape[-1] * a.shape[-2])


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _integrate_steps(args) -> int:
    # the step count integrate_full derives from T and dt (computed, not read)
    dt = args["dt"] if args["dt"] is not None else 0.1 / args["sys"].J
    return math.ceil(args["T"] / dt - 1e-12)


class Tracer:
    """Spans and counters of one process; single-threaded by design."""

    def __init__(self):
        self.spans: list = []    # [name, start, end, parent index or None]
        self.counts: dict = defaultdict(float)
        self._stack: list = []
        self._ckpt_seen: dict = {}

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    # counters read from arguments and return values, keyed "<span>.<what>"
    def measure(self, name: str, args: dict, result):
        c = self.counts
        if name == "kam.bracket_sym":
            QA = args["QA"]
            c["kam.bracket_sym.gflop"] += 8 * QA.shape[-1] ** 3 * _matrix_count(QA) / 1e9
        elif name.startswith("fourier."):
            c[f"{name}.gb"] += result.nbytes / 1e9
        elif name == "galerkin.opnorm_weighted":
            c["galerkin.opnorm_weighted.matrices"] += _matrix_count(args["mat"])
        elif name.startswith("resonance."):
            c[f"{name}.queries"] += result.n_queries
        elif name == "verify.integrate_full":
            c["verify.integrate_full.steps"] += _integrate_steps(args)
        elif name == "kam.flow_transform":
            c["kam.picard_terms"] += result.picard_terms
        elif name == "kam.push_remainder":
            c["kam.series_terms"] += sum(len(s) for s in result[1].series_terms.values())
        elif name == "cli.save_checkpoint":
            steps = Path(args["out"]) / "steps"
            total = dir_bytes(steps)
            c["cli.save_checkpoint.mb"] += (total - self._ckpt_seen.get(steps, 0)) / 2**20
            self._ckpt_seen[steps] = total

    def wrap(self, name: str, fn):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            self.measure(name, bound.arguments, result)
            return result

        return traced

    def install(self) -> dict:
        """Wrap every SPANS function at each of its bindings; returns the
        number of bindings replaced per span (each must be >= 1)."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "qpwave" or n.startswith("qpwave.")]
        replaced = {}
        for name, (modname, attr) in SPANS.items():
            module = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                setattr(owner, meth, self.wrap(name, owner.__dict__[meth]))
                replaced[name] = 1
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(name, original)
            replaced[name] = 0
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        replaced[name] += 1
        self._count_wave_systems()
        return replaced

    def _count_wave_systems(self):
        from qpwave.verify import TruncatedWaveSystem

        post_init = TruncatedWaveSystem.__post_init__

        def counted(system):
            self.counts["verify.wave_system_builds"] += 1
            post_init(system)

        TruncatedWaveSystem.__post_init__ = counted


def layer_stats(spans: list) -> dict:
    """calls, total_s and self_s per span name. Self time is a span's duration
    minus the part of its interval covered by its direct children."""
    children = defaultdict(list)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent is not None:
            children[parent].append(i)
    stats: dict = {}
    for i, (name, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for s, e in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            s, e = max(s, reach), min(e, end)
            if e > s:
                covered += e - s
                reach = e
        entry = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += (end - start) - covered
    return stats
