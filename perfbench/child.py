"""One benchmark operation in a fresh interpreter.

    python3 child.py SPEC_JSON T_SPAWN

SPEC_JSON names the qpwave sources, the mode and the config; T_SPAWN is the
parent's ``time.monotonic()`` just before it started this process, so that
set-up time covers interpreter start, imports and config load. Modes:

- ``op``: one ``run_pipeline`` or ``sweep_tau`` call, optionally traced;
- ``micro``: layer timings on the workload's step-0 inputs.

The result is written as JSON to the spec's ``result`` path.
"""

from __future__ import annotations

import json
import sys
import time
import warnings
from pathlib import Path

MICRO_MIN_REPS = 3
MICRO_MIN_S = 0.3
MICRO_KAM = ("solve_homological", "flow_transform", "push_remainder", "consistency_defect")


def blas_info() -> dict:
    """numpy, BLAS name and version, and the BLAS thread count in effect."""
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "blas_threads": None}
    with open("/proc/self/maps") as f:
        libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                fn = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    info["blas_threads"] = int(fn())
                    return info
    return info


def _median_time(fn, args, kwargs) -> float:
    import statistics  # kept out of op children, whose peak RSS is measured

    times = []
    while len(times) < MICRO_MIN_REPS or sum(times) < MICRO_MIN_S:
        t0 = time.perf_counter()
        fn(*args, **kwargs)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def micro(config: dict) -> dict:
    """Time the step-0 layer calls of one workload config, built through the
    public API; the kam inputs are captured from a real first engine step."""
    import math

    import numpy as np
    from qpwave import kam, resonance, verify
    from qpwave.cli import RunConfig
    from qpwave.galerkin import WeightedSpace, assemble_initial_forms, coupling_tensor
    from qpwave.kam import KamEngine, KamOptions, NormalForm, build_schedule, seed_pieces
    from qpwave.potential import FrequencySpec, fourier_analyze, make_potential
    from qpwave.smoothing import JacksonKernel, decompose

    cfg = RunConfig.from_dict(config)
    freq = FrequencySpec(tuple(cfg.omega0), cfg.tau, cfg.gamma)
    pot = cfg.potential
    spec, _ = make_potential(pot["preset"], freq, eps=cfg.eps, N=cfg.smoothness_N,
                             scale=pot["scale"], theta_band=pot["theta_band"])
    pf = fourier_analyze(spec, cfg.K_theta, cfg.J_max)
    ws = WeightedSpace(cfg.smoothness_N, cfg.J_max)
    ct = coupling_tensor(cfg.J_max)
    sched = build_schedule(cfg.eps, cfg.smoothness_N, cfg.gamma, cfg.n, cfg.M)
    dec = decompose(assemble_initial_forms(pf, ct, ws), list(sched.strip),
                    JacksonKernel(), ws=ws)
    engine = KamEngine(seed_pieces(dec, sched.eps0, sched), freq, sched, ws,
                       K_theta=cfg.K_theta,
                       options=KamOptions(picard_tol=cfg.picard_tol,
                                          residual_tol=cfg.residual_tol,
                                          norm_grid=cfg.norm_grid))

    captured = {}
    originals = {name: getattr(kam, name) for name in MICRO_KAM}

    def capture(name):
        def recorder(*args, **kwargs):
            captured.setdefault(name, (args, kwargs))
            return originals[name](*args, **kwargs)
        return recorder

    for name in MICRO_KAM:
        setattr(kam, name, capture(name))
    try:
        engine.step()
    finally:
        for name, fn in originals.items():
            setattr(kam, name, fn)

    out = {f"micro.{name}_s": _median_time(originals[name], *captured[name])
           for name in MICRO_KAM}

    J = cfg.J_max
    system = verify.TruncatedWaveSystem(pf, ct, freq, cfg.eps, J, np.zeros(cfg.n))
    rng = np.random.default_rng(cfg.seed)
    y0 = rng.standard_normal(2 * J) / np.concatenate([ws.metric_weights] * 2)
    dt = 0.1 / J
    out["micro.integrate_full_1k_s"] = _median_time(
        verify.integrate_full, (system, y0, 1000 * dt), {"dt": dt, "record_every": 10**9})

    K0 = int(min(math.ceil(sched.cutoff[0]), cfg.K_theta))
    out["micro.measure_scan_s"] = _median_time(
        resonance.measure_scan,
        (NormalForm(J=J), freq, K0, float(sched.gamma_steps[0]), J, cfg.tau_grid_points), {})
    return out


def op(spec: dict, t_spawn: float) -> dict:
    from qpwave import cli

    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        bindings = tracer.install()
    config = cli.RunConfig.from_dict(spec["config"])
    t_call = time.monotonic()
    status, detail = "converged", ""
    try:
        if spec["kind"] == "sweep":
            cli.sweep_tau(config, spec["out"])
        else:
            cli.run_pipeline(config, spec["out"])
    except cli.PipelineAbort as e:
        status, detail = e.status, e.detail
    t_end = time.monotonic()
    result = {"setup_s": t_call - t_spawn, "run_s": t_end - t_call,
              "status": status, "detail": detail}
    if tracer is not None:
        result.update(spans=tracer.spans, counts=dict(tracer.counts),
                      unbound=sorted(n for n, c in bindings.items() if c == 0))
    return result


def main() -> int:
    import resource

    spec = json.loads(Path(sys.argv[1]).read_text())
    t_spawn = float(sys.argv[2])
    sys.path.insert(0, spec["src"])
    warnings.filterwarnings("ignore", message="smoothness N=", category=UserWarning)
    result = micro(spec["config"]) if spec["mode"] == "micro" else op(spec, t_spawn)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result.update(blas_info())
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
