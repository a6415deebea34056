#!/usr/bin/env python3
"""qpwave benchmark harness.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 35 --trace 0

Runs one workload as a closed loop of one operation at a time, each in a
fresh child interpreter (perfbench/child.py) with one BLAS thread, until
--seconds have passed. An operation is one ``run_pipeline`` call, or one
``sweep_tau`` call whose taus each count as one operation. Every operation is
checked: status, per-step certificates, the tolerance contract against the
reference summaries in perfbench/reference, and bit-identity with the first
operation of the run.

--trace 0 reports the end-to-end metrics (medians over the operations).
--trace 1 runs layer micro-timings at 1 and nproc BLAS threads, then
alternates untraced and traced operations and reports the per-layer metrics.
The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the full record goes to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from summaries import Comparison, canonical, certificate_failures, compare_summaries, strip_timings
from tracing import SPANS, dir_bytes, layer_stats
from workloads import DEFAULT_SEED, WORKLOADS, config_for, sweep_offset

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference"
HARD_LIMIT_S = 165.0  # every run must end within 180 s
NPROC = len(os.sched_getaffinity(0))
# Operations run with one BLAS thread: on 2 shared cores, 2 threads made desk
# ~20% slower and noisier. micro.* times both 1 and nproc threads.
OP_BLAS_THREADS = 1

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MiB", "checkpoint_mb": "MiB"}
STAGES = ("validate", "analyze", "schedule_split", "screen", "reduce", "verify")
MICRO = ("solve_homological", "flow_transform", "push_remainder", "consistency_defect",
         "integrate_full_1k", "measure_scan")
MICRO_THREADS = {"blas1": 1, "blasN": NPROC}
COUNTERS = {
    "kam.bracket_sym.gflop": "GFLOP",
    "fourier.window_to_grid.gb": "GB",
    "fourier.grid_to_window.gb": "GB",
    "fourier.project_window_grid.gb": "GB",
    "galerkin.opnorm_weighted.matrices": "count",
    "resonance.screen_tau.queries": "count",
    "resonance.measure_scan.queries": "count",
    "verify.integrate_full.steps": "count",
    "verify.wave_system_builds": "count",
    "kam.picard_terms": "count",
    "kam.series_terms": "count",
    "cli.save_checkpoint.mb": "MiB",
}
REDUCE_SPANS = ("kam.step", "cli.save_checkpoint", "kam.result")


def per_layer_units() -> dict:
    """Every --trace 1 metric name with its unit, in report order."""
    units = {}
    for span in SPANS:
        units.update({f"{span}.calls": "count", f"{span}.total_s": "s", f"{span}.self_s": "s"})
    units.update(COUNTERS)
    units["verify.integrate_full.us_per_step"] = "us"
    units.update({f"stage.{s}_s": "s" for s in STAGES})
    units.update({f"micro.{fn}_s.{tag}": "s" for fn in MICRO for tag in MICRO_THREADS})
    units.update({"trace.overhead_frac": "ratio", "trace.reduce_gap_s": "s", "fail_rate": "ratio"})
    return units


def median(values) -> float:
    vals = [v for v in values if v is not None]
    return float(statistics.median(vals)) if vals else 0.0


def comparable(unit, keep_seeded: bool):
    """A unit stripped for the reference comparison. Away from the default
    seed, the seed-dependent fields (config.seed, the verify section) go."""
    unit = strip_timings(unit)
    if keep_seeded or unit is None:
        return unit
    if "summary" in unit:  # a sweep tau: {"result": ..., "summary": ...}
        return {**unit, "summary": comparable(unit["summary"], False)}
    unit.pop("verify", None)
    unit["config"].pop("seed", None)
    return unit


def collect_outputs(kind: str, out: Path) -> tuple:
    """(op-level tree, unit trees) from one operation's output directory."""
    if kind == "run":
        return None, [json.loads((out / "summary.json").read_text())]
    agg = json.loads((out / "sweep_summary.json").read_text())
    units = []
    for i, res in enumerate(agg["results"]):
        path = out / f"tau_{i:03d}" / "summary.json"
        summary = json.loads(path.read_text()) if res["status"] == "converged" else None
        units.append({"result": res, "summary": summary})
    return {k: v for k, v in agg.items() if k != "results"}, units


def reference_key(kind: str, seed: int) -> str:
    return "default" if kind == "run" else str(sweep_offset(seed))


def load_reference(workload: str, seed: int) -> dict:
    ref = json.loads((REFERENCE / f"{workload}.json").read_text())
    return ref["entries"][reference_key(WORKLOADS[workload]["kind"], seed)]


@dataclass
class Op:
    traced: bool
    units: int
    failed: dict = field(default_factory=dict)  # unit index -> reasons
    setup_s: float | None = None
    run_s: float | None = None
    peak_rss_mb: float | None = None
    checkpoint_mb: float | None = None
    stages: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    reference: Comparison = field(default_factory=Comparison)

    def fail(self, unit: int, reason: str):
        self.failed.setdefault(unit, []).append(reason)

    def fail_all(self, reason: str):
        for unit in range(self.units):
            self.fail(unit, reason)


class Harness:
    """Runs and checks the operations of one benchmark run."""

    def __init__(self, workload: str, seed: int, work: Path, deadline: float):
        self.workload, self.work, self.deadline = workload, work, deadline
        self.kind = WORKLOADS[workload]["kind"]
        self.config = config_for(workload, seed)
        self.units = self.config["tau_sweep"][2] if self.kind == "sweep" else 1
        self.keep_seeded = self.kind == "run" and seed == DEFAULT_SEED
        self.reference: dict = {}
        self.first_canonical = None
        self.spawned = 0
        self.blas: dict = {}

    def spawn(self, mode: str, traced: bool = False, threads: int = OP_BLAS_THREADS) -> tuple:
        """Run child.py once; returns (result dict or None, error, out dir)."""
        self.spawned += 1
        tag = f"{self.spawned:03d}"
        out = self.work / f"out_{tag}"
        result_path = self.work / f"result_{tag}.json"
        spec_path = self.work / f"spec_{tag}.json"
        spec_path.write_text(json.dumps({
            "src": str(SRC), "mode": mode, "kind": self.kind, "config": self.config,
            "trace": traced, "out": str(out), "result": str(result_path),
        }))
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
                   OMP_NUM_THREADS=str(threads), MKL_NUM_THREADS=str(threads))
        timeout = max(1.0, self.deadline - time.monotonic())
        log = self.work / f"stderr_{tag}.txt"
        with open(log, "w") as err:
            t_spawn = time.monotonic()
            try:
                proc = subprocess.run(
                    [sys.executable, str(HERE / "child.py"), str(spec_path), repr(t_spawn)],
                    env=env, cwd=self.work, stdout=subprocess.DEVNULL, stderr=err,
                    timeout=timeout)
            except subprocess.TimeoutExpired:
                return None, f"timed out after {timeout:.0f} s", out
        if proc.returncode != 0 or not result_path.exists():
            tail = log.read_text().strip().splitlines()[-1:] or [""]
            return None, f"child exit code {proc.returncode}: {tail[0]}", out
        result = json.loads(result_path.read_text())
        self.blas = {k: result[k] for k in ("numpy", "blas", "blas_version", "blas_threads")}
        return result, None, out

    def run_op(self, traced: bool) -> Op:
        op = Op(traced=traced, units=self.units)
        t0 = time.monotonic()
        result, error, out = self.spawn("op", traced)
        if error:
            op.run_s = time.monotonic() - t0
            op.fail_all(error)
        else:
            op.setup_s, op.run_s = result["setup_s"], result["run_s"]
            op.peak_rss_mb = result["peak_rss_mb"]
            op.checkpoint_mb = sum(dir_bytes(p) for p in out.rglob("steps") if p.is_dir()) / 2**20
            self.check(op, result, out)
            if traced:
                self.check_trace(op, result)
        shutil.rmtree(out, ignore_errors=True)
        return op

    def check(self, op: Op, result: dict, out: Path):
        if result["status"] != "converged":
            op.fail_all(f"status {result['status']}: {result['detail']}")
            return
        try:
            op_tree, units = collect_outputs(self.kind, out)
        except (OSError, ValueError, KeyError) as e:
            op.fail_all(f"unreadable outputs: {e!r}")
            return
        summaries = [u if self.kind == "run" else u["summary"] for u in units]
        for stage in STAGES:
            op.stages[stage] = sum(s["timings"].get(stage, 0.0) for s in summaries if s)
        if len(units) != op.units:
            op.fail_all(f"{len(units)} results for {op.units} operations")
            return

        if op_tree is not None:
            cmp = compare_summaries(self.reference["op"], op_tree)
            if not cmp.ok:
                op.fail_all(f"sweep aggregate vs reference: {cmp.describe()}")
        for i, (unit, summary) in enumerate(zip(units, summaries)):
            if self.kind == "sweep":
                res = unit["result"]
                if res["status"] not in ("converged", "resonant_tau"):
                    op.fail(i, f"tau {res['tau']}: status {res['status']}")
            if summary is not None:
                for miss in certificate_failures(summary, summary["config"]["residual_tol"]):
                    op.fail(i, miss)
            cmp = compare_summaries(comparable(self.reference["units"][i], self.keep_seeded),
                                    comparable(unit, self.keep_seeded))
            if (cmp.worst_ratio, cmp.fields) > (op.reference.worst_ratio, op.reference.fields):
                op.reference = cmp
            if not cmp.ok:
                op.fail(i, f"reference: {cmp.describe()}; {cmp.mismatches[:3]}")

        text = canonical({"op": op_tree, "units": units})
        if self.first_canonical is None:
            self.first_canonical = text
        elif text != self.first_canonical:
            op.fail_all("outputs not bit-identical to the first operation of this run")

    def check_trace(self, op: Op, result: dict):
        if result["unbound"]:
            op.fail_all(f"no binding found to trace: {result['unbound']}")
        op.layers = layer_stats(result["spans"])
        op.counts = result["counts"]
        if self.workload == "desk":
            silent = [s for s in SPANS if op.layers.get(s, {}).get("calls", 0) == 0]
            if silent:
                op.fail_all(f"traced spans recorded no calls: {silent}")

    def micro(self, threads: int) -> tuple:
        result, error, out = self.spawn("micro", threads=threads)
        shutil.rmtree(out, ignore_errors=True)
        return result, error


def end_to_end_metrics(ops: list) -> dict:
    plain = [op for op in ops if not op.traced]
    return {name: {"value": median(getattr(op, name) for op in plain), "unit": unit}
            for name, unit in END_TO_END.items()}


def per_layer_metrics(ops: list, micro: dict, fail_rate: float) -> dict:
    traced = [op for op in ops if op.traced and op.layers]
    plain = [op for op in ops if not op.traced]
    values = {}
    for span in SPANS:
        for key in ("calls", "total_s", "self_s"):
            values[f"{span}.{key}"] = median(op.layers.get(span, {}).get(key, 0) for op in traced)
    for name in COUNTERS:
        values[name] = median(op.counts.get(name, 0.0) for op in traced)
    steps = values["verify.integrate_full.steps"]
    values["verify.integrate_full.us_per_step"] = (
        1e6 * values["verify.integrate_full.total_s"] / steps if steps else 0.0)
    for stage in STAGES:
        values[f"stage.{stage}_s"] = median(op.stages.get(stage) for op in plain)
    for tag, timings in micro.items():
        for fn in MICRO:
            values[f"micro.{fn}_s.{tag}"] = (timings or {}).get(f"micro.{fn}_s", 0.0)
    base = median(op.run_s for op in plain)
    values["trace.overhead_frac"] = median(op.run_s for op in traced) / base - 1 if base else 0.0
    values["trace.reduce_gap_s"] = median(
        op.stages.get("reduce", 0.0) - sum(op.layers.get(s, {}).get("total_s", 0.0)
                                            for s in REDUCE_SPANS)
        for op in traced)
    values["fail_rate"] = fail_rate
    units = per_layer_units()
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def machine_record(blas: dict) -> dict:
    with open("/proc/cpuinfo") as f:
        cpu = next((line.split(":", 1)[1].strip() for line in f
                    if line.startswith("model name")), platform.processor())
    with open("/proc/meminfo") as f:
        mem_kib = next(int(line.split()[1]) for line in f if line.startswith("MemTotal"))
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {"nproc": NPROC, "cpu_model": cpu, "mem_total_gib": round(mem_kib / 2**20, 2),
            "python": platform.python_version(), **blas,
            "git_commit": git_commit(), "src_sha256": digest.hexdigest()}


def run(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    start = time.monotonic()
    harness = Harness(workload, seed, work, deadline=start + HARD_LIMIT_S)
    harness.reference = load_reference(workload, seed)
    micro, micro_failures = {}, []
    if trace:
        for tag, threads in MICRO_THREADS.items():
            micro[tag], error = harness.micro(threads)
            if error:
                micro_failures.append(f"micro {tag}: {error}")
    ops = []
    stop = start + seconds
    while True:
        t0 = time.monotonic()
        ops.append(harness.run_op(traced=False))
        if trace:
            ops.append(harness.run_op(traced=True))
        last = time.monotonic() - t0
        now = time.monotonic()
        if now >= stop or now + 1.5 * last > harness.deadline:
            break

    attempted = sum(op.units for op in ops) + len(micro)
    failed = sum(len(op.failed) for op in ops) + len(micro_failures)
    if trace:
        metrics = per_layer_metrics(ops, micro, failed / attempted)
    else:
        metrics = end_to_end_metrics(ops)
    worst = max((op.reference for op in ops), key=lambda c: (c.worst_ratio, c.fields))
    reasons = micro_failures + [f"op {n} unit {u}: {r}" for n, op in enumerate(ops)
                                for u, rs in sorted(op.failed.items()) for r in rs]
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "config": harness.config, "machine": machine_record(harness.blas),
        "operations": len(ops), "reference_worst": worst.describe(), "failures": reasons,
        "per_op": [{"traced": op.traced, "setup_s": op.setup_s, "run_s": op.run_s,
                    "peak_rss_mb": op.peak_rss_mb, "checkpoint_mb": op.checkpoint_mb,
                    "stages": op.stages} for op in ops],
        "result": {"correct": failed == 0, "attempted": attempted, "failed": failed,
                   "metrics": metrics},
    }


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "qpwave" / "cli.py").is_file():
        print(f"perfbench: no qpwave sources under {SRC}", file=sys.stderr)
        return 2

    work = OUT / "work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1))
    for reason in record["failures"][:20]:
        print(f"perfbench: FAIL {reason}", file=sys.stderr)
    print("perfbench: " + json.dumps({k: record[k] for k in
                                      ("workload", "seed", "operations", "reference_worst",
                                       "machine")}))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
