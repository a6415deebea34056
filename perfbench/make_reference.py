#!/usr/bin/env python3
"""Regenerate perfbench/reference/<workload>.json from the current sources.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Each workload's outputs, ``timings`` stripped, are stored for the default
seed (``run`` workloads) or for every tau-grid shift (``sweep``). Run it only
when a change is meant to move the summaries, and say so in that change.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

from run import OUT, REFERENCE, Harness, collect_outputs, reference_key
from summaries import strip_timings
from workloads import DEFAULT_SEED, SWEEP_OFFSETS, WORKLOADS


def main(argv: list) -> int:
    names = argv or sorted(WORKLOADS)
    work = OUT / "work" / "reference"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for name in names:
            kind = WORKLOADS[name]["kind"]
            shifts = range(SWEEP_OFFSETS) if kind == "sweep" else range(1)
            seeds = [DEFAULT_SEED + k for k in shifts]
            entries = {}
            for seed in seeds:
                harness = Harness(name, seed, work, deadline=time.monotonic() + 600)
                result, error, out = harness.spawn("op")
                if error:
                    print(f"{name} seed {seed}: {error}", file=sys.stderr)
                    return 1
                op_tree, units = collect_outputs(kind, out)
                entries[reference_key(kind, seed)] = {"op": strip_timings(op_tree),
                                                      "units": strip_timings(units)}
                shutil.rmtree(out)
                print(f"{name} seed {seed}: status {result['status']}, run {result['run_s']:.2f} s")
            (REFERENCE / f"{name}.json").write_text(
                json.dumps({"workload": name, "entries": entries}, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
