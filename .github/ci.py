"""Checks that the CI workflow runs on qpwave's outputs.

    python3 .github/ci.py config WORKLOAD SEED PATH
        Write perfbench's RunConfig dict of WORKLOAD at SEED to PATH.
    python3 .github/ci.py same-files A B NAME...
        Compare the run directories A and B at each NAME, a file or a
        directory (every file under it). summary.json is compared without
        its timings, every other file byte for byte. Fails if a NAME is
        missing from either side, a directory holds no file, or any differ.
    python3 .github/ci.py screened RUN
        Fail unless RUN's validate.json worst_query is its summary.json's
        and RUN holds steps_report.csv and timings_report.csv.
    python3 .github/ci.py sweep SWEEP
        Fail unless each tau_<i>/ of SWEEP holds a summary.json whose status
        is the i-th result of sweep_summary.json; print the first converged
        tau_<i> on stdout.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def config(workload: str, seed: str, path: str) -> int:
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import config_for

    Path(path).write_text(json.dumps(config_for(workload, int(seed))))
    return 0


def _contents(path: Path) -> bytes:
    if path.name != "summary.json":
        return path.read_bytes()
    data = json.loads(path.read_text())
    data.pop("timings", None)
    return json.dumps(data, sort_keys=True).encode()


def _files(out: Path, name: str) -> dict:
    """{path relative to out: contents} of the file name, or of every file
    under the directory name; a missing name is empty."""
    path = out / name
    paths = [p for p in path.rglob("*") if p.is_file()] if path.is_dir() else [path]
    return {str(p.relative_to(out)): _contents(p) for p in paths if p.is_file()}


def same_files(a: str, b: str, *names: str) -> int:
    ok = True
    for name in names:
        fa, fb = _files(Path(a), name), _files(Path(b), name)
        differ = sorted(key for key in fa.keys() | fb.keys() if fa.get(key) != fb.get(key))
        print(f"{name}: {len(fa)} files, differing: {differ}")
        ok = ok and bool(fa) and not differ
    return 0 if ok else 1


def screened(run: str) -> int:
    out = Path(run)
    validated = json.loads((out / "validate.json").read_text())["worst_query"]
    screened = json.loads((out / "summary.json").read_text())["resonance"]["worst_query"]
    missing = [name for name in ("steps_report.csv", "timings_report.csv")
               if not (out / name).is_file()]
    print(f"worst_query identical: {validated == screened}; missing reports: {missing}")
    return 0 if validated == screened and not missing else 1


def sweep(sweep_dir: str) -> int:
    out = Path(sweep_dir)
    results = json.loads((out / "sweep_summary.json").read_text())["results"]
    wrong = []
    for i, result in enumerate(results):
        path = out / f"tau_{i:03d}" / "summary.json"
        status = json.loads(path.read_text())["status"] if path.is_file() else None
        if status != result["status"]:
            wrong.append(f"tau_{i:03d}: {status} against {result['status']}")
    print(f"{len(results)} taus, summaries differing from their result: {wrong}",
          file=sys.stderr)
    converged = [f"tau_{i:03d}" for i, r in enumerate(results) if r["status"] == "converged"]
    if wrong or not converged:
        return 1
    print(converged[0])
    return 0


COMMANDS = {"config": config, "same-files": same_files, "screened": screened, "sweep": sweep}

if __name__ == "__main__":
    sys.exit(COMMANDS[sys.argv[1]](*sys.argv[2:]))
