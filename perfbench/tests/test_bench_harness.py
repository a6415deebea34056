import json
import time
from pathlib import Path

import pytest

import make_reference
import run
from workloads import DEFAULT_SEED, WORKLOADS

# the TINY config of tests/test_cli.py: a ~0.5 s pipeline
TINY = {
    "n": 2, "smoothness_N": 5, "gamma": 0.05, "eps": 1e-3, "tau": 1.29,
    "potential": {"preset": "finite_smooth", "scale": 0.1, "theta_band": 2},
    "J_max": 8, "K_theta": 3, "M": 2, "conjugacy_T": 5.0, "conjugacy_samples": 40,
    "lyapunov_T": 20.0, "lyapunov_renorm_dt": 0.2, "tau_grid_points": 400,
    "validation_grid": 12, "K_check": 8,
}


@pytest.fixture
def tiny(tmp_path, monkeypatch):
    """A 'tiny' run workload whose reference lives under tmp_path."""
    monkeypatch.setitem(WORKLOADS, "tiny", {"kind": "run", "config": TINY})
    for module in (run, make_reference):
        monkeypatch.setattr(module, "REFERENCE", tmp_path / "reference")
        monkeypatch.setattr(module, "OUT", tmp_path / "out")
    (tmp_path / "reference").mkdir()
    assert make_reference.main(["tiny"]) == 0
    return tmp_path


def test_benchmark_json_lists_every_metric():
    doc = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [m["name"] for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.per_layer_units()
    assert {w["name"] for w in doc["workloads"]} == set(WORKLOADS) - {"tiny"}


@pytest.mark.parametrize("trace", [False, True])
def test_harness_smoke_on_tiny(tiny, trace):
    for seed in (DEFAULT_SEED, 3):
        work = tiny / f"work-{seed}-{trace}"
        work.mkdir()
        record = run.run("tiny", seed, seconds=0.1, trace=trace, work=work)
        result = record["result"]
        assert record["failures"] == []
        assert result["correct"] and result["failed"] == 0
        expected = run.per_layer_units() if trace else run.END_TO_END
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        if trace:
            assert result["attempted"] == 4  # two micro runs, one plain and one traced op
            assert metrics["kam.step.calls"] == 2
            assert metrics["verify.wave_system_builds"] > 100
            assert metrics["micro.push_remainder_s.blas1"] > 0
        else:
            assert result["attempted"] == 1
            assert metrics["run_s"] > 0 and metrics["checkpoint_mb"] > 0
        assert record["machine"]["nproc"] >= 1


def test_harness_flags_reference_drift(tiny):
    harness = run.Harness("tiny", DEFAULT_SEED, tiny, deadline=time.monotonic() + 120)
    harness.reference = run.load_reference("tiny", DEFAULT_SEED)
    harness.reference["units"][0]["normal_form"]["lambda_final"][0] += 1e-6
    op = harness.run_op(traced=False)
    assert list(op.failed) == [0]
    assert "normal_form.lambda_final[0]" in op.failed[0][0]
