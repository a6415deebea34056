import dataclasses
import gc
import json
import os
import shutil
import weakref

import numpy as np
import pytest

from oracles import find_resonant_tau
from qpwave import cli, galerkin, kam, resonance
from qpwave.cli import (
    EXIT_CERTIFICATE,
    EXIT_CONFIG,
    EXIT_CONVERGED,
    EXIT_INTERNAL,
    EXIT_RESONANT,
    EXIT_STEPSIZE,
    PipelineAbort,
    RunConfig,
    main,
    run_pipeline,
    sweep_tau,
)

TINY = {
    "n": 2,
    "smoothness_N": 5,
    "gamma": 0.05,
    "eps": 1e-3,
    "tau": 1.29,
    "potential": {"preset": "finite_smooth", "scale": 0.1, "theta_band": 2},
    "J_max": 8,
    "K_theta": 3,
    "M": 2,
    "conjugacy_T": 5.0,
    "conjugacy_samples": 40,
    "lyapunov_T": 20.0,
    "lyapunov_renorm_dt": 0.2,
    "tau_grid_points": 400,
    "validation_grid": 12,
    "K_check": 8,
}


# the per-step columns of timings.steps and timings_report.csv
STEP_COLUMNS = (*kam.STEP_TIMINGS, "save_s")


def tiny_config(**over):
    data = dict(TINY)
    data.update(over)
    return RunConfig.from_dict(data)


def strip_timings(summary: dict) -> dict:
    out = dict(summary)
    out.pop("timings", None)
    return out


@pytest.fixture(scope="module")
def three_step_run(tmp_path_factory):
    """(config, out, summary) of an uninterrupted TINY run at M = 3, whose
    resume can lose one step, two or all of them."""
    cfg = tiny_config(M=3)
    out = tmp_path_factory.mktemp("three_steps") / "run"
    return cfg, out, run_pipeline(cfg, out)


class TestPipeline:
    def test_default_tiny_run_converges(self, tmp_path):
        summary = run_pipeline(tiny_config(), tmp_path / "run")
        assert summary["status"] == "converged"
        assert (tmp_path / "run" / "summary.json").exists()
        assert (tmp_path / "run" / "resonance.csv").exists()
        assert (tmp_path / "run" / "trajectories" / "conjugacy.csv").exists()
        assert (tmp_path / "run" / "trajectories" / "lyapunov.csv").exists()
        steps = sorted((tmp_path / "run" / "steps").glob("step_*"))
        assert len(steps) == 2
        for rec in summary["steps"]:
            assert rec["homological_residual"] <= 1e-10
            assert rec["symplectic_defect"] <= 1e-8
        assert summary["verify"]["conjugacy"]["within_tolerance"]
        # step 0's per-step scan is the entry scan
        step0 = dict(summary["resonance"]["per_step"][0])
        del step0["cumulative_admissible_fraction"]
        assert step0 == summary["resonance"]["scan"]

    def test_eps_zero_run(self, tmp_path):
        summary = run_pipeline(tiny_config(eps=0.0), tmp_path / "run0")
        assert summary["status"] == "converged"
        assert summary["multiplier"]["max_abs"] == 0.0
        assert summary["verify"]["energy_drift"] is not None
        assert summary["verify"]["energy_drift"] < 1e-8

    def test_eps_zero_resume_reads_no_checkpoint(self, tmp_path):
        cfg = tiny_config(eps=0.0)
        out = tmp_path / "run0"
        fresh = run_pipeline(cfg, out)
        # a stray step file that is not JSON would break a checkpoint read
        (out / "steps").mkdir()
        (out / "steps" / "step_000.json").write_text("not json")
        resumed = run_pipeline(cfg, out, resume=True)
        assert json.dumps(strip_timings(fresh), sort_keys=True) == \
               json.dumps(strip_timings(resumed), sort_keys=True)

    def test_resonant_tau_exits_with_status(self, tmp_path):
        tau, _ = find_resonant_tau((1.0, np.sqrt(2.0)), J_max=8, K_search=2)
        cfg = tiny_config(tau=float(tau))
        with pytest.raises(PipelineAbort) as err:
            run_pipeline(cfg, tmp_path / "bad")
        assert err.value.code == EXIT_RESONANT
        # no reduction steps were run
        assert not (tmp_path / "bad" / "steps").exists()

    def test_custom_coefficient_table(self, tmp_path):
        cfg = tiny_config(potential={
            "preset": "custom_coefficients",
            "coefficients": [
                [[1, 0], 1, 0.05, 0.02],
                [[0, 1], 2, 0.03, 0.0],
                [[0, 0], 2, 0.04, 0.0],
            ],
        })
        # step 0 moves |Phi - id| past its bound sqrt(eps_0), a failed certificate
        with pytest.raises(PipelineAbort) as err:
            run_pipeline(cfg, tmp_path / "custom")
        assert err.value.code == EXIT_CERTIFICATE
        assert err.value.status == "certificate_failed"
        assert err.value.detail.startswith("reduce, step m=0: P_norm ")
        assert "> P_bound 3.162e-02" in err.value.detail
        assert not (tmp_path / "custom" / "steps" / "step_000.json").exists()

    def test_invalid_base_frequency_is_config_error(self, tmp_path):
        # near-rationally-dependent base fails the Diophantine margin
        cfg = tiny_config(omega0=[1.0, 1.0 + 1e-9])
        with pytest.raises(PipelineAbort) as err:
            run_pipeline(cfg, tmp_path / "cfg")
        assert err.value.code == EXIT_CONFIG

    def test_determinism_bit_identical(self, tmp_path, monkeypatch):
        # timings.machine records the BLAS thread settings; the stripped
        # summaries do not see them
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        s1 = run_pipeline(tiny_config(), tmp_path / "a")
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        monkeypatch.setenv("OMP_NUM_THREADS", "2")
        s2 = run_pipeline(tiny_config(), tmp_path / "b")
        assert json.dumps(strip_timings(s1), sort_keys=True) == \
               json.dumps(strip_timings(s2), sort_keys=True)
        m1, m2 = s1["timings"]["machine"], s2["timings"]["machine"]
        assert m1["numpy"] == np.__version__
        assert m1["cpu_count"] == os.cpu_count()
        assert set(m1["blas"]) == {"name", "version"}
        assert (m1["OPENBLAS_NUM_THREADS"], m1["OMP_NUM_THREADS"]) == ("1", None)
        assert (m2["OPENBLAS_NUM_THREADS"], m2["OMP_NUM_THREADS"]) == ("2", "2")
        on_disk = json.loads((tmp_path / "b" / "summary.json").read_text())
        assert on_disk["timings"]["machine"] == m2

    def test_step_timings_stay_out_of_records(self, tmp_path):
        s1 = run_pipeline(tiny_config(), tmp_path / "a")
        s2 = run_pipeline(tiny_config(), tmp_path / "b")
        assert json.dumps(strip_timings(s1), sort_keys=True) == \
               json.dumps(strip_timings(s2), sort_keys=True)
        for summary in (s1, s2):
            steps = summary["timings"]["steps"]
            assert [entry["m"] for entry in steps] == [rec["m"] for rec in summary["steps"]]
            for entry in steps:
                assert set(entry) == {"m", *STEP_COLUMNS}
                assert all(entry[key] >= 0.0 for key in STEP_COLUMNS)
        for rec in s1["steps"]:
            assert not set(rec) & set(STEP_COLUMNS)
        states = sorted((tmp_path / "a" / "steps").glob("step_*.json"))
        assert len(states) == 2
        for state in states:
            text = state.read_text()
            assert "timings" not in text
            assert not any(key in text for key in STEP_COLUMNS)

    def test_resume_matches_uninterrupted(self, tmp_path):
        cfg = tiny_config()
        full = run_pipeline(cfg, tmp_path / "full")
        # simulate an interruption: run, then delete the last checkpoint and
        # the summary, and resume
        out = tmp_path / "partial"
        run_pipeline(cfg, out)
        steps = sorted((out / "steps").glob("step_*"))
        steps[-1].unlink()
        (out / "summary.json").unlink()
        resumed = run_pipeline(cfg, out, resume=True)
        assert json.dumps(strip_timings(full), sort_keys=True) == \
               json.dumps(strip_timings(resumed), sort_keys=True)

    @pytest.mark.parametrize("norm_grid, evaluations", [(8, 0), (12, 1)])
    def test_resume_reads_the_checked_norms(self, tmp_path, monkeypatch, norm_grid,
                                            evaluations):
        # the replayed push norms the pieces it makes on PUSH_NORM_GRID; at
        # K = 3 that grid is norm_grid 8's, so the first resumed step reads
        # its active norm from the memo, and on norm_grid 12 evaluates it
        cfg = tiny_config(norm_grid=norm_grid)
        out = tmp_path / "run"
        run_pipeline(cfg, out)
        sorted((out / "steps").glob("step_*"))[-1].unlink()
        restored, evaluated = [], []
        replay, grid_values = cli.replay_checkpoints, galerkin.QuadraticForm.grid_values

        def watched_replay(engine, found):
            replay(engine, found)
            restored.append(engine.state.remainder[0])
            evaluated.clear()

        def counted(qf, G):
            evaluated.append(qf)
            return grid_values(qf, G)

        monkeypatch.setattr(cli, "replay_checkpoints", watched_replay)
        monkeypatch.setattr(galerkin.QuadraticForm, "grid_values", counted)
        run_pipeline(cfg, out, resume=True)
        active = restored[0]
        assert sum(qf is active for qf in evaluated) == evaluations

    def test_checkpoints_leave_only_complete_step_directories(self, tmp_path):
        # steps/ holds one JSON file per step, written whole: the schema, the
        # config fields the reduce reads and the step record, nothing else
        out = tmp_path / "run"
        summary = run_pipeline(tiny_config(), out)
        names = sorted(p.name for p in (out / "steps").iterdir())
        assert names == ["step_000.json", "step_001.json"]
        for name, record in zip(names, summary["steps"]):
            state = json.loads((out / "steps" / name).read_text())
            assert sorted(state) == ["config", "record", "schema"]
            assert state["schema"] == cli.CHECKPOINT_SCHEMA == 8
            assert sorted(state["config"]) == sorted(cli.REDUCE_CONFIG_KEYS)
            assert state["record"] == json.loads(json.dumps(record))
            assert tuple(state["record"]) == tuple(sorted(kam.RECORD_KEYS))

    def test_resume_skips_step_without_state_json(self, tmp_path):
        # an interrupted write of the newest step leaves its temporary file
        # and no step file: the resume ignores the leftover, reruns the step
        # and writes the step file through it
        cfg = tiny_config()
        full = run_pipeline(cfg, tmp_path / "full")
        out = tmp_path / "partial"
        run_pipeline(cfg, out)
        newest = out / "steps" / "step_001.json"
        leftover = newest.with_name(".step_001.json.tmp")
        leftover.write_text(newest.read_text()[:100])
        newest.unlink()
        (out / "summary.json").unlink()
        resumed = run_pipeline(cfg, out, resume=True)
        assert json.dumps(strip_timings(full), sort_keys=True) == \
               json.dumps(strip_timings(resumed), sort_keys=True)
        assert newest.read_bytes() == (tmp_path / "full" / "steps" / newest.name).read_bytes()
        assert not leftover.exists()

    def test_checkpoint_round_trip(self, tmp_path):
        # step 0 of TINY, saved, then re-run by an engine fresh from the
        # seeded pieces: the re-run engine holds what the step left, bit for bit
        cfg = tiny_config()
        front = cli._front(cfg, cli._Stages())
        opts = kam.KamOptions(picard_tol=cfg.picard_tol, residual_tol=cfg.residual_tol,
                              norm_grid=cfg.norm_grid)

        def seeded():
            return kam.KamEngine(list(front.pieces), front.freq, front.sched, front.ws,
                                 K_theta=cfg.K_theta, options=opts)

        ran = seeded()
        record = ran.step()
        assert tuple(record) == kam.RECORD_KEYS
        cli.save_checkpoint(tmp_path, record, cfg)
        assert [p.name for p in (tmp_path / "steps").iterdir()] == ["step_000.json"]
        replayed = seeded()
        cli.replay_checkpoints(replayed, cli.checkpoint_states(tmp_path, cfg))
        got, want = replayed.state, ran.state
        assert got.m == 1 and json.dumps(got.diagnostics) == json.dumps([record])
        assert len(got.remainder) == len(want.remainder) == 2
        for back, piece in zip(got.remainder, want.remainder):
            assert (back.n, back.K, back.J) == (piece.n, piece.K, piece.J)
            assert back.coeffs.tobytes() == piece.coeffs.tobytes()
        assert got.normal_form.lambdas().tobytes() == want.normal_form.lambdas().tobytes()
        assert len(replayed.chain.steps) == 1
        assert replayed.chain.steps[0].tobytes() == ran.chain.steps[0].tobytes()
        # and the next step runs as it does in the uninterrupted engine
        assert json.dumps(replayed.step()) == json.dumps(ran.step())

    def test_a_resume_runs_the_oracle_only_for_fresh_steps(self, three_step_run, tmp_path,
                                                           monkeypatch):
        cfg, full_out, full = three_step_run
        out = tmp_path / "run"
        shutil.copytree(full_out, out)
        (out / "steps" / "step_002.json").unlink()
        defects, oracle = [], kam.consistency_defect
        monkeypatch.setattr(kam, "consistency_defect",
                            lambda *a: defects.append(oracle(*a)) or defects[-1])
        resumed = run_pipeline(cfg, out, resume=True)
        assert defects == [full["steps"][2]["consistency_defect"]]
        assert json.dumps(strip_timings(full), sort_keys=True) == \
               json.dumps(strip_timings(resumed), sort_keys=True)

    def test_every_lost_step_is_replayed_byte_identically(self, three_step_run, tmp_path):
        cfg, full_out, full = three_step_run
        steps = sorted((full_out / "steps").glob("step_*"))
        assert [p.name for p in steps] == ["step_000.json", "step_001.json", "step_002.json"]
        written = {p.relative_to(full_out): p.read_bytes()
                   for p in (full_out / "steps").rglob("*") if p.is_file()}
        # a resume after losing the newest step, two, or all of them
        for lost in (1, 2, 3):
            out = tmp_path / f"lost_{lost}"
            shutil.copytree(full_out, out)
            for step in steps[-lost:]:
                (out / "steps" / step.name).unlink()
            (out / "summary.json").unlink()
            resumed = run_pipeline(cfg, out, resume=True)
            assert json.dumps(strip_timings(full), sort_keys=True) == \
                   json.dumps(strip_timings(resumed), sort_keys=True)
            assert {p.relative_to(out): p.read_bytes()
                    for p in (out / "steps").rglob("*") if p.is_file()} == written

    @pytest.mark.parametrize("changed, differ", [
        ({"eps": 2e-3, "norm_grid": 10}, ["eps", "norm_grid"]),
        ({"potential": {**TINY["potential"], "scale": 0.2}}, ["potential"]),
        # verify reads these, the reduce does not: the resume goes on
        ({"conjugacy_T": 4.0, "lyapunov_T": 10.0, "seed": 3, "run_verify": False}, None),
    ])
    def test_resume_under_another_config(self, tmp_path, capsys, changed, differ):
        out = tmp_path / "run"
        full = run_pipeline(tiny_config(), out)
        (out / "steps" / "step_001.json").unlink()
        written = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({**TINY, **changed}))
        code = main(["resume", "--config", str(cfg_path), "--out", str(out)])
        if differ is None:
            assert code == EXIT_CONVERGED
            summary = json.loads((out / "summary.json").read_text())
            assert summary["steps"] == json.loads(json.dumps(full["steps"]))
            return
        assert code == EXIT_CONFIG
        path = out / "steps" / "step_000.json"
        assert capsys.readouterr().err == (f"config_error: resume: {path}: checkpoint written "
                                           f"under other values of {differ}\n")
        # the refused resume wrote nothing: config.json, summary.json,
        # resonance.csv and the checkpoints are the converged run's
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == written

    @pytest.mark.parametrize("manifest", ["state.json", "step_001.json"])
    def test_resume_over_another_checkpoint_schema_is_config_error(self, tmp_path, capsys,
                                                                   manifest):
        out = tmp_path / "run"
        run_pipeline(tiny_config(), out)
        steps = out / "steps"
        if manifest == "state.json":
            # schema 7's layout, a directory per step: resuming beside it
            # would recompute every step next to the old directories
            for path in sorted(steps.glob("step_*.json")):
                old = path.with_suffix("")
                old.mkdir()
                state = json.loads(path.read_text())
                (old / "state.json").write_text(json.dumps({**state, "schema": 7}))
                (old / "generator.bin").write_bytes(bytes(16))
                path.unlink()
            message = f"{steps / 'step_000.json'}: missing, yet {steps / 'step_000'} is present"
        else:
            path = steps / manifest
            old = json.loads(path.read_text())
            old["schema"] = cli.CHECKPOINT_SCHEMA - 1
            path.write_text(json.dumps(old))
            message = (f"{path}: checkpoint schema {cli.CHECKPOINT_SCHEMA - 1}, "
                       f"expected {cli.CHECKPOINT_SCHEMA}")
        written = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(TINY))
        assert main(["resume", "--config", str(cfg_path), "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config_error: resume: {message}\n"
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == written

    def test_resume_over_a_state_json_that_is_not_json_is_config_error(self, tmp_path,
                                                                       capsys):
        out = tmp_path / "run"
        run_pipeline(tiny_config(), out)
        path = out / "steps" / "step_001.json"
        path.write_text("not json")
        written = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(TINY))
        assert main(["resume", "--config", str(cfg_path), "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(
            f"config_error: resume: {path}: not JSON: Expecting value")
        # config.json, summary.json, resonance.csv and steps/ are the converged run's
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == written

    @pytest.mark.parametrize("content, message", [
        ({"schema": cli.CHECKPOINT_SCHEMA}, "missing or mistyped keys ['config', 'record']"),
        ([1], "a checkpoint manifest is a JSON object, not list"),
        ("record without tail_norm", "missing or mistyped keys ['record.tail_norm']"),
        ("record with generator", "unknown keys ['record.generator']"),
    ], ids=["schema_only", "not_an_object", "record_without_tail_norm",
            "record_with_an_unknown_key"])
    def test_resume_over_a_manifest_without_a_key_it_reads_is_config_error(
            self, tmp_path, capsys, content, message):
        out = tmp_path / "run"
        run_pipeline(tiny_config(), out)
        path = out / "steps" / "step_001.json"
        state = json.loads(path.read_text())
        if content == "record without tail_norm":
            del state["record"]["tail_norm"]
            content = state
        elif content == "record with generator":
            state["record"]["generator"] = []
            content = state
        path.write_text(json.dumps(content))
        written = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(TINY))
        assert main(["resume", "--config", str(cfg_path), "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config_error: resume: {path}: {message}\n"
        # config.json, summary.json, resonance.csv and steps/ are the converged run's
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == written

    @pytest.mark.parametrize("gap", ["missing_step", "step_after_an_incomplete_one"])
    def test_resume_over_a_gap_in_steps_is_config_error(self, three_step_run, tmp_path,
                                                        capsys, gap):
        # a resume across a gap would chain step 2 onto step 0; a leftover
        # temporary file of the missing step does not fill the gap
        cfg, full_out, _ = three_step_run
        out = tmp_path / "run"
        shutil.copytree(full_out, out)
        step = out / "steps" / "step_001.json"
        if gap == "step_after_an_incomplete_one":
            step.with_name(".step_001.json.tmp").write_text(step.read_text()[:100])
        step.unlink()
        written = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg.as_dict()))
        assert main(["resume", "--config", str(cfg_path), "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config_error: resume: {step}: missing, yet "
            f"{out / 'steps' / 'step_002.json'} is present\n")
        # config.json, summary.json, resonance.csv and steps/ are the converged run's
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == written


class TestRunDirectory:
    @staticmethod
    def resonant_tau() -> float:
        return float(find_resonant_tau((1.0, np.sqrt(2.0)), J_max=8, K_search=2)[0])

    @pytest.mark.parametrize("case, status", [
        ("resonant_tau", "resonant_tau"), ("diophantine", "config_error"),
        ("step_size", "step_size_abort"), ("stage_value_error", "internal_error")])
    def test_a_library_abort_leaves_its_summary(self, tmp_path, monkeypatch, case, status):
        over = {}
        if case == "resonant_tau":
            over = {"tau": self.resonant_tau()}
        elif case == "diophantine":
            over = {"omega0": [1.0, 1.0 + 1e-9]}
        elif case == "step_size":
            over = {"eps": 0.4, "potential": {"preset": "finite_smooth", "scale": 3.0,
                                              "theta_band": 2}}
        else:
            def broken(*a, **k):
                raise ValueError("bad value")

            monkeypatch.setattr(cli, "decompose", broken)
        cfg = tiny_config(**over)
        out = tmp_path / "run"
        with pytest.raises(PipelineAbort) as err:
            run_pipeline(cfg, out)
        assert err.value.status == status
        config = json.loads(json.dumps(cfg.as_dict()))
        assert json.loads((out / "summary.json").read_text()) == {
            "status": status, "detail": err.value.detail, "config": config}
        assert json.loads((out / "config.json").read_text()) == config

    def test_an_unwritable_abort_summary_keeps_the_exit_code(self, tmp_path, monkeypatch,
                                                             capsys):
        write_text = cli._write_text

        def broken(path, text):
            if path.name == "summary.json":
                raise OSError("disk full")
            write_text(path, text)

        monkeypatch.setattr(cli, "_write_text", broken)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({**TINY, "tau": self.resonant_tau()}))
        out = tmp_path / "run"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == EXIT_RESONANT
        assert capsys.readouterr().err.startswith("resonant_tau: tau=")
        assert not (out / "summary.json").exists()

    def test_sweep_without_tau_sweep_is_config_error_writing_nothing(self, tmp_path,
                                                                      capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(TINY))
        out = tmp_path / "s"
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == "config_error: tau_sweep must be [lo, hi, count]\n"
        assert not out.exists()


    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_every_file_goes_through_the_one_writer(self, tmp_path, monkeypatch, command):
        written, write_text = [], cli._write_text

        def recorded(path, text):
            written.append(path)
            write_text(path, text)

        monkeypatch.setattr(cli, "_write_text", recorded)
        out = tmp_path / "out"
        if command == "run":
            run_pipeline(tiny_config(), out)
        else:
            sweep_tau(tiny_config(tau_sweep=[1.28, 1.29, 2], run_verify=False), out)
        files = {p for p in out.rglob("*") if p.is_file()}
        assert any(p.match("steps/step_001.json") for p in files)
        assert set(written) == files

    @pytest.mark.parametrize("field, value, message", [
        ("lyapunov_T", 10.0, "the Lyapunov horizon 10.0 must cover at least 100 "
                             "renormalization intervals of 0.2"),
        ("conjugacy_samples", 0, "conjugacy_samples must be >= 1"),
        ("conjugacy_T", 0.0, "conjugacy_T must be positive"),
        ("lyapunov_renorm_dt", 0.0, "lyapunov_renorm_dt must be positive"),
        ("tau_grid_points", 50, "tau_grid_points must be >= 100"),
        ("K_check", 0, "validation needs K_check >= 1 and validation_grid >= 4"),
        ("validation_grid", 2, "validation needs K_check >= 1 and validation_grid >= 4"),
    ])
    def test_a_stage_precondition_is_config_error_writing_nothing(self, tmp_path, capsys,
                                                                  field, value, message):
        # each of these once failed in its stage, the verify ones after the
        # reduce had written its checkpoints
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({**TINY, field: value}))
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    def test_verify_fields_are_checked_only_with_verify(self, tmp_path):
        summary = run_pipeline(tiny_config(lyapunov_T=10.0, conjugacy_samples=0,
                                           run_verify=False), tmp_path / "run")
        assert summary["status"] == "converged" and "verify" not in summary


def _watch_lifetimes(monkeypatch) -> tuple:
    """Weakrefs to the decomposition, to the coefficients of the seeded pieces
    the engine starts from and, on a resume, of the pieces the replay leaves
    it, and the names still alive at each checkpoint after a gc.collect()."""
    refs, alive_at = {}, {}
    decompose = cli.decompose

    def watched_decompose(*a, **k):
        dec = decompose(*a, **k)
        refs["decomposition"] = weakref.ref(dec)
        return dec

    def watch(label, pieces):
        for i, piece in enumerate(pieces):
            refs[f"{label} piece {i} coeffs"] = weakref.ref(piece.coeffs)

    seed, replay = cli.seed_pieces, cli.replay_checkpoints

    def watched_seed(*a, **k):
        pieces = seed(*a, **k)
        watch("seeded", pieces)
        return pieces

    def watched_replay(engine, found):
        replay(engine, found)
        watch("replayed", engine.state.remainder)

    save = cli.save_checkpoint

    def watched_save(out, record, config):
        save(out, record, config)
        gc.collect()
        alive_at[record["m"]] = sorted(name for name, ref in refs.items() if ref() is not None)

    monkeypatch.setattr(cli, "decompose", watched_decompose)
    monkeypatch.setattr(cli, "seed_pieces", watched_seed)
    monkeypatch.setattr(cli, "replay_checkpoints", watched_replay)
    monkeypatch.setattr(cli, "save_checkpoint", watched_save)
    return refs, alive_at


class TestMemory:
    def test_stage_data_is_released_once_the_engine_is_seeded(self, tmp_path, monkeypatch):
        refs, alive_at = _watch_lifetimes(monkeypatch)
        run_pipeline(tiny_config(), tmp_path / "run")
        assert "decomposition" in refs and "seeded piece 0 coeffs" in refs
        assert alive_at[1] == []

    def test_restored_pieces_are_released_after_the_first_resumed_step(self, tmp_path,
                                                                         monkeypatch):
        out = tmp_path / "run"
        run_pipeline(tiny_config(), out)
        sorted((out / "steps").glob("step_*"))[-1].unlink()
        refs, alive_at = _watch_lifetimes(monkeypatch)
        run_pipeline(tiny_config(), out, resume=True)
        assert {"decomposition", "seeded piece 0 coeffs", "replayed piece 0 coeffs"} <= set(refs)
        assert list(alive_at) == [1]
        assert alive_at[1] == []

    def test_peak_rss_recorded_after_each_stage_and_step(self, tmp_path):
        summary = run_pipeline(tiny_config(), tmp_path / "run")
        peaks = summary["timings"]["peak_rss_mb"]
        assert [label for label, _ in peaks] == [
            "validate", "analyze", "assemble", "schedule_split", "screen", "step 0",
            "step 1", "reduce", "verify"]
        mib = [value for _, value in peaks]
        assert mib[0] > 0 and mib == sorted(mib)  # a running peak never falls
        on_disk = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert on_disk["timings"]["peak_rss_mb"] == peaks
        # quarantined under timings: the stripped summary does not see it
        assert "peak_rss" not in json.dumps(strip_timings(summary))


class TestCertificateAbort:
    def test_consistency_above_residual_tol_aborts_with_code_5(self, tmp_path):
        out = tmp_path / "cert"
        with pytest.raises(PipelineAbort) as err:
            run_pipeline(tiny_config(residual_tol=1e-30), out)
        assert err.value.code == EXIT_CERTIFICATE
        assert err.value.status == "certificate_failed"
        assert "step m=0" in err.value.detail
        assert not (out / "steps" / "step_000.json").exists()

    @pytest.mark.parametrize("gate", ["homological_residual", "symplectic_defect", "P_norm",
                                      "series_truncation_spec_ok"])
    def test_failed_step_certificate_aborts_with_code_5(self, tmp_path, fail_certificate,
                                                         gate):
        fail_certificate(gate)
        out = tmp_path / "cert"
        with pytest.raises(PipelineAbort) as err:
            run_pipeline(tiny_config(), out)
        assert err.value.code == EXIT_CERTIFICATE
        assert err.value.status == "certificate_failed"
        assert f"step m=0: {gate}" in err.value.detail
        assert not (out / "steps" / "step_000.json").exists()

    @staticmethod
    def failed_small_run(tmp_path) -> dict:
        """Summary of `qpwave run` on a small config without verify, which
        must end as certificate_failed (exit 5)."""
        cfg = RunConfig(run_verify=False, J_max=6, K_theta=4, M=2)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg.as_dict()))
        out = tmp_path / "nan"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == EXIT_CERTIFICATE
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "certificate_failed"
        return summary

    def test_nan_in_a_remainder_block_fails_the_residual_gate(self, tmp_path, monkeypatch):
        # the residual is gated before any SVD of the solution, so a NaN in
        # the solve's input is a failed certificate, not a LinAlgError
        remainder_blocks = kam._remainder_blocks

        def poisoned(*a):
            (zz, zzbar, zbzb), diag = remainder_blocks(*a)
            zz[(0,) * zz.ndim] = np.nan
            return (zz, zzbar, zbzb), diag

        monkeypatch.setattr(kam, "_remainder_blocks", poisoned)
        summary = self.failed_small_run(tmp_path)
        assert "step m=0: homological_residual nan" in summary["detail"]

    @pytest.mark.parametrize("level, gate", [(0, "homological_residual"),
                                             (1, "consistency_defect")])
    def test_nan_in_a_seeded_piece_fails_a_gate(self, tmp_path, monkeypatch, level, gate):
        # the step's first norm reads the NaN without an SVD (which would not
        # converge), so the first gate that reads the piece names it: the
        # solve's residual for the active piece, the oracle for a higher one
        seed_pieces = cli.seed_pieces

        def poisoned(*a):
            pieces = seed_pieces(*a)
            coeffs = pieces[level].coeffs
            coeffs[(0,) * coeffs.ndim] = np.nan
            return pieces

        monkeypatch.setattr(cli, "seed_pieces", poisoned)
        summary = self.failed_small_run(tmp_path)
        assert f"step m=0: {gate} nan" in summary["detail"]

    def test_conjugacy_outside_tolerance_aborts_with_code_5(self, tmp_path, monkeypatch):
        compare = cli.compare_through_chain
        monkeypatch.setattr(cli, "compare_through_chain", lambda *a, **k: dataclasses.replace(
            compare(*a, **k), max_rel_deviation=1.0))
        out = tmp_path / "conj"
        with pytest.raises(PipelineAbort) as err:
            run_pipeline(tiny_config(), out)
        assert err.value.code == EXIT_CERTIFICATE
        assert err.value.status == "certificate_failed"
        assert err.value.detail.startswith("verify: conjugacy")
        # the full summary is on disk, with the verify section that failed
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "certificate_failed"
        assert summary["detail"] == err.value.detail
        assert summary["verify"]["conjugacy"]["max_rel_deviation"] == 1.0
        assert not summary["verify"]["conjugacy"]["within_tolerance"]
        assert len(summary["steps"]) == 2


class TestStepSizeAbort:
    def test_oversized_perturbation_aborts_with_code_3(self, tmp_path):
        cfg = tiny_config(eps=0.4, potential={"preset": "finite_smooth",
                                              "scale": 3.0, "theta_band": 2})
        with pytest.raises(PipelineAbort) as err:
            run_pipeline(cfg, tmp_path / "big")
        assert err.value.code == EXIT_STEPSIZE


class TestSweep:
    def test_two_point_sweep_at_eps_zero(self, tmp_path):
        cfg = tiny_config(eps=0.0, tau_sweep=[1.2, 1.3, 2], run_verify=False)
        agg = sweep_tau(cfg, tmp_path / "sweep")
        assert agg["converged_fraction"] == 1.0
        assert (tmp_path / "sweep" / "sweep_summary.json").exists()

    def test_sweep_with_resonant_points(self, tmp_path):
        tau, _ = find_resonant_tau((1.0, np.sqrt(2.0)), J_max=8, K_search=2)
        cfg = tiny_config(tau_sweep=[float(tau), float(tau), 2], run_verify=False)
        agg = sweep_tau(cfg, tmp_path / "sweep2")
        assert agg["converged_fraction"] == 0.0
        for i, r in enumerate(agg["results"]):
            assert r["status"] == "resonant_tau"
            # each rejected tau's run directory holds its summary
            summary = json.loads((tmp_path / "sweep2" / f"tau_{i:03d}" / "summary.json")
                                 .read_text())
            assert (summary["status"], summary["detail"]) == (r["status"], r["detail"])
            assert summary["config"]["tau"] == r["tau"]

    def test_step_size_abort_is_not_a_resonance_exclusion(self, tmp_path):
        tau, _ = find_resonant_tau((1.0, np.sqrt(2.0)), J_max=8, K_search=2)
        cfg = tiny_config(eps=0.4, potential={"preset": "finite_smooth",
                                              "scale": 3.0, "theta_band": 2},
                          tau_sweep=[float(tau), 1.29, 2], run_verify=False)
        agg = sweep_tau(cfg, tmp_path / "sweep3")
        assert [r["status"] for r in agg["results"]] == ["resonant_tau", "step_size_abort"]
        assert agg["converged_fraction"] == 0.0
        assert agg["excluded_fraction"] == 0.5
        assert agg["empirical_constant"] == 0.5 / 0.05 ** (1.0 / 3.0)

    def test_sweep_matches_single_runs(self, tmp_path, monkeypatch):
        # one front for the whole sweep; its step-0 pieces survive every run
        seeded = []
        seed = cli.seed_pieces

        def watched_seed(*a, **k):
            pieces = seed(*a, **k)
            seeded.append((pieces, [p.coeffs.copy() for p in pieces]))
            return pieces

        monkeypatch.setattr(cli, "seed_pieces", watched_seed)
        tau, _ = find_resonant_tau((1.0, np.sqrt(2.0)), J_max=8, K_search=2)
        out = tmp_path / "sweep"
        agg = sweep_tau(tiny_config(tau_sweep=[float(tau), 1.29, 2]), out)
        assert [r["status"] for r in agg["results"]] == ["resonant_tau", "converged"]
        assert len(seeded) == 1
        pieces, coeffs = seeded[0]
        assert pieces
        for piece, before in zip(pieces, coeffs):
            assert np.array_equal(piece.coeffs, before)

        with pytest.raises(PipelineAbort) as err:
            run_pipeline(tiny_config(tau=float(tau)), tmp_path / "resonant")
        assert agg["results"][0]["detail"] == err.value.detail
        single = run_pipeline(tiny_config(tau=1.29), tmp_path / "single")
        swept = json.loads((out / "tau_001" / "summary.json").read_text())
        assert swept["status"] == "converged"
        assert strip_timings(swept) == json.loads(json.dumps(strip_timings(single)))
        assert agg["results"][1]["max_abs_xi"] == single["multiplier"]["max_abs"]

    def test_sweep_computes_the_step0_active_norm_once(self, tmp_path, monkeypatch):
        # the taus share the front's step-0 pieces: the first run's step 0
        # evaluates the active piece's norm grid, the next reads its memo
        seeded, evaluated = [], []
        seed, grid_values = cli.seed_pieces, galerkin.QuadraticForm.grid_values

        def watched_seed(*a, **k):
            seeded.append(seed(*a, **k))
            return seeded[-1]

        def counted(qf, G):
            evaluated.append(qf)
            return grid_values(qf, G)

        monkeypatch.setattr(cli, "seed_pieces", watched_seed)
        monkeypatch.setattr(galerkin.QuadraticForm, "grid_values", counted)
        cfg = tiny_config(tau_sweep=[1.28, 1.29, 2], run_verify=False)
        out = tmp_path / "sweep"
        agg = sweep_tau(cfg, out)
        assert [r["status"] for r in agg["results"]] == ["converged", "converged"]
        assert len(seeded) == 1
        active = seeded[0][0]
        assert sum(qf is active for qf in evaluated) == 1
        ws = galerkin.WeightedSpace(cfg.smoothness_N, cfg.J_max)
        norm = galerkin.form_norm(active, ws, cfg.norm_grid)
        for i in range(2):
            summary = json.loads((out / f"tau_{i:03d}" / "summary.json").read_text())
            assert summary["steps"][0]["active_norm"] == norm

    def test_failing_front_fails_every_tau(self, tmp_path):
        # omega0 = (1, 1 + 1e-9) fails the Diophantine check
        cfg = tiny_config(omega0=[1.0, 1.0 + 1e-9], tau_sweep=[1.2, 1.3, 2])
        agg = sweep_tau(cfg, tmp_path / "sweep")
        with pytest.raises(PipelineAbort) as err:
            run_pipeline(tiny_config(omega0=[1.0, 1.0 + 1e-9]), tmp_path / "single")
        assert err.value.status == "config_error"
        assert err.value.detail.startswith("potential assumptions failed: ")
        assert "'diophantine_ok': False" in err.value.detail
        assert agg["results"] == [{"tau": t, "status": "config_error", "detail": err.value.detail}
                                  for t in (1.2, 1.3)]
        for i, t in enumerate((1.2, 1.3)):
            written = json.loads((tmp_path / "sweep" / f"tau_{i:03d}" / "config.json").read_text())
            assert written["tau"] == t and written["tau_sweep"] is None

    def test_sweep_records_the_front_timings(self, tmp_path):
        out = tmp_path / "sweep"
        agg = sweep_tau(tiny_config(tau_sweep=[1.28, 1.29, 2], run_verify=False), out)
        on_disk = json.loads((out / "sweep_summary.json").read_text())
        assert set(on_disk) == {"schema_version", "taus", "results", "converged_fraction",
                                "excluded_fraction", "empirical_constant", "bound_form",
                                "timings"}
        timings = on_disk["timings"]
        assert timings == agg["timings"]
        assert [label for label, _ in timings["peak_rss_mb"]] == [
            "validate", "analyze", "assemble", "schedule_split", "front"]
        for stage in ("validate", "analyze", "assemble", "schedule_split", "screen", "front",
                      "total"):
            assert timings[stage] > 0
        assert timings["front"] <= timings["total"]
        # each tau's timings hold its own stages only, and report renders them
        tau_out = out / "tau_001"
        summary = json.loads((tau_out / "summary.json").read_text())
        assert [label for label, _ in summary["timings"]["peak_rss_mb"]] == [
            "screen", "step 0", "step 1", "reduce"]
        assert "validate" not in summary["timings"]
        assert main(["report", "--out", str(tau_out)]) == EXIT_CONVERGED
        rows = (tau_out / "timings_report.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in rows[1:]] == [
            "screen", "step 0", "step 1", "reduce", "total"]


class TestMain:
    def test_run_and_report_commands(self, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(TINY))
        out = tmp_path / "out"
        code = main(["run", "--config", str(cfg_path), "--out", str(out)])
        assert code == EXIT_CONVERGED
        code = main(["report", "--out", str(out)])
        assert code == EXIT_CONVERGED
        assert (out / "steps_report.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        rows = [row.split(",") for row in
                (out / "timings_report.csv").read_text().splitlines()]
        assert rows[0] == ["entry", "seconds", *STEP_COLUMNS, "peak_rss_mb"]
        names = [row[0] for row in rows[1:]]
        assert names == [name for name, _ in summary["timings"]["peak_rss_mb"]] + ["total"]
        assert names[:6] == ["validate", "analyze", "assemble", "schedule_split", "screen",
                             "step 0"]
        by_name = {row[0]: row for row in rows[1:]}
        for entry in summary["timings"]["steps"]:
            row = by_name[f"step {entry['m']}"]
            assert row[1] == ""
            assert [float(c) for c in row[2:-1]] == pytest.approx(
                [entry[key] for key in STEP_COLUMNS], rel=1e-6)
        assert float(by_name["reduce"][1]) == pytest.approx(summary["timings"]["reduce"],
                                                            rel=1e-6)
        assert by_name["reduce"][2:-1] == [""] * len(STEP_COLUMNS)
        assert float(by_name["total"][1]) == pytest.approx(summary["timings"]["total"],
                                                           rel=1e-6)

    def test_a_resume_times_its_replay(self, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(TINY))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == EXIT_CONVERGED
        fresh = json.loads((out / "summary.json").read_text())["timings"]
        assert "replay" not in fresh
        assert "replay" not in [label for label, _ in fresh["peak_rss_mb"]]
        (out / "steps" / "step_001.json").unlink()
        assert main(["resume", "--config", str(cfg_path), "--out", str(out)]) == EXIT_CONVERGED
        assert main(["report", "--out", str(out)]) == EXIT_CONVERGED
        timings = json.loads((out / "summary.json").read_text())["timings"]
        # the replay of step 0 runs inside the reduce stage, before step 1
        assert [label for label, _ in timings["peak_rss_mb"]] == [
            "validate", "analyze", "assemble", "schedule_split", "screen", "replay", "step 1",
            "reduce", "verify"]
        assert 0.0 < timings["replay"] <= timings["reduce"]
        assert [entry["m"] for entry in timings["steps"]] == [1]
        rows = {row.split(",")[0]: row.split(",") for row in
                (out / "timings_report.csv").read_text().splitlines()}
        assert float(rows["replay"][1]) == pytest.approx(timings["replay"], rel=1e-6)
        assert rows["replay"][2:-1] == [""] * len(STEP_COLUMNS)
        assert float(rows["replay"][-1]) == pytest.approx(dict(timings["peak_rss_mb"])["replay"],
                                                          rel=1e-6)

    def test_report_with_null_consistency_defect(self, tmp_path):
        step = {"m": 0, "eps_m": 1e-3, "K_eff": 3, "divisor_min": 0.25,
                "homological_residual": 1e-14, "P_norm": 2e-3, "P_bound": 0.03,
                "symplectic_defect": 1e-15, "consistency_defect": None,
                "weighted_size": 4e-4}
        out = tmp_path / "out"
        out.mkdir()
        (out / "summary.json").write_text(json.dumps({"steps": [step]}))
        assert main(["report", "--out", str(out)]) == EXIT_CONVERGED
        rows = (out / "steps_report.csv").read_text().splitlines()
        assert rows[0].split(",")[5:7] == ["P_norm", "P_bound"]
        assert rows[1] == ("0,1.000000e-03,3,2.500000e-01,1.000000e-14,"
                           "2.000000e-03,3.000000e-02,1.000000e-15,,4.000000e-04")
        # a summary without timings renders its timings report empty
        timing_rows = (out / "timings_report.csv").read_text().splitlines()
        assert timing_rows[1:] == ["total,,,,,,,,"]

    def test_report_of_a_summary_without_step_timings(self, tmp_path):
        # a run from before timings.steps: stage rows only, sub-stage cells empty
        timings = {"validate": 0.5, "reduce": 2.0, "total": 3.0,
                   "peak_rss_mb": [["validate", 30.0], ["step 0", 40.0], ["reduce", 41.0]]}
        out = tmp_path / "out"
        out.mkdir()
        (out / "summary.json").write_text(json.dumps({"steps": [], "timings": timings}))
        assert main(["report", "--out", str(out)]) == EXIT_CONVERGED
        rows = (out / "timings_report.csv").read_text().splitlines()
        assert rows[1:] == ["validate,5.000000e-01,,,,,,,3.000000e+01",
                            "step 0,,,,,,,,4.000000e+01",
                            "reduce,2.000000e+00,,,,,,,4.100000e+01",
                            "total,3.000000e+00,,,,,,,"]

    def test_validate_command(self, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(TINY))
        code = main(["validate", "--config", str(cfg_path), "--out",
                     str(tmp_path / "v")])
        assert code == EXIT_CONVERGED

    @pytest.mark.parametrize("eps", [0.99, 0.0])
    def test_validate_screens_what_the_run_screens(self, tmp_path, monkeypatch, eps):
        # at eps = 0.99 step 0's cutoff K_eff(0) = 3 lies below K_theta = 6;
        # a degenerate schedule screens the whole window
        screens = []
        real = resonance.screen_tau

        def spy(tau, nf, omega0, K_m, gamma_m, J_max):
            result = real(tau, nf, omega0, K_m, gamma_m, J_max)
            screens.append(((tau, nf.lambdas().tolist(), list(omega0), K_m, gamma_m, J_max),
                            result.worst.as_dict()))
            return result

        monkeypatch.setattr(resonance, "screen_tau", spy)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({**TINY, "eps": eps, "K_theta": 6, "run_verify": False}))
        main(["validate", "--config", str(cfg_path), "--out", str(tmp_path / "v")])
        main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "r")])
        (validated, worst), (screened, run_worst) = screens
        assert validated == screened and validated[3] == (3 if eps else 6)
        assert worst == run_worst
        assert json.loads((tmp_path / "v" / "validate.json").read_text())["worst_query"] == worst

    def test_threads_in_a_config_is_config_error(self, tmp_path, capsys):
        # the BLAS thread count is the environment's (OPENBLAS_NUM_THREADS)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({**TINY, "threads": 1}))
        out = tmp_path / "t"
        code = main(["run", "--config", str(cfg_path), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "set OPENBLAS_NUM_THREADS" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_config_exit_code(self, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({**TINY, "eps": 2.0}))
        code = main(["run", "--config", str(cfg_path), "--out",
                     str(tmp_path / "x")])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("flag", ["1.1:1.9", "1.1:x:3", "0.5:1.5:3", "1.2:2.5:3",
                                      "1.2:1.5:1"])
    def test_malformed_tau_sweep_is_config_error(self, tmp_path, capsys, flag):
        code = main(["sweep", "--tau-sweep", flag, "--out", str(tmp_path / "s")])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: ")

    def test_fractional_sweep_count_is_config_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({**TINY, "tau_sweep": [1.2, 1.5, 2.5]}))
        code = main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "s")])
        assert code == EXIT_CONFIG
        assert "integer count" in capsys.readouterr().err

    def test_picard_tol_looser_than_symplectic_gate_is_config_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({**TINY, "picard_tol": 1e-9}))
        out = tmp_path / "p"
        code = main(["run", "--config", str(cfg_path), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "picard_tol must be <= 1e-12" in capsys.readouterr().err
        assert not out.exists()

    def test_resonant_exit_code(self, tmp_path):
        tau, _ = find_resonant_tau((1.0, np.sqrt(2.0)), J_max=8, K_search=2)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({**TINY, "tau": float(tau)}))
        code = main(["run", "--config", str(cfg_path), "--out",
                     str(tmp_path / "r")])
        assert code == EXIT_RESONANT

    def test_conjugacy_failure_exit_code_keeps_full_summary(self, tmp_path, monkeypatch):
        compare = cli.compare_through_chain
        monkeypatch.setattr(cli, "compare_through_chain", lambda *a, **k: dataclasses.replace(
            compare(*a, **k), max_rel_deviation=1.0))
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(TINY))
        out = tmp_path / "c"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == EXIT_CERTIFICATE
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "certificate_failed"
        assert "verify" in summary and "steps" in summary

    def test_linalg_error_is_internal_error_naming_stage_and_step(self, tmp_path,
                                                                  monkeypatch):
        def broken(*a, **k):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(kam, "flow_transform", broken)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(TINY))
        out = tmp_path / "i"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == EXIT_INTERNAL
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "internal_error"
        assert summary["detail"].startswith("reduce, step m=0: LinAlgError: Singular matrix")

    def test_assemble_error_is_internal_error(self, tmp_path, monkeypatch):
        def broken(*args):
            raise galerkin.DimensionError("coupling tensor smaller than the weighted space")

        monkeypatch.setattr(cli, "assemble_initial_forms", broken)
        with pytest.raises(PipelineAbort) as err:
            run_pipeline(tiny_config(), tmp_path / "r")
        assert err.value.code == EXIT_INTERNAL
        assert err.value.detail.startswith("assemble: DimensionError: ")

    def test_resume_after_two_lost_steps_is_byte_identical(self, three_step_run, tmp_path):
        # the newest step left holds no pieces: the replay pushes them again
        cfg, full_out, full = three_step_run
        out = tmp_path / "r"
        shutil.copytree(full_out, out)
        for name in ("step_001.json", "step_002.json"):
            (out / "steps" / name).unlink()
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg.as_dict()))
        assert main(["resume", "--config", str(cfg_path), "--out", str(out)]) == EXIT_CONVERGED
        summary = json.loads((out / "summary.json").read_text())
        assert strip_timings(summary) == json.loads(json.dumps(strip_timings(full)))
        for path in full_out.rglob("*"):
            if path.is_file() and path.name != "summary.json":
                assert (out / path.relative_to(full_out)).read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("step, key, value", [
        ("step_002", "P_norm", "next"), ("step_001", "new_piece_norms", "next"),
        ("step_001", "divisor_min", "next"), ("step_001", "homological_residual", 9e-13)],
        ids=["P_norm-its flow gives", "new_piece_norms-its push gives",
             "divisor_min-its solve gives", "homological_residual-its solve gives"])
    def test_same_size_checkpoint_corruption_is_internal_error(self, three_step_run,
                                                               tmp_path, step, key, value):
        # a record value one ulp off, or moved below its gate: the re-run
        # step's record is not the stored one
        cfg, full_out, _ = three_step_run
        out = tmp_path / "r"
        shutil.copytree(full_out, out)
        path = out / "steps" / f"{step}.json"
        state = json.loads(path.read_text())
        record = state["record"]
        if key == "new_piece_norms":
            record[key][0] = float(np.nextafter(record[key][0], np.inf))
        else:
            record[key] = float(np.nextafter(record[key], np.inf)) if value == "next" else value
        path.write_text(json.dumps(state))
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg.as_dict()))
        assert main(["resume", "--config", str(cfg_path), "--out", str(out)]) == EXIT_INTERNAL
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "internal_error"
        assert summary["detail"] == (f"reduce: ValueError: {path}: the re-run step differs "
                                     f"from its record in ['{key}']")

    @pytest.mark.parametrize("owner, callee, stage", [
        (cli, "validate_assumptions", "validate"),
        (cli, "fourier_analyze", "analyze"),
        (cli, "assemble_initial_forms", "assemble"),
        (cli, "decompose", "schedule_split"),
        (resonance, "measure_scan", "screen"),  # the front's step-0 scan
        (cli, "_screen", "screen"),
        (kam.KamEngine, "step", "reduce, step m=0"),
        (kam.KamEngine, "result", "reduce"),
        (cli, "_verify_stage", "verify"),
    ], ids=["validate_assumptions", "fourier_analyze", "assemble_initial_forms", "decompose",
            "measure_scan", "_screen", "KamEngine.step", "KamEngine.result", "_verify_stage"])
    def test_every_stage_names_itself(self, tmp_path, monkeypatch, owner, callee, stage):
        def broken(*a, **k):
            raise ValueError("bad value")

        monkeypatch.setattr(owner, callee, broken)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(TINY))
        out = tmp_path / "v"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == EXIT_INTERNAL
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "internal_error"
        assert summary["detail"] == f"{stage}: ValueError: bad value"

    @pytest.mark.parametrize("error, code, status", [
        (kam.ResonanceError("zz", (1, 0), 1, 2, 1e-5, 1e-3), EXIT_RESONANT, "resonant_tau"),
        (kam.StepSizeError("Picard iteration did not converge; reduce eps"), EXIT_STEPSIZE,
         "step_size_abort"),
        (kam.CertificateError("P_norm 1.000e+00 > P_bound 3.162e-02"), EXIT_CERTIFICATE,
         "certificate_failed"),
    ], ids=["resonance", "step_size", "certificate"])
    def test_engine_errors_keep_their_exit_code_and_name_the_step(self, tmp_path, monkeypatch,
                                                                  error, code, status):
        step = kam.KamEngine.step

        def failing_second_step(engine):
            if engine.state.m == 1:
                raise error
            return step(engine)

        monkeypatch.setattr(kam.KamEngine, "step", failing_second_step)
        detail = f"reduce, step m=1: {error}"
        with pytest.raises(PipelineAbort) as err:
            run_pipeline(tiny_config(run_verify=False), tmp_path / "run")
        assert (err.value.code, err.value.status, err.value.detail) == (code, status, detail)
        agg = sweep_tau(tiny_config(tau_sweep=[1.28, 1.29, 2], run_verify=False),
                        tmp_path / "sweep")
        assert agg["results"] == [{"tau": tau, "status": status, "detail": detail}
                                  for tau in (1.28, 1.29)]

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("content, message", [
        ('{"J_max": "8"}', "J_max must be int, not str"),
        ("[1, 2]", "a config is a JSON object, not list"),
    ], ids=["string_J_max", "list"])
    def test_malformed_config_file_is_config_error(self, tmp_path, capsys, command, content,
                                                   message):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(content)
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err
        assert not out.exists()

    def test_report_of_a_damaged_summary_is_config_error(self, three_step_run, tmp_path,
                                                         capsys):
        _, full_out, _ = three_step_run
        text = (full_out / "summary.json").read_text()
        steps = [{key: value for key, value in step.items() if key != "eps_m"}
                 for step in json.loads(text)["steps"]]
        for i, (damaged, message) in enumerate([
            (text[:200], "not JSON: "),
            ("[1]", "not a run summary: a summary is a JSON object, not list"),
            (json.dumps({**json.loads(text), "steps": steps}), "missing key 'eps_m'"),
        ]):
            out = tmp_path / f"out_{i}"
            out.mkdir()
            (out / "summary.json").write_text(damaged)
            assert main(["report", "--out", str(out)]) == EXIT_CONFIG
            assert capsys.readouterr().err.startswith(f"{out / 'summary.json'}: {message}")
            assert not (out / "steps_report.csv").exists()
            assert not (out / "timings_report.csv").exists()

    @pytest.mark.parametrize("field, value, kind", [
        ("seed", "abc", "int, not str"),
        ("K_check", 8.5, "int, not float"),
        ("run_verify", "no", "bool, not str"),
    ])
    def test_wrong_typed_config_value_is_config_error(self, tmp_path, capsys, field, value,
                                                      kind):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({**TINY, field: value}))
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {field} must be {kind}\n"
        assert not (out / "steps").exists()

    def test_a_failed_json_write_leaves_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "summary.json"
        cli._write_json(path, {"status": "converged"})
        before = path.read_bytes()
        with pytest.raises(TypeError):  # raised before any write
            cli._write_json(path, {"status": "incomplete", "timings": object()})
        assert path.read_bytes() == before

        # the new text is written whole, and the rename fails
        def failed_rename(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(cli.os, "replace", failed_rename)
        with pytest.raises(OSError, match="rename failed"):
            cli._write_json(path, {"status": "incomplete"})
        assert path.read_bytes() == before
        assert json.loads((tmp_path / ".summary.json.tmp").read_text()) == \
               {"status": "incomplete"}

    def test_os_error_names_its_stage(self, tmp_path, monkeypatch):
        write_text = cli._write_text

        def broken(path, text):
            if path.name == "resonance.csv":
                raise OSError("disk full")
            write_text(path, text)

        monkeypatch.setattr(cli, "_write_text", broken)
        with pytest.raises(PipelineAbort) as err:
            run_pipeline(tiny_config(), tmp_path / "o")
        assert err.value.code == EXIT_INTERNAL
        assert err.value.detail == "screen: OSError: disk full"

    def test_tau_override_and_steps(self, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(TINY))
        out = tmp_path / "o"
        code = main(["run", "--config", str(cfg_path), "--out", str(out),
                     "--tau", "1.31", "--steps", "1"])
        assert code == EXIT_CONVERGED
        with open(out / "summary.json") as f:
            s = json.load(f)
        assert s["config"]["tau"] == 1.31
        assert s["config"]["M"] == 1
        assert len(s["steps"]) == 1
