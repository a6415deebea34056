import dataclasses
import gc
import json
import os
import shutil
import weakref

import numpy as np
import pytest

from forms import checkpoint_engine, real_form
from oracles import find_resonant_tau
from qpwave import cli, fourier, galerkin, kam, resonance
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
    """(config, out, summary) of an uninterrupted TINY run at M = 3, the
    fewest steps at which a checkpoint drops pieces."""
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
        # a stray step directory with an unreadable manifest would break a checkpoint read
        (out / "steps" / "step_000").mkdir(parents=True)
        (out / "steps" / "step_000" / "state.json").write_text("not json")
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
        assert not (tmp_path / "custom" / "steps" / "step_000").exists()

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
        for state in sorted((tmp_path / "a" / "steps").glob("step_*/state.json")):
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
        shutil.rmtree(steps[-1])
        (out / "summary.json").unlink()
        resumed = run_pipeline(cfg, out, resume=True)
        assert json.dumps(strip_timings(full), sort_keys=True) == \
               json.dumps(strip_timings(resumed), sort_keys=True)

    @pytest.mark.parametrize("norm_grid, evaluations", [(8, 0), (12, 1)])
    def test_resume_reads_the_checked_norms(self, tmp_path, monkeypatch, norm_grid,
                                            evaluations):
        # load_checkpoints norms the restored pieces on PUSH_NORM_GRID; at
        # K = 3 that grid is norm_grid 8's, so the first resumed step reads
        # its active norm from the memo, and on norm_grid 12 evaluates it
        cfg = tiny_config(norm_grid=norm_grid)
        out = tmp_path / "run"
        run_pipeline(cfg, out)
        shutil.rmtree(sorted((out / "steps").glob("step_*"))[-1])
        restored, evaluated = [], []
        load, grid_values = cli.load_checkpoints, galerkin.QuadraticForm.grid_values

        def watched_load(*a, **k):
            restored.append(load(*a, **k))
            evaluated.clear()
            return restored[-1]

        def counted(qf, G):
            evaluated.append(qf)
            return grid_values(qf, G)

        monkeypatch.setattr(cli, "load_checkpoints", watched_load)
        monkeypatch.setattr(galerkin.QuadraticForm, "grid_values", counted)
        run_pipeline(cfg, out, resume=True)
        active = restored[0][2][0]
        assert sum(qf is active for qf in evaluated) == evaluations

    def test_checkpoints_leave_only_complete_step_directories(self, tmp_path):
        out = tmp_path / "run"
        run_pipeline(tiny_config(), out)
        names = sorted(p.name for p in (out / "steps").iterdir())
        assert names == ["step_000", "step_001"]
        for name in names:
            state = json.loads((out / "steps" / name / "state.json").read_text())
            # eps_m, P_norm and symplectic_defect live in the step record
            assert sorted(state) == ["config", "encoding", "m_next", "mu_history", "pieces",
                                     "record", "schema", "shape", "windows"]
            assert sorted(state["config"]) == sorted(cli.REDUCE_CONFIG_KEYS)
            assert "config" not in state["record"]

    def test_resume_skips_step_without_state_json(self, tmp_path):
        cfg = tiny_config()
        full = run_pipeline(cfg, tmp_path / "full")
        # an interrupted write of the newest step: binaries, no manifest
        out = tmp_path / "partial"
        run_pipeline(cfg, out)
        newest = sorted((out / "steps").glob("step_*"))[-1]
        (newest / "state.json").unlink()
        assert any(newest.glob("*.bin"))
        (out / "summary.json").unlink()
        resumed = run_pipeline(cfg, out, resume=True)
        assert json.dumps(strip_timings(full), sort_keys=True) == \
               json.dumps(strip_timings(resumed), sort_keys=True)
        assert (newest / "state.json").exists()

    def test_checkpoint_holds_one_array_per_piece_and_generator(self, tmp_path):
        cfg = tiny_config()
        out = tmp_path / "run"
        run_pipeline(cfg, out)
        K, J = cfg.K_theta, cfg.J_max
        half = [2 * K + 1, K + 1, 2 * J, 2 * J]
        # every array is symmetric: its upper triangles, diagonal included
        packed = 16 * np.prod(half[:-2]) * (2 * J) * (2 * J + 1) // 2
        step = out / "steps" / "step_001"
        state = json.loads((step / "state.json").read_text())
        assert state["schema"] == cli.CHECKPOINT_SCHEMA == 6
        assert state["shape"] == half
        # both forms fill the whole window: no windows entry
        assert state["pieces"] == 1 and state["windows"] == {}
        assert state["encoding"] == cli.CHECKPOINT_ENCODING
        assert sorted(p.name for p in step.iterdir()) == ["generator.bin", "piece_0.bin",
                                                          "state.json"]
        assert (step / "generator.bin").stat().st_size == packed
        assert (step / "piece_0.bin").stat().st_size == packed
        # step 0 pushes TINY's zero top piece to a zero piece 1: window -1, no file
        step = out / "steps" / "step_000"
        state = json.loads((step / "state.json").read_text())
        assert state["pieces"] == 2 and state["windows"] == {"piece_1.bin": -1}
        assert sorted(p.name for p in step.iterdir()) == ["generator.bin", "piece_0.bin",
                                                          "state.json"]

    def test_checkpoint_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        n, K, J = 2, 2, 3
        cfg = RunConfig(J_max=J, K_theta=K)
        ws = galerkin.WeightedSpace(cfg.smoothness_N, J)
        pieces = [real_form(rng, n, K, J), galerkin.QuadraticForm.zeros(n, K, J)]
        F = real_form(rng, n, K, J, scale=1e-3)
        mu = rng.standard_normal(J)
        # the record of the step that F generates, as KamEngine.step writes it
        flow = kam.flow_transform(F, 1e-3, ws, fourier.product_grid_size(K), cfg.picard_tol)
        record = {"m": 0, "eps_m": 1e-3, "P_norm": flow.P_norm,
                  "symplectic_defect": flow.symplectic_defect,
                  "picard_terms": flow.picard_terms,
                  "new_piece_norms": [galerkin.form_norm(p, ws, kam.PUSH_NORM_GRID)
                                      for p in pieces]}
        # a form its upper triangle would not restore is refused, and nothing is written
        skew = F.coeffs.copy()
        skew[..., 0, 1] += 1.0
        with pytest.raises(ValueError, match=r"generator\.bin: the form is not exactly symmetric"):
            cli.save_checkpoint(tmp_path / "skew", checkpoint_engine(
                pieces, galerkin.QuadraticForm(n, K, J, skew)), record, cfg)
        assert not (tmp_path / "skew").exists()
        cli.save_checkpoint(tmp_path, checkpoint_engine(pieces, F, [(1e-3, mu)]), record, cfg)
        step = tmp_path / "steps" / "step_000"
        assert not (step / "piece_1.bin").exists()  # the zero piece
        m_next, mu_history, back, chain, records = cli.load_checkpoints(
            cfg, cli.checkpoint_states(tmp_path, cfg))
        assert (m_next, records) == (1, [json.loads(json.dumps(record))])
        assert len(mu_history) == 1 and mu_history[0][0] == 1e-3
        assert np.array_equal(mu_history[0][1], mu)
        assert len(back) == len(pieces)
        for got, want in zip(back, pieces):
            assert (got.n, got.K, got.J) == (n, K, J)
            assert np.array_equal(got.coeffs, want.coeffs)
        # the chain step is the flow of the stored generator, bit for bit
        assert len(chain.steps) == 1 and np.array_equal(chain.steps[0], flow.P_hat)

    def test_only_the_two_newest_steps_keep_their_pieces(self, three_step_run, tmp_path):
        cfg, full_out, full = three_step_run
        K, J = cfg.K_theta, cfg.J_max
        steps = sorted((full_out / "steps").glob("step_*"))
        assert [d.name for d in steps] == ["step_000", "step_001", "step_002"]
        assert not any(steps[0].glob("piece_*.bin"))
        for step in steps:
            assert (step / "generator.bin").exists()
        for step in steps[1:]:
            state = json.loads((step / "state.json").read_text())
            pieces = sorted(step.glob("piece_*.bin"))
            # a zero piece has window -1 and no file; the others fill the whole window
            zero = sorted(name for name, K_s in state["windows"].items() if K_s == -1)
            assert zero == sorted(state["windows"])
            assert sorted(p.name for p in pieces) + zero == \
                   [f"piece_{i}.bin" for i in range(state["pieces"])]
            assert pieces
            for piece in pieces:
                assert piece.stat().st_size == \
                       16 * np.prod(state["shape"][:-2]) * (2 * J) * (2 * J + 1) // 2
            assert state["shape"][:-2] == [2 * K + 1, K + 1]
        # resume after losing the newest step reads the pieces of the one before
        out = tmp_path / "partial"
        shutil.copytree(full_out, out)
        shutil.rmtree(out / "steps" / "step_002")
        (out / "summary.json").unlink()
        resumed = run_pipeline(cfg, out, resume=True)
        assert json.dumps(strip_timings(full), sort_keys=True) == \
               json.dumps(strip_timings(resumed), sort_keys=True)
        assert not any((out / "steps" / "step_000").glob("piece_*.bin"))

    @pytest.mark.parametrize("changed, differ", [
        ({"eps": 2e-3, "norm_grid": 10}, ["eps", "norm_grid"]),
        ({"potential": {**TINY["potential"], "scale": 0.2}}, ["potential"]),
        # verify reads these, the reduce does not: the resume goes on
        ({"conjugacy_T": 4.0, "lyapunov_T": 10.0, "seed": 3, "run_verify": False}, None),
    ])
    def test_resume_under_another_config(self, tmp_path, capsys, changed, differ):
        out = tmp_path / "run"
        full = run_pipeline(tiny_config(), out)
        shutil.rmtree(out / "steps" / "step_001")
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
        path = out / "steps" / "step_000" / "state.json"
        assert capsys.readouterr().err == (f"config_error: resume: {path}: checkpoint written "
                                           f"under other values of {differ}\n")
        # the refused resume wrote nothing: config.json, summary.json,
        # resonance.csv and the checkpoints are the converged run's
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == written

    @pytest.mark.parametrize("manifest", ["state.json"])
    def test_resume_over_another_checkpoint_schema_is_config_error(self, tmp_path, capsys,
                                                                   manifest):
        out = tmp_path / "run"
        run_pipeline(tiny_config(), out)
        path = out / "steps" / "step_001" / manifest
        old = json.loads(path.read_text())
        old["schema"] = cli.CHECKPOINT_SCHEMA - 1
        path.write_text(json.dumps(old))
        written = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(TINY))
        assert main(["resume", "--config", str(cfg_path), "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config_error: resume: {path}: checkpoint schema {cli.CHECKPOINT_SCHEMA - 1}, "
            f"expected {cli.CHECKPOINT_SCHEMA}\n")
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == written

    def test_resume_over_a_state_json_that_is_not_json_is_config_error(self, tmp_path,
                                                                       capsys):
        out = tmp_path / "run"
        run_pipeline(tiny_config(), out)
        path = out / "steps" / "step_001" / "state.json"
        path.write_text("not json")
        written = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(TINY))
        assert main(["resume", "--config", str(cfg_path), "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(
            f"config_error: resume: {path}: not JSON: Expecting value")
        # config.json, summary.json, resonance.csv and steps/ are the converged run's
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == written

    @pytest.mark.parametrize("gap", ["missing_step", "step_after_an_incomplete_one"])
    def test_resume_over_a_gap_in_steps_is_config_error(self, three_step_run, tmp_path,
                                                        capsys, gap):
        # only the newest step directory may lack its state.json: a resume
        # across a gap would chain step 2 onto step 0
        cfg, full_out, _ = three_step_run
        out = tmp_path / "run"
        shutil.copytree(full_out, out)
        step = out / "steps" / "step_001"
        if gap == "missing_step":
            shutil.rmtree(step)
        else:
            (step / "state.json").unlink()
        written = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg.as_dict()))
        assert main(["resume", "--config", str(cfg_path), "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config_error: resume: {step}: missing or incomplete, yet "
            f"{out / 'steps' / 'step_002'} is present\n")
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


class TestCheckpointWindows:
    def test_round_trip_of_full_band_limited_and_zero_forms(self, tmp_path):
        rng = np.random.default_rng(7)
        n, K, J, K_s = 2, 4, 3, 2
        cfg = RunConfig(J_max=J, K_theta=K)
        ws = galerkin.WeightedSpace(cfg.smoothness_N, J)
        band = real_form(rng, n, K, J).truncate(K_s)[0]
        band.coeffs[0, 0, 0, 0] = -0.0  # k = (-4, 0), outside the kept window
        pieces = [real_form(rng, n, K, J), band, galerkin.QuadraticForm.zeros(n, K, J)]
        F = real_form(rng, n, K, J, scale=1e-3).truncate(K_s)[0]
        flow = kam.flow_transform(F, 1e-3, ws, fourier.product_grid_size(K), cfg.picard_tol)
        record = {"m": 0, "eps_m": 1e-3, "P_norm": flow.P_norm,
                  "symplectic_defect": flow.symplectic_defect,
                  "picard_terms": flow.picard_terms,
                  "new_piece_norms": [galerkin.form_norm(p, ws, kam.PUSH_NORM_GRID)
                                      for p in pieces]}
        cli.save_checkpoint(tmp_path, checkpoint_engine(pieces, F), record, cfg)
        step = tmp_path / "steps" / "step_000"
        state = json.loads((step / "state.json").read_text())
        assert state["windows"] == {"piece_1.bin": K_s, "piece_2.bin": -1,
                                    "generator.bin": K_s}
        assert sorted(p.name for p in step.glob("*.bin")) == ["generator.bin", "piece_0.bin",
                                                              "piece_1.bin"]
        triangle = J * (2 * J + 1)
        assert (step / "piece_0.bin").stat().st_size == \
               (2 * K + 1) ** (n - 1) * (K + 1) * triangle * 16
        for name in ("piece_1.bin", "generator.bin"):
            assert (step / name).stat().st_size == \
                   (2 * K_s + 1) ** (n - 1) * (K_s + 1) * triangle * 16
        _, _, back, chain, _ = cli.load_checkpoints(cfg, cli.checkpoint_states(tmp_path, cfg))
        assert np.array_equal(chain.steps[0], flow.P_hat)
        for got, want in zip(back, pieces):
            assert (got.n, got.K, got.J) == (n, K, J)
            assert np.array_equal(got.coeffs, want.coeffs)
            nonzero = want.coeffs != 0
            assert got.coeffs[nonzero].tobytes() == want.coeffs[nonzero].tobytes()
            # every zero, the dropped -0.0 included, reloads as +0.0
            assert not np.signbit(got.coeffs[~nonzero].view(float)).any()

    @pytest.mark.parametrize("K_s, message", [
        (2, f"expected {16 * 5 * 3 * 8 * 17} bytes, found {16 * 7 * 4 * 8 * 17} bytes"),
        (4, "window K_s = 4 outside [-1, 3]"),
        (-2, "window K_s = -2 outside [-1, 3]"),
    ], ids=["disagrees_with_file_size", "above_K", "below_minus_one"])
    def test_a_wrong_window_is_internal_error_naming_the_file(self, three_step_run, tmp_path,
                                                              K_s, message):
        cfg, full_out, _ = three_step_run
        out = tmp_path / "r"
        shutil.copytree(full_out, out)
        step = out / "steps" / "step_002"
        state = json.loads((step / "state.json").read_text())
        state["windows"]["generator.bin"] = K_s
        (step / "state.json").write_text(json.dumps(state))
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg.as_dict()))
        assert main(["resume", "--config", str(cfg_path), "--out", str(out)]) == EXIT_INTERNAL
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "internal_error"
        assert summary["detail"] == (f"reduce: ValueError: checkpoint array "
                                     f"{step / 'generator.bin'}: {message}")


def _watch_lifetimes(monkeypatch, source: str) -> tuple:
    """Weakrefs to the decomposition and to the block arrays of the pieces the
    engine starts from (cli.<source>: seed_pieces or load_checkpoints), and the
    names still alive at each checkpoint after a gc.collect()."""
    refs, alive_at = {}, {}
    decompose = cli.decompose

    def watched_decompose(*a, **k):
        dec = decompose(*a, **k)
        refs["decomposition"] = weakref.ref(dec)
        return dec

    start = getattr(cli, source)

    def watched_start(*a, **k):
        got = start(*a, **k)
        pieces = got if source == "seed_pieces" else got[2]
        for i, piece in enumerate(pieces):
            refs[f"piece {i} coeffs"] = weakref.ref(piece.coeffs)
        return got

    save = cli.save_checkpoint

    def watched_save(out, engine, record, config):
        save(out, engine, record, config)
        gc.collect()
        alive_at[record["m"]] = sorted(name for name, ref in refs.items() if ref() is not None)

    monkeypatch.setattr(cli, "decompose", watched_decompose)
    monkeypatch.setattr(cli, source, watched_start)
    monkeypatch.setattr(cli, "save_checkpoint", watched_save)
    return refs, alive_at


class TestMemory:
    def test_stage_data_is_released_once_the_engine_is_seeded(self, tmp_path, monkeypatch):
        refs, alive_at = _watch_lifetimes(monkeypatch, "seed_pieces")
        run_pipeline(tiny_config(), tmp_path / "run")
        assert "decomposition" in refs and "piece 0 coeffs" in refs
        assert alive_at[1] == []

    def test_restored_pieces_are_released_after_the_first_resumed_step(self, tmp_path,
                                                                         monkeypatch):
        out = tmp_path / "run"
        run_pipeline(tiny_config(), out)
        shutil.rmtree(sorted((out / "steps").glob("step_*"))[-1])
        refs, alive_at = _watch_lifetimes(monkeypatch, "load_checkpoints")
        run_pipeline(tiny_config(), out, resume=True)
        assert "decomposition" in refs and "piece 0 coeffs" in refs
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
        assert not (out / "steps" / "step_000").exists()

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
        assert not (out / "steps" / "step_000").exists()

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

    def test_truncated_checkpoint_array_is_internal_error(self, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(TINY))
        out = tmp_path / "r"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == EXIT_CONVERGED
        piece = out / "steps" / "step_001" / "piece_0.bin"
        piece.write_bytes(piece.read_bytes()[:-3])
        assert main(["resume", "--config", str(cfg_path), "--out", str(out)]) == EXIT_INTERNAL
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "internal_error"
        assert summary["detail"].startswith("reduce: ValueError: ")
        want = 16 * 7 * 4 * 16 * 17 // 2  # (2K+1, K+1) upper triangles of 2J = 16
        assert summary["detail"].endswith(f"step_001/piece_0.bin: expected {want} bytes, "
                                          f"found {want - 3} bytes")

    def test_pruned_checkpoint_array_is_internal_error(self, three_step_run, tmp_path):
        # with the two newest steps lost, the newest left has no pieces
        cfg, full_out, _ = three_step_run
        out = tmp_path / "r"
        shutil.copytree(full_out, out)
        for name in ("step_001", "step_002"):
            shutil.rmtree(out / "steps" / name)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg.as_dict()))
        assert main(["resume", "--config", str(cfg_path), "--out", str(out)]) == EXIT_INTERNAL
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "internal_error"
        assert summary["detail"].startswith("reduce: ValueError: checkpoint array ")
        assert summary["detail"].endswith("step_000/piece_0.bin: expected "
                                          f"{16 * 7 * 4 * 16 * 17 // 2} bytes, found no file")

    @pytest.mark.parametrize("name, check", [("generator.bin", "its flow gives"),
                                             ("piece_0.bin", "its form_norm is")])
    def test_same_size_checkpoint_corruption_is_internal_error(self, three_step_run,
                                                               tmp_path, name, check):
        # one coefficient changed: the byte count is right, the recomputed
        # flow or norm is not the step record's
        cfg, full_out, _ = three_step_run
        out = tmp_path / "r"
        shutil.copytree(full_out, out)
        path = out / "steps" / "step_002" / name
        coeffs = np.frombuffer(path.read_bytes(), dtype="<c16").copy()
        coeffs[5] += 1e-3
        path.write_bytes(coeffs.tobytes())
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg.as_dict()))
        assert main(["resume", "--config", str(cfg_path), "--out", str(out)]) == EXIT_INTERNAL
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "internal_error"
        assert summary["detail"].startswith(
            f"reduce: ValueError: checkpoint array {path}: {check} ")

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
