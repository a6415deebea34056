import numpy as np
import pytest

from oracles import evaluate_potential
from qpwave.potential import (
    FrequencySpec,
    InvalidPotentialError,
    PotentialSpec,
    fourier_analyze,
    make_potential,
    validate_assumptions,
)

OMEGA0 = (1.0, np.sqrt(2.0))


def freq(tau=1.3, gamma=0.01):
    return FrequencySpec(OMEGA0, tau, gamma)


def spec_from_hull(hull, N=6, eps=1e-3):
    with pytest.warns(UserWarning):
        return PotentialSpec(hull=hull, smoothness_N=N, freq=freq(), amplitude_eps=eps)


def test_validate_passes_for_even_zero_average_hull():
    p = spec_from_hull(lambda th, x: np.cos(th[..., 0]) * np.cos(x))
    rep = validate_assumptions(p, K_check=20, grid=24)
    assert rep.all_ok
    assert rep.average_residual < 1e-10
    assert rep.evenness_residual < 1e-12
    assert rep.diophantine_margin >= 1.0


def test_validate_rejects_odd_hull():
    p = spec_from_hull(lambda th, x: np.sin(x) + 0.0 * th[..., 0])
    rep = validate_assumptions(p, grid=16)
    assert not rep.evenness_ok
    assert rep.evenness_residual > 1.0


def test_validate_average_residual_is_pi_for_shifted_mode():
    # integral of (cos x + 0.5) over [-pi, pi] is pi at the worst theta
    p = spec_from_hull(lambda th, x: np.cos(th[..., 0]) * (np.cos(x) + 0.5))
    rep = validate_assumptions(p, grid=24)
    assert not rep.average_ok
    assert rep.average_residual == pytest.approx(np.pi, abs=1e-8)


def test_validate_raises_on_nonfinite_hull():
    p = spec_from_hull(lambda th, x: np.full(np.broadcast_shapes(th[..., 0].shape, x.shape), np.nan))
    with pytest.raises(InvalidPotentialError):
        validate_assumptions(p, grid=8)


def test_diophantine_margin_detects_near_resonant_base():
    bad = FrequencySpec((1.0, 1.0 + 1e-9), 1.3, 0.01)
    assert bad.diophantine_margin(4) < 1.0


def test_fourier_single_harmonic():
    p = spec_from_hull(lambda th, x: np.cos(th[..., 0]) * np.cos(2 * x))
    pf = fourier_analyze(p, K_theta=4, J_max=6)
    K = pf.K_theta
    got = pf.v_hat.copy()
    expect = np.zeros_like(got)
    expect[K + 1, K, 1] = 0.5   # k = (1, 0), j = 2
    expect[K - 1, K, 1] = 0.5   # k = (-1, 0), j = 2
    assert np.max(np.abs(got - expect)) < 1e-13


def test_fourier_zero_hull():
    p = spec_from_hull(lambda th, x: 0.0 * th[..., 0] * x)
    pf = fourier_analyze(p, K_theta=3, J_max=4)
    assert np.max(np.abs(pf.v_hat)) == 0.0


def table_window(table, n, K, J):
    """v_hat of a one-sided coefficient table placed exactly on the window:
    c at (k, j), conj(c) at (-k, j), k = 0 entries once; modes outside the
    window are left out."""
    expect = np.zeros((2 * K + 1,) * n + (J,), dtype=complex)
    for (k, j), c in table.items():
        if max(abs(ki) for ki in k) > K or j > J:
            continue
        expect[tuple(ki + K for ki in k) + (j - 1,)] += c
        if any(k):  # k = 0 entries enter once
            expect[tuple(-ki + K for ki in k) + (j - 1,)] += np.conj(c)
    return expect


def test_fourier_recovers_random_table():
    rng = np.random.default_rng(42)
    table = {}
    for _ in range(12):
        k = (int(rng.integers(-3, 4)), int(rng.integers(-3, 4)))
        j = int(rng.integers(1, 7))
        c = complex(rng.standard_normal(), rng.standard_normal()) * 0.3
        if k == (0, 0):
            c = complex(c.real, 0.0)
        table[(k, j)] = table.get((k, j), 0.0) + c
    p, _ = make_potential("custom_coefficients", freq(), eps=1e-3, N=6,
                          coefficients=table)
    pf = fourier_analyze(p, K_theta=4, J_max=8)
    assert np.max(np.abs(pf.v_hat - table_window(table, 2, 4, 8))) < 1e-12


def test_make_potential_records_the_table_extent():
    p, _ = make_potential("finite_smooth", freq(), eps=1e-3, N=6)
    assert (p.table_k_max, p.table_j_max) == (16, 6)
    p, _ = make_potential("finite_smooth", freq(), eps=1e-3, N=6, theta_band=4)
    assert (p.table_k_max, p.table_j_max) == (4, 6)


@pytest.mark.parametrize("K_theta, J_max", [(4, 8), (8, 2), (3, 1)])
def test_fourier_leaves_table_modes_outside_the_window_out(K_theta, J_max):
    # the table reaches |k|_inf = 16 and j = 6: on 4K or 4J points per axis
    # those modes would fold onto kept ones
    p, table = make_potential("finite_smooth", freq(), eps=1e-3, N=6)
    pf = fourier_analyze(p, K_theta=K_theta, J_max=J_max)
    expect = table_window(table, 2, K_theta, J_max)
    assert np.max(np.abs(pf.v_hat - expect)) < 1e-14 * np.max(np.abs(expect))


def test_fourier_reality_enforced():
    p, _ = make_potential("finite_smooth", freq(), eps=1e-3, N=6)
    pf = fourier_analyze(p, K_theta=3, J_max=8)
    # c(-k) = conj(c(k)) exactly
    assert np.array_equal(pf.v_hat, np.conj(pf.v_hat[::-1, ::-1]))


def test_evaluate_point_values():
    p = spec_from_hull(lambda th, x: np.cos(th[..., 0]) * np.cos(2 * x))
    pf = fourier_analyze(p, K_theta=3, J_max=4)
    assert evaluate_potential(pf, np.zeros(2), 0.0) == pytest.approx(1.0, abs=1e-12)
    zero = fourier_analyze(spec_from_hull(lambda th, x: 0.0 * th[..., 0] * x), 2, 2)
    assert evaluate_potential(zero, np.array([0.3, 0.4]), 0.7) == 0.0


def test_evaluate_round_trip_on_grid():
    p, _ = make_potential("product_mode", freq(), eps=1e-3, N=6)
    pf = fourier_analyze(p, K_theta=4, J_max=8)
    rng = np.random.default_rng(3)
    for _ in range(20):
        th = rng.uniform(0, 2 * np.pi, size=2)
        x = rng.uniform(-np.pi, np.pi)
        direct = float(p.hull(th.reshape(1, 2), np.array([x]))[0])
        assert evaluate_potential(pf, th, x) == pytest.approx(direct, abs=1e-10)


def test_even_hull_has_no_sine_components():
    p, _ = make_potential("finite_smooth", freq(), eps=1e-3, N=5)
    G = 64
    th = np.zeros((1, 2))
    x = 2 * np.pi * np.arange(G) / G
    x = ((x + np.pi) % (2 * np.pi)) - np.pi
    vals = p.hull(th[:, None, :], x[None, :])[0]
    hat = np.fft.fft(vals, norm="forward")
    sine_part = np.abs(hat[1:10] - np.conj(hat[-1:-10:-1]))
    assert np.max(sine_part) < 1e-12


def test_presets_validate():
    for name in ("single_mode", "product_mode", "finite_smooth"):
        p, table = make_potential(name, freq(), eps=1e-3, N=6)
        rep = validate_assumptions(p, K_check=10, grid=16)
        assert rep.evenness_ok and rep.average_ok, name
        assert table
