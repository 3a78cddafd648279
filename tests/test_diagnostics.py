import numpy as np
import pytest

from nemflow.diagnostics import (
    build_ledger,
    check_energy_inequality,
    director_length_stats,
    h2_diagnostic,
)
from nemflow.energetics import ModelParams, total_energy, total_energy_hat
from nemflow.fields import GridSpec, VectorField, fftn_norm, laplace_symbol
from nemflow.stepper import PicardConfig, StepState, implicit_step
from util import (band_limited, l2_norm, perturbed_director, solenoidal, transport_only_run,
                  zero_field)


def _zero_hat(grid):
    return np.zeros((grid.dim, *grid.shape[:-1], grid.n // 2 + 1), dtype=np.complex128)


def _uniform_state(grid):
    d = np.zeros((grid.dim, *grid.shape))
    d[0] = 1.0
    return StepState(VectorField(grid, d), zero_field(grid, grid.dim))


def test_equilibrium_ledger_all_zero():
    grid = GridSpec(2, 8, "exact")
    state = _uniform_state(grid)
    params = ModelParams(gamma=0.1, tau=1e-3)
    ledger = build_ledger(state, state, _zero_hat(grid), _zero_hat(grid),
                          params, picard_iters=0, picard_residual=0.0)
    for name in ("d_visc", "d_friction", "d_eps", "j_grad", "j_d", "j_u"):
        assert getattr(ledger, name) == 0.0
    assert abs(ledger.slack) < 1e-12


def test_ledger_given_previous_energy_is_bitwise_the_same():
    """Passing prev's total energy in, as the run loop does, gives the ledger
    that computing it gives, bit for bit."""
    grid = GridSpec(2, 16, "exact")
    prev = StepState(perturbed_director(grid, seed=41, amplitude=0.2),
                     solenoidal(grid, seed=42, kcut=3, scale=0.2))
    params = ModelParams(alpha=0.3, gamma=0.1, epsilon=0.01, tau=1e-3)
    result = implicit_step(prev, params, PicardConfig(tol=1e-11))
    e_prev = total_energy_hat(prev.d.coeffs, prev.u.coeffs, params, grid).total
    given = build_ledger(prev, result.state, result.mu_hat, result.v_hat, params,
                         picard_iters=result.ledger.picard_iters,
                         picard_residual=result.ledger.picard_residual, prev_energy=e_prev)
    assert given == result.ledger


def test_ledger_bookkeeping_identity():
    grid = GridSpec(2, 16, "exact")
    prev = StepState(
        perturbed_director(grid, seed=5, amplitude=0.2),
        solenoidal(grid, seed=6, kcut=2, scale=0.2),
    )
    params = ModelParams(alpha=0.3, gamma=0.1, epsilon=0.01, tau=1e-3)
    result = implicit_step(prev, params, PicardConfig(tol=1e-11))
    led = result.ledger
    prev_total = total_energy(prev.d, prev.u, params).total
    recon = prev_total - led.e_total - (
        led.d_visc + led.d_friction + led.d_eps + led.j_grad + led.j_d + led.j_u
    )
    assert abs(recon - led.slack) < 1e-14 * (1.0 + abs(prev_total))
    for name in ("d_visc", "d_friction", "d_eps", "j_grad", "j_d", "j_u"):
        assert getattr(led, name) >= 0.0
    # the full fft-layout spectrum, so the sum needs no Parseval weights
    dd_hat = np.fft.fftn(result.state.d.values - prev.d.values, axes=(1, 2)) / grid.n**grid.dim
    assert led.j_d == pytest.approx(np.sum(np.abs(dd_hat) ** 2) / (2.0 * params.gamma), rel=1e-12)


def test_decaying_flow_ledger():
    grid = GridSpec(2, 32, "exact")
    d = np.zeros((2, 32, 32))
    d[0] = 1.0
    state = StepState(VectorField(grid, d), solenoidal(grid, seed=9, kcut=1, scale=0.3))
    params = ModelParams(alpha=0.3, gamma=0.1, epsilon=0.01, tau=1e-3)
    e0 = total_energy(state.d, state.u, params).total
    for _ in range(10):
        result = implicit_step(state, params, PicardConfig(tol=1e-11))
        state = result.state
        assert result.ledger.d_visc > 0.0
        assert result.ledger.slack >= -1e-10 * e0


def test_check_energy_inequality():
    grid = GridSpec(2, 8, "exact")
    state = _uniform_state(grid)
    params = ModelParams(tau=1e-3)
    ledger = build_ledger(state, state, _zero_hat(grid), _zero_hat(grid),
                          params, picard_iters=0, picard_residual=0.0)
    assert check_energy_inequality(ledger, 0.0) is True

    from dataclasses import replace

    bad = replace(ledger, slack=-1.0)
    assert check_energy_inequality(bad, budget=0.1) is False
    assert check_energy_inequality(bad, budget=2.0) is True


def test_director_length_stats_examples():
    grid = GridSpec(2, 8, "exact")
    unit = np.zeros((2, 8, 8))
    unit[0] = 1.0
    stats = director_length_stats(unit)
    assert stats == (1.0, 1.0)
    assert max(1.0 - stats.min, stats.max - 1.0) == 0.0
    zeros = director_length_stats(np.zeros((2, 8, 8)))
    assert zeros == (0.0, 0.0)
    assert max(1.0 - zeros.min, zeros.max - 1.0) == 1.0


def test_h2_diagnostic_examples():
    grid = GridSpec(2, 16, "exact")
    unit = np.zeros((2, 16, 16))
    unit[0] = 1.0
    assert h2_diagnostic(fftn_norm(unit, grid.dim), grid) == 0.0

    x = grid.meshgrid()
    single = np.zeros((2, 16, 16))
    single[0] = np.sin(2 * np.pi * x[0])
    got = h2_diagnostic(fftn_norm(single, grid.dim), grid)
    assert got == pytest.approx(4 * np.pi**2 / np.sqrt(2.0), rel=1e-12)

    d = band_limited(grid, 2, seed=3)
    assert h2_diagnostic(fftn_norm(d.values, grid.dim), grid) == pytest.approx(
        l2_norm(VectorField.from_coefficients(grid, -laplace_symbol(grid) * d.coeffs)), rel=1e-12)


def test_transport_only_preserves_unit_length():
    """alpha = 1/2 with solenoidal transport keeps |d| = 1 to high accuracy."""
    grid = GridSpec(2, 32, "exact")
    x = grid.meshgrid()
    phi = 0.3 * np.sin(2 * np.pi * x[0]) * np.cos(2 * np.pi * x[1])
    d0 = VectorField(grid, np.stack([np.cos(phi), np.sin(phi)]))
    w = solenoidal(grid, seed=4, kcut=2, scale=0.5)
    stats0 = director_length_stats(d0.values)
    assert max(1.0 - stats0.min, stats0.max - 1.0) < 1e-14
    final = transport_only_run(d0, w, alpha=0.5, tau=1e-4, steps=100)
    stats = director_length_stats(final.values)
    assert max(1.0 - stats.min, stats.max - 1.0) <= 1e-6


def test_slack_monotone_in_picard_tolerance():
    """Tightening tol by 10x never worsens the slack by more than 10x the
    looser budget, on the same trajectory and seed."""
    grid = GridSpec(2, 16, "exact")
    params = ModelParams(alpha=0.3, gamma=0.1, epsilon=0.01, tau=1e-3)

    def run(tol):
        state = StepState(
            perturbed_director(grid, seed=11, amplitude=0.15),
            solenoidal(grid, seed=12, kcut=2, scale=0.15),
        )
        slacks = []
        for _ in range(5):
            result = implicit_step(state, params, PicardConfig(tol=tol))
            slacks.append(result.ledger.slack)
            state = result.state
        return np.array(slacks)

    loose = run(1e-9)
    tight = run(1e-10)
    e0 = 1.0 + 2.0  # crude upper bound scale; budgets compare slack changes
    loose_budget = 10.0 * 1e-9 * e0
    assert np.all(tight >= loose - 10.0 * loose_budget)
