import numpy as np
import pytest

from nemflow.energetics import ModelParams, total_energy
from nemflow import fields
from nemflow.fields import GridSpec, VectorField, fftn_norm, ifftn_norm
from nemflow.stepper import (
    PicardConfig,
    PicardDivergenceError,
    StepState,
    _Workspace,
    implicit_step,
    residual_fully_implicit,
)
from nemflow.diagnostics import spectral_divergence_max
from nemflow.fields import NonFiniteError, l2_norm
from util import perturbed_director, solenoidal


def _uniform_state(grid):
    d = np.zeros((grid.dim, *grid.shape))
    d[0] = 1.0
    return StepState(VectorField(grid, d), VectorField.zeros(grid, grid.dim))


def test_state_invariants_enforced():
    grid = GridSpec(2, 8, "exact")
    bad_u = np.zeros((2, 8, 8))
    x = grid.meshgrid()
    bad_u[0] = np.sin(2 * np.pi * x[0])  # gradient field, not solenoidal
    d = np.zeros((2, 8, 8))
    d[0] = 1.0
    with pytest.raises(ValueError, match="solenoidal"):
        StepState(VectorField(grid, d), VectorField(grid, bad_u))
    mean_u = np.full((2, 8, 8), 0.1)
    with pytest.raises(ValueError, match="zero mean"):
        StepState(VectorField(grid, d), VectorField(grid, mean_u))


def test_each_level_is_transformed_once(monkeypatch):
    """A new level, mu and v hold the solver's own coefficients, so a step
    warm-started from coefficients transforms nothing; a sampled view is
    synthesised once, on first read."""
    grid = GridSpec(2, 16, "exact")
    d = perturbed_director(grid, seed=51, amplitude=0.1)
    u = solenoidal(grid, seed=52, kcut=2, scale=0.1)
    prev = StepState.from_coefficients(grid, d.coeffs, u.coeffs, 0.0)
    guess = StepState.from_coefficients(grid, d.coeffs, u.coeffs, 0.0)
    calls = {"fftn_norm": 0, "ifftn_norm": 0}
    for name in calls:
        def counted(*args, name=name, transform=getattr(fields, name)):
            calls[name] += 1
            return transform(*args)
        monkeypatch.setattr(fields, name, counted)
    params = ModelParams(alpha=0.3, gamma=0.1, epsilon=0.01, tau=1e-3)
    result = implicit_step(prev, params, PicardConfig(tol=1e-11), guess=guess)
    assert calls == {"fftn_norm": 0, "ifftn_norm": 0}

    mu = result.mu.values
    assert calls == {"fftn_norm": 0, "ifftn_norm": 1}
    assert result.mu.values is mu
    assert calls == {"fftn_norm": 0, "ifftn_norm": 1}
    assert np.array_equal(mu, ifftn_norm(result.mu.coeffs, grid.dim))


def test_picard_config_validation():
    with pytest.raises(ValueError, match="tol"):
        PicardConfig(tol=0.0)
    with pytest.raises(ValueError, match="damping"):
        PicardConfig(damping=1.5)
    with pytest.raises(ValueError, match="tau_shrink"):
        PicardConfig(tau_shrink=1.0)


def test_equilibrium_is_fixed_point():
    grid = GridSpec(2, 16, "exact")
    state = _uniform_state(grid)
    params = ModelParams(alpha=0.3, gamma=0.1, epsilon=0.01, tau=1e-3)
    result = implicit_step(state, params, PicardConfig(tol=1e-11))
    assert result.ledger.picard_iters == 1
    assert result.ledger.picard_residual == 0.0
    assert np.max(np.abs(result.state.d.values - state.d.values)) < 1e-12
    assert np.max(np.abs(result.state.u.values)) < 1e-12
    assert result.tau_used == params.tau


def test_epsilon_zero_rejected():
    grid = GridSpec(2, 8, "exact")
    state = _uniform_state(grid)
    params = ModelParams(epsilon=0.0, tau=1e-3)
    with pytest.raises(ValueError, match="epsilon > 0"):
        implicit_step(state, params)


def test_kinetic_energy_decays_for_pure_flow():
    grid = GridSpec(2, 16, "exact")
    d = np.zeros((2, 16, 16))
    d[0] = 1.0
    u = solenoidal(grid, seed=3, kcut=1, scale=0.5)
    state = StepState(VectorField(grid, d), u)
    params = ModelParams(alpha=0.3, gamma=0.1, epsilon=0.01, tau=1e-3)
    e0 = total_energy(state.d, state.u, params).kinetic
    result = implicit_step(state, params, PicardConfig(tol=1e-11))
    e1 = result.ledger.e_kinetic
    assert e1 < e0
    assert result.ledger.slack >= -1e-12 * (1.0 + e0)


def test_energy_inequality_over_ten_steps():
    grid = GridSpec(2, 16, "exact")
    state = StepState(
        perturbed_director(grid, seed=7, amplitude=0.15),
        solenoidal(grid, seed=8, kcut=2, scale=0.15),
    )
    params = ModelParams(alpha=0.3, gamma=0.1, epsilon=0.01, tau=1e-3)
    cfg = PicardConfig(tol=1e-11)
    e0 = total_energy(state.d, state.u, params).total
    budget = 10.0 * cfg.tol * (1.0 + e0)
    for _ in range(10):
        result = implicit_step(state, params, cfg)
        assert result.ledger.slack >= -budget
        state = result.state


def test_solenoidality_and_zero_mean_preserved():
    grid = GridSpec(2, 16, "exact")
    state = StepState(
        perturbed_director(grid, seed=17, amplitude=0.2),
        solenoidal(grid, seed=18, kcut=2, scale=0.2),
    )
    params = ModelParams(alpha=0.3, gamma=0.1, epsilon=0.01, tau=1e-3)
    for _ in range(3):
        result = implicit_step(state, params, PicardConfig(tol=1e-11))
        state = result.state
        unorm = l2_norm(state.u)
        assert spectral_divergence_max(state.u) <= 1e-12 * (1.0 + unorm)


def _sweep(prev, iterate, params):
    """One preconditioned sweep x -> x - G^{-1} F(x) from the iterate (d, u)."""
    grid = prev.grid
    ws = _Workspace(grid, params, params.tau,
                    fftn_norm(prev.d.values, grid.dim), fftn_norm(prev.u.values, grid.dim))
    d_hat, u_hat = (fftn_norm(f.values, grid.dim) for f in iterate)
    r_d, r_u = ws.residual_fields(d_hat, u_hat, ws.terms(d_hat, u_hat))
    step = ws.join(*ws.precondition_vec(ws.join(r_d, r_u)))
    d_out, u_out = ws.split(ws.join(d_hat, u_hat) - step)
    return (VectorField(grid, ifftn_norm(d_out, grid.dim)),
            VectorField(grid, ifftn_norm(u_out, grid.dim)))


def test_sweep_fixed_point_at_solution():
    grid = GridSpec(2, 16, "exact")
    prev = StepState(
        perturbed_director(grid, seed=21, amplitude=0.1),
        solenoidal(grid, seed=22, kcut=2, scale=0.1),
    )
    params = ModelParams(alpha=0.3, gamma=0.1, epsilon=0.01, tau=1e-3)
    result = implicit_step(prev, params, PicardConfig(tol=1e-13, max_iter=80))
    d1, u1 = _sweep(prev, (result.state.d, result.state.u), params)
    assert np.max(np.abs(d1.values - result.state.d.values)) < 1e-12
    assert np.max(np.abs(u1.values - result.state.u.values)) < 1e-12


def test_sweep_tiny_tau_consistency():
    grid = GridSpec(2, 16, "exact")
    prev = StepState(
        perturbed_director(grid, seed=23, amplitude=0.005, kcut=1),
        solenoidal(grid, seed=24, kcut=1, scale=0.005),
    )
    params = ModelParams(alpha=0.3, gamma=0.1, epsilon=0.01, tau=1e-12)
    d1, u1 = _sweep(prev, (prev.d, prev.u), params)
    assert np.max(np.abs(d1.values - prev.d.values)) < 1e-10
    assert np.max(np.abs(u1.values - prev.u.values)) < 1e-10


def test_sweep_contracts_for_small_tau():
    grid = GridSpec(2, 16, "exact")
    prev = StepState(
        perturbed_director(grid, seed=25, amplitude=0.1),
        solenoidal(grid, seed=26, kcut=2, scale=0.1),
    )
    params = ModelParams(tau=1e-4)
    pert = perturbed_director(grid, seed=27, amplitude=0.12)
    x0 = (pert, prev.u)
    x1 = _sweep(prev, x0, params)
    x2 = _sweep(prev, x1, params)
    step01 = np.sqrt(sum(np.sum((a.values - b.values) ** 2) for a, b in zip(x1, x0)))
    step12 = np.sqrt(sum(np.sum((a.values - b.values) ** 2) for a, b in zip(x2, x1)))
    assert step12 < step01


def test_residuals_zero_at_equilibrium():
    grid = GridSpec(2, 8, "exact")
    state = _uniform_state(grid)
    params = ModelParams(alpha=0.3, gamma=0.1, epsilon=0.01, tau=1e-3)
    mu = VectorField.zeros(grid, 2)
    rd, rmu, ru = residual_fully_implicit(state, (state.d, state.u, mu), params)
    assert max(rd, rmu, ru) < 1e-13


def test_stepper_output_certified_independently():
    grid = GridSpec(2, 16, "exact")
    prev = StepState(
        perturbed_director(grid, seed=31, amplitude=0.2),
        solenoidal(grid, seed=32, kcut=2, scale=0.2),
    )
    params = ModelParams(alpha=0.3, gamma=0.1, epsilon=0.01, tau=1e-3)
    cfg = PicardConfig(tol=1e-11)
    result = implicit_step(prev, params, cfg)
    assert result.tau_used == params.tau
    rd, rmu, ru = residual_fully_implicit(prev, (result.state.d, result.state.u, result.mu), params)
    assert max(rd, rmu, ru) <= 2.0 * cfg.tol


def test_corrupted_candidate_has_large_residual():
    grid = GridSpec(2, 16, "exact")
    prev = StepState(
        perturbed_director(grid, seed=41, amplitude=0.2),
        solenoidal(grid, seed=42, kcut=2, scale=0.2),
    )
    params = ModelParams(alpha=0.3, gamma=0.1, epsilon=0.01, tau=1e-3)
    result = implicit_step(prev, params, PicardConfig(tol=1e-11))
    bad_d = VectorField(grid, 1.1 * result.state.d.values)
    rd, _, _ = residual_fully_implicit(prev, (bad_d, result.state.u, result.mu), params)
    assert rd > 1e-3


def test_friction_channel_uses_shared_extra_velocity():
    grid = GridSpec(2, 8, "exact")
    prev = StepState(perturbed_director(grid, seed=51, amplitude=0.25),
                     VectorField.zeros(grid, 2))
    params = ModelParams(alpha=0.3, gamma=0.1, epsilon=0.01, tau=1e-3)
    result = implicit_step(prev, params, PicardConfig(tol=1e-11))
    fric = result.tau_used * l2_norm(result.v_extra) ** 2
    assert result.ledger.d_friction == pytest.approx(fric, rel=1e-10)


def test_divergence_error_when_tau_floor_reached():
    grid = GridSpec(2, 8, "exact")
    prev = StepState(perturbed_director(grid, seed=61, amplitude=0.3),
                     solenoidal(grid, seed=62, kcut=2, scale=0.3))
    # an absurd time step with no room to shrink must fail loudly
    params = ModelParams(alpha=0.3, gamma=1e-4, epsilon=1e-9, tau=1e6)
    cfg = PicardConfig(tol=1e-13, max_iter=4, tau_min=0.9e6)
    with pytest.raises((PicardDivergenceError, NonFiniteError)):
        implicit_step(prev, params, cfg)


def test_convective_energy_neutrality():
    """In exact mode the computed convection term cannot feed the kinetic
    energy: its pairing with u vanishes to round-off."""
    from nemflow.coupling import convective_hat
    from nemflow.fields import fftn_norm, parseval_sum, spectral_l2_norm
    from nemflow.operators import padded_bundle

    grid = GridSpec(2, 16, "exact")
    state = StepState(
        perturbed_director(grid, seed=81, amplitude=0.2),
        solenoidal(grid, seed=82, kcut=3, scale=0.4),
    )
    params = ModelParams(alpha=0.3, gamma=0.1, epsilon=0.01, tau=1e-3)
    result = implicit_step(state, params, PicardConfig(tol=1e-11))
    u_hat = fftn_norm(result.state.u.values, grid.dim)
    conv = convective_hat([padded_bundle(u_hat, grid)], grid)
    pairing = abs(parseval_sum((conv * np.conj(u_hat)).real))
    assert pairing <= 1e-11 * max(spectral_l2_norm(u_hat) ** 3, 1e-30)


def test_krylov_directions_are_real_fields(monkeypatch):
    """The directions GMRES hands to the Jacobian action represent real
    fields: in the k_last = 0 plane, the one plane of the half layout holding
    both k and -k, each coefficient is the conjugate of its mirror's."""
    grid = GridSpec(2, 16, "exact")
    mirror = (-np.arange(grid.n)) % grid.n
    seen = []
    real_action = _Workspace.jacobian_action

    def spy(self, t, delta_d, delta_u):
        for c in (delta_d, delta_u):
            plane = c[..., 0]
            anti = 0.5 * np.max(np.abs(plane - np.conj(plane[..., mirror])))
            seen.append((anti, np.max(np.abs(c))))
        return real_action(self, t, delta_d, delta_u)

    monkeypatch.setattr(_Workspace, "jacobian_action", spy)
    state = StepState(
        perturbed_director(grid, seed=91, amplitude=0.2),
        solenoidal(grid, seed=92, kcut=2, scale=0.2),
    )
    params = ModelParams(alpha=0.3, gamma=0.1, epsilon=0.01, tau=1e-3)
    for _ in range(3):
        state = implicit_step(state, params, PicardConfig(tol=1e-10)).state
    assert seen
    assert all(anti <= 1e-14 * top for anti, top in seen)


def test_warm_start_does_not_change_solution():
    grid = GridSpec(2, 16, "exact")
    prev = StepState(
        perturbed_director(grid, seed=71, amplitude=0.15),
        solenoidal(grid, seed=72, kcut=2, scale=0.15),
    )
    params = ModelParams(alpha=0.3, gamma=0.1, epsilon=0.01, tau=1e-3)
    cfg = PicardConfig(tol=1e-12)
    plain = implicit_step(prev, params, cfg)
    guess = StepState(
        VectorField(grid, plain.state.d.values + 1e-4),
        plain.state.u,
        prev.time,
    )
    warm = implicit_step(prev, params, cfg, guess=guess)
    assert np.max(np.abs(warm.state.d.values - plain.state.d.values)) < 5e-11
    assert np.max(np.abs(warm.state.u.values - plain.state.u.values)) < 5e-11
