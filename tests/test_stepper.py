import ast
import re
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from nemflow.energetics import ModelParams, total_energy
from nemflow import coupling, energetics, fields, operators, stepper
from nemflow.coupling import convective_hat
from nemflow.fields import GridSpec, VectorField, fftn_norm, ifftn_norm, parseval_sum
from nemflow.stepper import (
    PicardConfig,
    PicardDivergenceError,
    StepState,
    _Workspace,
    implicit_step,
    residual_fully_implicit,
)
from nemflow.diagnostics import spectral_divergence_max
from nemflow.fields import NonFiniteError, spectral_l2_norm
from nemflow.initial import initial_condition
from nemflow.operators import (band_limit_hat, from_padded, leray_hat, padded_bundle, padded_size,
                               to_padded)
from nemflow.runner import _extrapolated_guess
from util import (band_limited, l2_norm, mu_field, perturbed_director, refcounting_only,
                  solenoidal, whole_convective, whole_extra_velocity, whole_transport,
                  zero_field)


def _attempts(exc):
    """(tau, outcome, evals) of every attempt a failure message lists."""
    return [(float(tau), outcome, int(evals))
            for tau, outcome, evals in re.findall(r"tau (\S+) (\w+) after (\d+) evals", str(exc))]


def _count_workspaces(monkeypatch):
    """The tau of every _Workspace built from now on, one per tau attempt."""
    taus = []
    real_init = _Workspace.__init__

    def counted(self, *args):
        taus.append(args[2])
        real_init(self, *args)

    monkeypatch.setattr(_Workspace, "__init__", counted)
    return taus


def _uniform_state(grid):
    d = np.zeros((grid.dim, *grid.shape))
    d[0] = 1.0
    return StepState(VectorField(grid, d), zero_field(grid, grid.dim))


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
    warm-started from two coefficient levels transforms nothing."""
    grid = GridSpec(2, 16, "exact")
    d0 = perturbed_director(grid, seed=51, amplitude=0.1).coeffs
    u0 = solenoidal(grid, seed=52, kcut=2, scale=0.1).coeffs
    d1 = perturbed_director(grid, seed=53, amplitude=0.1).coeffs
    u1 = solenoidal(grid, seed=54, kcut=2, scale=0.1).coeffs
    older = StepState(VectorField.from_coefficients(grid, d0),
                      VectorField.from_coefficients(grid, u0), 0.0)
    prev = StepState(VectorField.from_coefficients(grid, d1),
                     VectorField.from_coefficients(grid, u1), 1e-3)
    calls = {"fftn_norm": 0, "ifftn_norm": 0}
    for name in calls:
        def counted(*args, name=name, transform=getattr(fields, name)):
            calls[name] += 1
            return transform(*args)
        monkeypatch.setattr(fields, name, counted)
    guess = _extrapolated_guess(prev, older)
    assert np.array_equal(guess[0], 2.0 * d1 - d0)
    assert np.array_equal(guess[1], leray_hat(2.0 * u1 - u0, grid))
    params = ModelParams(alpha=0.3, gamma=0.1, epsilon=0.01, tau=1e-3)
    implicit_step(prev, params, PicardConfig(tol=1e-11), guess=guess)
    assert calls == {"fftn_norm": 0, "ifftn_norm": 0}


def test_picard_config_validation():
    with pytest.raises(ValueError, match="tol"):
        PicardConfig(tol=0.0)
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
    with pytest.raises(ValueError, match="epsilon > 0"):
        ModelParams(epsilon=0.0, tau=1e-3)


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
        unorm = spectral_l2_norm(state.u.coeffs)
        assert spectral_divergence_max(state.u) <= 1e-12 * (1.0 + unorm)


def _sweep(prev, iterate, params):
    """One preconditioned sweep x -> x - G^{-1} F(x) from the iterate (d, u)."""
    grid = prev.grid
    ws = _Workspace(grid, params, params.tau,
                    fftn_norm(prev.d.values, grid.dim), fftn_norm(prev.u.values, grid.dim))
    d_hat, u_hat = (fftn_norm(f.values, grid.dim) for f in iterate)
    _, r_d, r_u = ws.terms(d_hat, u_hat)
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
    mu = zero_field(grid, 2)
    residuals = residual_fully_implicit(state, (state.d, state.u, mu), params)
    assert all(r < 1e-13 for r in residuals), residuals


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
    candidate = (result.state.d, result.state.u, mu_field(result))
    residuals = residual_fully_implicit(prev, candidate, params)
    assert all(r <= 2.0 * cfg.tol for r in residuals), residuals


def test_corrupted_candidate_has_large_residual():
    grid = GridSpec(2, 16, "exact")
    prev = StepState(
        perturbed_director(grid, seed=41, amplitude=0.2),
        solenoidal(grid, seed=42, kcut=2, scale=0.2),
    )
    params = ModelParams(alpha=0.3, gamma=0.1, epsilon=0.01, tau=1e-3)
    result = implicit_step(prev, params, PicardConfig(tol=1e-11))
    bad_d = VectorField(grid, 1.1 * result.state.d.values)
    rd, _, _ = residual_fully_implicit(prev, (bad_d, result.state.u, mu_field(result)), params)
    assert rd > 1e-3


def test_friction_channel_uses_shared_extra_velocity():
    grid = GridSpec(2, 8, "exact")
    prev = StepState(perturbed_director(grid, seed=51, amplitude=0.25), zero_field(grid, 2))
    params = ModelParams(alpha=0.3, gamma=0.1, epsilon=0.01, tau=1e-3)
    result = implicit_step(prev, params, PicardConfig(tol=1e-11))
    fric = result.tau_used * l2_norm(VectorField.from_coefficients(grid, result.v_hat)) ** 2
    assert result.ledger.d_friction == pytest.approx(fric, rel=1e-10)


def test_divergence_error_when_tau_floor_reached():
    grid = GridSpec(2, 8, "exact")
    prev = StepState(perturbed_director(grid, seed=61, amplitude=0.3),
                     solenoidal(grid, seed=62, kcut=2, scale=0.3))
    # an absurd time step with no room to shrink must fail loudly
    params = ModelParams(alpha=0.3, gamma=1e-4, epsilon=1e-9, tau=1e6)
    cfg = PicardConfig(tol=1e-13, max_iter=4, tau_min=0.9e6)
    with pytest.raises(PicardDivergenceError) as err:
        implicit_step(prev, params, cfg)
    assert [a[:2] for a in _attempts(err.value)] == [(params.tau, "pass_cap")]


def test_tau_floor_above_tau_allows_one_attempt(monkeypatch):
    """A floor above tau (as on a shortened last step) is clamped to tau: an
    easy step runs at tau, a failing one raises after a single attempt."""
    grid = GridSpec(2, 16, "exact")
    easy = StepState(perturbed_director(grid, seed=33, amplitude=0.1),
                     solenoidal(grid, seed=34, kcut=2, scale=0.1))
    params = ModelParams(alpha=0.3, gamma=0.1, epsilon=0.01, tau=1e-3)
    result = implicit_step(easy, params, PicardConfig(tol=1e-11, tau_min=2 * params.tau))
    assert result.tau_used == params.tau

    attempts = _count_workspaces(monkeypatch)
    grid = GridSpec(2, 8, "exact")
    prev = StepState(perturbed_director(grid, seed=61, amplitude=0.3),
                     solenoidal(grid, seed=62, kcut=2, scale=0.3))
    params = ModelParams(alpha=0.3, gamma=1e-4, epsilon=1e-9, tau=1e6)
    cfg = PicardConfig(tol=1e-13, max_iter=4, tau_min=2 * params.tau)
    with pytest.raises(PicardDivergenceError, match="pass_cap"):
        implicit_step(prev, params, cfg)
    assert attempts == [params.tau]


def test_line_search_stall_is_named():
    """An attempt whose update no trial can improve ends in the line search.
    The level is a random director far from unit length (rms 1.13) with a
    slow random flow, built from the tests' own noise so that it does not
    move with the package's initial-condition stream."""
    grid = GridSpec(2, 8, "two_thirds")
    prev = StepState(band_limited(grid, 2, 1, kcut=3),
                     solenoidal(grid, 2, kcut=3, scale=0.05), time=0.0)
    params = ModelParams(alpha=0.3, gamma=0.1, epsilon=0.01, tau=1e-3)
    with pytest.raises(PicardDivergenceError) as err:
        implicit_step(prev, params, PicardConfig(tau_min=params.tau))
    assert _attempts(err.value) == [(params.tau, "line_search", 68)]


def _overflowing_level():
    """A director with an exactly zero mean, so the frozen preconditioner sees
    b = 0, and 1e103 on modes (0, 1) and (+-1, 0), so the cubic well term
    overflows at the first evaluation.  (A mean that is not exactly zero
    overflows the preconditioner assembly instead.)"""
    grid = GridSpec(2, 8, "exact")
    d_hat = np.zeros((2, 8, 5), dtype=np.complex128)
    d_hat[0, 0, 1] = d_hat[0, 1, 0] = d_hat[0, -1, 0] = 1e103
    return StepState(VectorField.from_coefficients(grid, d_hat), zero_field(grid, 2))


def test_overflow_is_named(monkeypatch):
    prev = _overflowing_level()
    params = ModelParams(alpha=0.3, gamma=0.1, epsilon=0.01, tau=1e-3)
    with pytest.raises(NonFiniteError) as err:
        implicit_step(prev, params, PicardConfig(tau_min=params.tau))
    assert _attempts(err.value) == [(params.tau, "overflow", 0)]

    # no start has a finite residual; at the previous level the residual is
    # tau times terms that do not depend on tau, and here those terms are not
    # finite, so even with the default floor one attempt ends the step
    taus = _count_workspaces(monkeypatch)
    with pytest.raises(NonFiniteError) as err:
        implicit_step(prev, params)
    assert taus == [params.tau]
    assert _attempts(err.value) == [(params.tau, "overflow", 0)]


def _sheared_level():
    """A shear flow of a uniform director: the director residual at this level
    is exactly 0 for alpha = 0, whatever the viscosity."""
    grid = GridSpec(2, 8, "exact")
    d = np.zeros((2, *grid.shape))
    d[0] = 1.0
    u = np.zeros((2, *grid.shape))
    u[1] = 0.1 * np.sin(2 * np.pi * grid.meshgrid()[0])
    return StepState(VectorField(grid, d), VectorField(grid, u))


@pytest.mark.parametrize("level,params", [
    # the momentum norm overflows while the director norm is 0: the step
    # must not pass on the director norm alone
    pytest.param(_sheared_level, ModelParams(alpha=0.0, eta=1e200, tau=1e-3), id="eta"),
    # every nonlinear term is finite but the director norm overflows, far
    # beyond what the default floor could bring back
    pytest.param(lambda: initial_condition("uniform_perturbed", GridSpec(2, 8), 0, 0.1),
                 ModelParams(epsilon=1e200, tau=1e-3), id="epsilon"),
])
def test_residual_norm_overflow_is_named(monkeypatch, level, params):
    """Finite terms with a residual norm that is not finite: no start counts,
    and one overflow attempt ends the step even at the default floor."""
    prev = level()
    taus = _count_workspaces(monkeypatch)
    with pytest.raises(NonFiniteError) as err:
        implicit_step(prev, params)
    assert taus == [params.tau]
    assert _attempts(err.value) == [(params.tau, "overflow", 0)]


def test_convective_energy_neutrality():
    """In exact mode the computed convection term cannot feed the kinetic
    energy: its pairing with u vanishes to round-off."""
    grid = GridSpec(2, 16, "exact")
    state = StepState(
        perturbed_director(grid, seed=81, amplitude=0.2),
        solenoidal(grid, seed=82, kcut=3, scale=0.4),
    )
    params = ModelParams(alpha=0.3, gamma=0.1, epsilon=0.01, tau=1e-3)
    result = implicit_step(state, params, PicardConfig(tol=1e-11))
    u_hat = fftn_norm(result.state.u.values, grid.dim)
    u_p = to_padded(u_hat, grid, 2)
    conv = convective_hat([(u_p, u_p)], grid)
    pairing = abs(parseval_sum((conv * np.conj(u_hat)).real))
    assert pairing <= 1e-11 * max(spectral_l2_norm(u_hat) ** 3, 1e-30)


@pytest.mark.parametrize("dim,n", [(2, 16), (3, 8)])
@pytest.mark.parametrize("mode", ["exact", "two_thirds", "none"])
def test_convection_divergence_form_equals_advective_form(dim, n, mode):
    """For a Leray-projected u, div P(u (x) u) equals the advective (u . grad) u
    built from u's padded bundle to round-off wherever the quadratic product is
    alias-free; in "none" mode the two differ by aliasing error."""
    grid = GridSpec(dim, n, mode)
    u_hat = solenoidal(grid, seed=83, scale=0.5).coeffs
    u_p, gu_p = padded_bundle(u_hat, grid)
    advective = from_padded(np.einsum("j...,ij...->i...", u_p, gu_p), grid)
    divergence_form = convective_hat([(u_p, u_p)], grid)
    gap = np.max(np.abs(divergence_form - advective)) / np.max(np.abs(advective))
    if mode == "none":
        assert gap > 1e-3
    else:
        assert gap <= 1e-13


@pytest.mark.parametrize("dim,n", [(2, 16), (3, 8)])
@pytest.mark.parametrize("mode", ["exact", "two_thirds"])
def test_jacobian_action_is_derivative_of_residual(dim, n, mode):
    """jacobian_action along a retained direction matches the 4-point central
    difference of the residual, whose truncation error is O(h^4)."""
    grid = GridSpec(dim, n, mode)
    prev = StepState(perturbed_director(grid, seed=84, amplitude=0.3),
                     solenoidal(grid, seed=85, kcut=2, scale=0.3))
    params = ModelParams(alpha=0.3, gamma=0.1, epsilon=0.01, tau=1e-2)
    ws = _Workspace(grid, params, params.tau, prev.d.coeffs, prev.u.coeffs)
    x = ws.join(perturbed_director(grid, seed=86, amplitude=0.4).coeffs,
                solenoidal(grid, seed=87, kcut=3, scale=0.4).coeffs)
    delta = ws.join(*ws.split(ws.join(perturbed_director(grid, seed=88, amplitude=0.5).coeffs,
                                      solenoidal(grid, seed=89, scale=0.5).coeffs)))

    def residual(y):
        d_hat, u_hat = ws.split(y)
        return ws.join(*ws.terms(d_hat, u_hat)[1:])

    d_hat, u_hat = ws.split(x)
    action = ws.join(*ws.jacobian_action(ws.terms(d_hat, u_hat)[0], *ws.split(delta)))
    h = 1e-3
    central = (8.0 * (residual(x + h * delta) - residual(x - h * delta))
               - (residual(x + 2 * h * delta) - residual(x - 2 * h * delta))) / (12.0 * h)
    assert spectral_l2_norm(action - central) <= 1e-9 * spectral_l2_norm(action)


def _dense_blocks(grid, params, tau, b):
    """The frozen-coefficient linearisation at mean director b as one dense
    complex (2 dim)^2 block G per half-layout mode, modes first."""
    dim = grid.dim
    eye = np.eye(dim)
    beta = fields.laplace_symbol(grid).reshape(-1)
    q = 2.0 * np.pi * fields.wavevectors(grid).reshape(dim, -1).T
    a = params.alpha * (q @ b)
    c = 1.0 - params.alpha
    bq = b[None, :, None] * q[:, None, :]
    qb = np.swapaxes(bq, 1, 2)
    qq = q[:, :, None] * q[:, None, :]
    well = ((b @ b) * eye + 2.0 * np.outer(b, b)) / params.gamma
    msym = beta[:, None, None] * eye + well
    quad = (a**2)[:, None, None] * eye - (a * c)[:, None, None] * (bq + qb) \
        + c**2 * (b @ b) * qq
    cmat = a[:, None, None] * eye - c * bq
    q2 = np.sum(q * q, axis=1)
    proj = eye - qq / np.where(q2 == 0.0, 1.0, q2)[:, None, None]
    g = np.zeros((q.shape[0], 2 * dim, 2 * dim), dtype=np.complex128)
    g[:, :dim, :dim] = (1.0 + params.epsilon * tau * beta)[:, None, None] * eye \
        + params.epsilon * tau * well + tau * (quad @ msym)
    g[:, :dim, dim:] = 1j * tau * (c * qb - a[:, None, None] * eye)
    g[:, dim:, :dim] = -1j * tau * (proj @ cmat @ msym)
    g[:, dim:, dim:] = (params.rho + params.eta * tau * beta)[:, None, None] * eye
    return g


@pytest.mark.parametrize("dim,n", [(2, 8), (2, 16), (3, 8)])
@pytest.mark.parametrize("mode", ["none", "two_thirds", "exact"])
def test_schur_preconditioner_equals_dense_block_solve(dim, n, mode):
    """precondition_vec, which eliminates the scalar momentum block mode by
    mode, equals a dense solve with each mode's whole (2 dim)^2 block, for a
    mean director off the axes with |b| != 1.  Both solves are backward
    stable, so they agree to a few machine epsilons times the condition
    number of the worst block (up to 6e5 here at alpha = 0, tau = 1, where
    the dense solve alone is off by 7e-13 from its refined solution)."""
    grid = GridSpec(dim, n, mode)
    b = 1.3 * (np.array([0.6, 0.8]) if dim == 2 else np.array([0.48, 0.6, 0.64]))
    rng = np.random.default_rng(90 + n + dim)
    half = fields.wavevectors(grid).shape  # (dim, n, ..., n//2 + 1)
    d_prev = 0.1 * (rng.standard_normal(half) + 1j * rng.standard_normal(half))
    d_prev[(slice(None),) + (0,) * dim] = b
    y = rng.standard_normal((2 * dim, *half[1:])) + 1j * rng.standard_normal((2 * dim, *half[1:]))
    for alpha in (0.0, 0.3, 1.0):
        for tau in (1e-3, 1.0):
            params = ModelParams(rho=1.7, eta=0.6, alpha=alpha, gamma=0.1, epsilon=0.01, tau=tau)
            ws = _Workspace(grid, params, tau, d_prev, np.zeros(half, dtype=np.complex128))
            g = _dense_blocks(grid, params, tau, b)
            dense = np.linalg.solve(g, y.reshape(2 * dim, -1).T[..., None])[..., 0]
            want = ws.join(*ws.split(dense.T.reshape(y.shape)))
            got = ws.join(*ws.precondition_vec(y))
            err = np.linalg.norm(got - want) / np.linalg.norm(want)
            assert err <= 1e-15 * np.max(np.linalg.cond(g)), (alpha, tau, err)


def _padded_components(monkeypatch):
    """Leading sizes of the arrays handed to to_padded, per degree, and to
    from_padded, from every namespace that calls them."""
    seen = {}
    real_to, real_from = operators.to_padded, operators.from_padded

    def count(key, array, grid):
        seen[key] = seen.get(key, 0) + int(np.prod(array.shape[:-grid.dim]))

    def counted_to(coeffs, grid, degree, out=None, factor=None):
        count(f"to{degree}", coeffs, grid)
        return real_to(coeffs, grid, degree, out=out, factor=factor)

    def counted_from(values, grid):
        count("from", values, grid)
        return real_from(values, grid)

    for module in (operators, coupling, energetics, stepper):
        for name, spy in (("to_padded", counted_to), ("from_padded", counted_from)):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, spy)
    return seen


@pytest.mark.parametrize("dim,mode,counts", [
    (2, "two_thirds", {"to2": 20, "from": 9}),
    (3, "exact", {"to2": 39, "to3": 3, "from": 15}),
])
def test_padded_component_counts(monkeypatch, dim, mode, counts):
    """Components transformed by one residual evaluation and, the same, by one
    Jacobian action: w = u + v is padded as one bundle, and convection needs
    u's padded samples only, not its padded gradient."""
    grid = GridSpec(dim, 8, mode)
    prev = StepState(perturbed_director(grid, seed=61, amplitude=0.2),
                     solenoidal(grid, seed=62, kcut=2, scale=0.2))
    params = ModelParams(alpha=0.3, gamma=0.1, epsilon=0.01, tau=1e-3)
    ws = _Workspace(grid, params, params.tau, prev.d.coeffs, prev.u.coeffs)
    seen = _padded_components(monkeypatch)
    t = ws.terms(prev.d.coeffs, prev.u.coeffs)[0]
    assert seen == counts
    seen.clear()
    ws.jacobian_action(t, prev.d.coeffs, prev.u.coeffs)
    assert seen == counts


def test_one_set_of_padded_terms_alive(monkeypatch):
    """Whenever a residual evaluation builds its padded terms, no other set is
    alive: the iterate's go once its Newton direction is built, a rejected
    trial's once it is rejected, an overflowing start's at once.  The
    returned tuple cannot be weakly referenced, so its elements (the terms and
    the residual pair) are tracked, by call number and position."""
    alive, crowd, passes = weakref.WeakValueDictionary(), [], []
    real_terms, real_gmres = _Workspace.terms, stepper._gmres

    def spy(self, d_hat, u_hat):
        crowd.append(len(alive))
        out = real_terms(self, d_hat, u_hat)
        alive.update(((len(crowd), i), a) for i, a in enumerate(out))
        return out

    def counted_gmres(*args, **kwargs):
        passes.append(1)
        return real_gmres(*args, **kwargs)

    monkeypatch.setattr(_Workspace, "terms", spy)
    monkeypatch.setattr(stepper, "_gmres", counted_gmres)
    grid = GridSpec(2, 16, "two_thirds")
    prev = StepState(perturbed_director(grid, seed=5, amplitude=0.2, kcut=5),
                     solenoidal(grid, seed=6, kcut=5, scale=0.2))
    params = ModelParams(alpha=0.3, gamma=0.1, epsilon=0.01, tau=1e-3)
    result = implicit_step(prev, params, PicardConfig(tol=1e-12),
                           guess=(1e120 * prev.d.coeffs, prev.u.coeffs))
    assert result.tau_used == params.tau
    # the overflowing guess, the previous level, one trial per pass, and more
    assert len(crowd) > 2 + len(passes) > 3
    assert crowd == [0] * len(crowd)


def test_newton_pass_releases_dead_arrays(monkeypatch):
    """At each Krylov solve the solution the previous solve returned is gone,
    and during each Jacobian action no residual field pair is alive: the
    right-hand side holds their values."""
    solutions, fields = [], []  # weakrefs
    at_solve, at_action = [], []
    real_gmres, real_terms, real_action = (
        stepper._gmres, _Workspace.terms, _Workspace.jacobian_action)

    def spy_gmres(*args, **kwargs):
        at_solve.append(solutions[-1]() is not None if solutions else False)
        y = real_gmres(*args, **kwargs)
        solutions.append(weakref.ref(y))
        return y

    def spy_terms(self, *args):
        out = real_terms(self, *args)
        fields.extend(weakref.ref(r) for r in out[1:])
        return out

    def spy_action(self, *args):
        at_action.append(sum(ref() is not None for ref in fields))
        return real_action(self, *args)

    monkeypatch.setattr(stepper, "_gmres", spy_gmres)
    monkeypatch.setattr(_Workspace, "terms", spy_terms)
    monkeypatch.setattr(_Workspace, "jacobian_action", spy_action)
    with refcounting_only():
        result = implicit_step(_warm_start_level(),
                               ModelParams(alpha=0.3, gamma=0.1, epsilon=0.01, tau=1e-3),
                               PicardConfig(tol=1e-12))
    assert result.ledger.picard_iters == 8
    assert len(at_solve) > 2 and len(at_action) > len(at_solve)
    assert not any(at_solve), at_solve
    assert not any(at_action), at_action


def test_jacobian_actions_find_no_transport_or_conv(monkeypatch):
    """transport and conv enter the residual only: during each Jacobian
    action none of them, from any residual evaluation, is alive (nor the
    directional ones of an earlier action)."""
    refs, at_action = [], []  # weakrefs; live ones at each action
    real_transport, real_conv, real_action = (
        stepper.director_transport_hat, stepper.convective_hat, _Workspace.jacobian_action)

    def spy_transport(*args, **kwargs):
        out = real_transport(*args, **kwargs)
        refs.append(weakref.ref(out))
        return out

    def spy_conv(*args):
        out = real_conv(*args)
        refs.append(weakref.ref(out))
        return out

    def spy_action(self, *args):
        at_action.append(sum(ref() is not None for ref in refs))
        return real_action(self, *args)

    monkeypatch.setattr(stepper, "director_transport_hat", spy_transport)
    monkeypatch.setattr(stepper, "convective_hat", spy_conv)
    monkeypatch.setattr(_Workspace, "jacobian_action", spy_action)
    with refcounting_only():
        implicit_step(_warm_start_level(), ModelParams(alpha=0.3, gamma=0.1, epsilon=0.01, tau=1e-3),
                      PicardConfig(tol=1e-12))
    assert len(at_action) > 2 and len(refs) > 4
    assert not any(at_action), at_action


def _direction(grid, seed):
    """A band-limited (delta_d, delta_u) coefficient pair, delta_u solenoidal."""
    return (band_limited(grid, grid.dim, seed, scale=0.1).coeffs,
            solenoidal(grid, seed + 1, scale=0.1).coeffs)


def _action_state(grid):
    prev = StepState(perturbed_director(grid, seed=91, amplitude=0.2),
                     solenoidal(grid, seed=92, kcut=2, scale=0.2))
    params = ModelParams(alpha=0.3, gamma=0.1, epsilon=0.01, tau=1e-3)
    ws = _Workspace(grid, params, params.tau, prev.d.coeffs, prev.u.coeffs)
    d_hat = band_limit_hat(prev.d.coeffs + _direction(grid, 93)[0], grid)
    return ws, d_hat, prev.u.coeffs


@pytest.mark.parametrize("dim,n,mode", [(2, 16, "two_thirds"), (2, 12, "exact"),
                                        (2, 8, "none"), (3, 8, "exact")])
def test_one_direction_bundle_alive_at_a_time(monkeypatch, dim, n, mode):
    """A Jacobian action pads the bundles of delta_d, delta_mu and delta_w in
    turn, and when it pads one, the ones it padded before are gone."""
    ws, d_hat, u_hat = _action_state(GridSpec(dim, n, mode))
    t = ws.terms(d_hat, u_hat)[0]
    padded, alive = [], []  # weakrefs of this action's bundles; live ones at each padding
    real_bundle = stepper.padded_bundle

    def spy(coeffs, grid):
        alive.append(sum(ref() is not None for ref in padded))
        bundle = real_bundle(coeffs, grid)
        padded.extend(weakref.ref(a) for a in bundle)
        return bundle

    monkeypatch.setattr(stepper, "padded_bundle", spy)
    with refcounting_only():
        ws.jacobian_action(t, *_direction(ws.grid, 94))
    assert alive == [0, 0, 0]


def _two_pair_action(ws, t, delta_d, delta_u):
    """The Jacobian action with each product's two pairs summed on whole padded
    arrays, the reference for the padded addends."""
    p, grid = ws.params, ws.grid
    dd_b = padded_bundle(delta_d, grid)
    dd3_p = dd_b[0] if ws.cubic_on_bundle_grid else to_padded(delta_d, grid, 3)
    d3_p = t.d3_p
    dfp = from_padded((np.sum(d3_p * d3_p, axis=0) * dd3_p
                       + 2.0 * np.sum(d3_p * dd3_p, axis=0) * d3_p) / p.gamma, grid)
    dmu = band_limit_hat(ws.lap * delta_d + dfp, grid)
    dv = whole_extra_velocity([(padded_bundle(dmu, grid), t.d_b), (t.mu_b, dd_b)], p.alpha, grid)
    dw_b = padded_bundle(delta_u + dv, grid)
    dtrans = whole_transport([(dd_b, t.w_b), (t.d_b, dw_b)], p.alpha, grid)
    du_p = to_padded(delta_u, grid, 2)
    dconv = whole_convective([(du_p, t.u_p), (t.u_p, du_p)], grid)
    return ws._assemble(delta_d, delta_u, delta_u, dtrans, dmu, dconv, dv)


@pytest.mark.parametrize("dim,n,mode", [(2, 16, "two_thirds"), (2, 12, "exact"),
                                        (2, 8, "none"), (3, 8, "exact")])
def test_jacobian_action_equals_two_pair_formula(dim, n, mode):
    """Adding the second pair of each product into the padded samples of the
    first gives the action of summing both pairs, bit for bit."""
    ws, d_hat, u_hat = _action_state(GridSpec(dim, n, mode))
    t = ws.terms(d_hat, u_hat)[0]
    for seed in (95, 97):
        direction = _direction(ws.grid, seed)
        got, want = ws.jacobian_action(t, *direction), _two_pair_action(ws, t, *direction)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_gmres_builds_its_basis_in_place():
    """_gmres consumes the right-hand side: the first direction it hands the
    operator is b itself, normalised in place, and each later one is the
    array the operator returned before, orthogonalised in place."""
    rng = np.random.default_rng(5)
    b = rng.standard_normal((2, 6, 4)) + 1j * rng.standard_normal((2, 6, 4))
    rhs, seen, made = b.copy(), [], []

    def matvec(y):
        seen.append(y)
        made.append(2.0 * y + 0.3 * np.roll(y, 1, axis=1))
        return made[-1]

    x = stepper._gmres(matvec, b, 1e-10, max_inner=24)
    assert seen[0] is b and all(s is m for s, m in zip(seen[1:], made))
    assert abs(spectral_l2_norm(b) - 1.0) < 1e-14
    residual = 2.0 * x + 0.3 * np.roll(x, 1, axis=1) - rhs
    assert spectral_l2_norm(residual) <= 1e-10 * spectral_l2_norm(rhs)


def _counted(op):
    """op, and a list that grows by one at each call to it."""
    calls = []

    def matvec(y):
        calls.append(len(calls))
        return op(y)

    return matvec, calls


@pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
def test_gmres_breakdown_test_does_not_depend_on_the_scale_of_b(scale):
    """A near-identity operator needs a second Krylov column to reach 1e-12
    at every scale of the right-hand side.  Comparing the new direction with
    |b| instead of the operator's output took a breakdown after one column at
    scale 1e8, with a relative residual of 9e-7."""
    rng = np.random.default_rng(11)
    b = scale * (rng.standard_normal((2, 6, 4)) + 1j * rng.standard_normal((2, 6, 4)))
    e = rng.standard_normal((2, 6, 4))

    def op(y):
        return y + 1e-6 * e * np.roll(y, 1, axis=1)

    matvec, calls = _counted(op)
    x = stepper._gmres(matvec, b.copy(), 1e-12, max_inner=24)
    assert len(calls) == 2
    assert spectral_l2_norm(op(x) - b) <= 1e-12 * spectral_l2_norm(b)


def _dense_operator(seed):
    """A dense real-linear operator on (2, 6, 4) half-layout coefficients,
    I + 0.5 G / sqrt(192) on their real coordinates scaled to the Parseval
    weights (so the Euclidean product there is _gmres's), and the maps to and
    from those coordinates."""
    shape, root_w = (2, 6, 4), np.sqrt([1.0, 2.0, 2.0, 1.0])

    def to_z(y):
        return np.concatenate([(root_w * y.real).ravel(), (root_w * y.imag).ravel()])

    def from_z(z):
        re, im = z.reshape(2, *shape)
        return (re + 1j * im) / root_w

    size = 2 * np.prod(shape)
    rng = np.random.default_rng(seed)
    mat = np.eye(size) + 0.5 * rng.standard_normal((size, size)) / np.sqrt(size)
    b = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return (lambda y: from_z(mat @ to_z(y))), b, mat, to_z, from_z


def test_gmres_residual_estimate_is_the_true_residual():
    """A dense operator that needs 19 Krylov columns for 1e-6: the solve stops
    by its estimate with a true relative residual within rel_tol, and the
    estimate agrees with that residual to 1e-10 -- with rel_tol just above it
    the solve stops at the same column, just below it one column later."""
    op, b, *_ = _dense_operator(3)
    norm_b = spectral_l2_norm(b)

    def columns(rel_tol):
        matvec, calls = _counted(op)
        x = stepper._gmres(matvec, b.copy(), rel_tol, max_inner=24)
        return len(calls), spectral_l2_norm(op(x) - b) / norm_b

    m, residual = columns(1e-6)
    assert 15 <= m < 24 and residual <= 1e-6
    assert columns(residual + 1e-10)[0] == m
    assert columns(residual - 1e-10)[0] == m + 1


def test_gmres_reports_the_sweep_factor_of_its_first_column():
    """The factor _gmres reports is |v1 - A v1| for v1 = b / |b|, the relative
    residual of the plain update y = b, read off the first Arnoldi column."""
    op, b, *_ = _dense_operator(3)
    v1 = b / spectral_l2_norm(b)
    want = spectral_l2_norm(v1 - op(v1))
    for rel_tol in (0.9, 1e-6):  # a solve of one column and one of many
        measured = []
        stepper._gmres(op, b.copy(), rel_tol, max_inner=24, sweep=measured)
        assert len(measured) == 1 and abs(measured[0] - want) <= 1e-12, (measured, want)


def test_gmres_overflow_keeps_the_earlier_columns():
    """An operator that returns inf on its third call: the solve stops there
    and returns the minimal-residual solution over the first two columns,
    span{b, A b}, as a dense least squares gives it."""
    op, b, mat, to_z, from_z = _dense_operator(3)
    matvec, calls = _counted(lambda y: np.full_like(y, np.inf) if len(calls) == 3 else op(y))
    with np.errstate(over="ignore", invalid="ignore"):
        x = stepper._gmres(matvec, b.copy(), 1e-10, max_inner=24)
    assert len(calls) == 3 and np.all(np.isfinite(x))
    krylov = np.stack([to_z(b), mat @ to_z(b)], axis=1)
    coef, *_ = np.linalg.lstsq(mat @ krylov, to_z(b), rcond=None)
    want = from_z(krylov @ coef)
    assert spectral_l2_norm(x - want) <= 1e-12 * spectral_l2_norm(want)


def test_gmres_zero_right_hand_side_calls_no_operator():
    """A zero right-hand side returns zeros of its shape and dtype at once."""
    matvec, calls = _counted(lambda y: 2.0 * y)
    b = np.zeros((2, 6, 4), complex)
    x = stepper._gmres(matvec, b, 1e-10, max_inner=24)
    assert not calls and x.shape == b.shape and x.dtype == b.dtype and not np.any(x)


def test_gmres_operator_that_annihilates_b_returns_zeros():
    """An operator that maps b to zero gives a zero Hessenberg column: the
    solve ends there, with nothing solved and no division by zero."""
    matvec, calls = _counted(lambda y: 0.0 * y)
    b = np.random.default_rng(7).standard_normal((2, 6, 4)) + 0j
    x = stepper._gmres(matvec, b, 1e-10, max_inner=24)
    assert len(calls) == 1 and not np.any(x)


def test_package_calls_neither_lapack_nor_blas():
    """No module of the package has a matrix product (@) or names numpy's
    linalg, dot, matmul, tensordot, inner or vdot, so the outputs cannot
    depend on the BLAS build or its thread count, and no LAPACK code runs."""
    banned = {"linalg", "dot", "matmul", "tensordot", "inner", "vdot"}
    src = Path(stepper.__file__).resolve().parent
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                found.append((path.name, node.lineno, "@"))
            elif isinstance(node, ast.Attribute) and node.attr in banned:
                found.append((path.name, node.lineno, node.attr))
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
                found += [(path.name, node.lineno, a.name) for a in node.names
                          if a.name in banned or "linalg" in node.module]
    assert not found


def test_steps_call_no_numpy_linalg(monkeypatch):
    """One 2D and one 3D step with every public callable of np.linalg
    replaced by one that raises."""

    def forbidden(*args, **kwargs):
        raise AssertionError("np.linalg called on the step path")

    for name in dir(np.linalg):
        public = getattr(np.linalg, name)
        if not name.startswith("_") and callable(public) and not isinstance(public, type):
            monkeypatch.setattr(np.linalg, name, forbidden)
    params = ModelParams(alpha=0.3, gamma=0.1, epsilon=0.01, tau=1e-3)
    grid = GridSpec(3, 8, "exact")
    for prev in (_warm_start_level(),
                 StepState(perturbed_director(grid, seed=61, amplitude=0.1),
                           solenoidal(grid, seed=62, kcut=2, scale=0.1))):
        assert implicit_step(prev, params, PicardConfig(tol=1e-12)).ledger.picard_iters > 1


def _warm_step_peak(grid):
    """The traced peak of one warm-started step, in quadratic padded
    components (padded_size(grid, 2) ** dim float64)."""
    prev = StepState(perturbed_director(grid, seed=81, amplitude=0.1),
                     solenoidal(grid, seed=82, kcut=2, scale=0.1))
    params = ModelParams(alpha=0.3, gamma=0.1, epsilon=0.01, tau=1e-3)
    first = implicit_step(prev, params).state  # also fills the per-grid caches
    guess = _extrapolated_guess(first, prev)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = implicit_step(first, params, guess=guess)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert result.tau_used == params.tau
    return peak / (padded_size(grid, 2) ** grid.dim * 8)


def test_warm_step_peak_in_padded_arrays():
    """The traced peak of one warm-started step at 2D n=64 two_thirds, in
    quadratic padded components (96^2 float64): 99.7 before Jacobian actions
    kept one direction bundle at a time, levels held no samples and the
    Krylov basis was built in place, 88.9 after."""
    peak = _warm_step_peak(GridSpec(2, 64, "two_thirds"))
    assert peak <= 94, peak


def test_warm_3d_step_peak_in_padded_arrays():
    """The same at 3D n=12 exact (18^3 float64), where the well term has its
    own padded grid (24^3): 104.0 while a Jacobian action padded delta_d's
    bundle before its well term and truncated through full-width spectra,
    96.0 with the well term first, in row blocks, and narrow truncations."""
    peak = _warm_step_peak(GridSpec(3, 12, "exact"))
    assert peak <= 100, peak


def test_ledger_runs_after_the_padded_terms_are_gone(monkeypatch):
    """When the step builds its ledger (whose well quadrature pads d onto the
    degree-4 grid), no padded array of any residual evaluation is alive: the
    converged attempt keeps mu and v, not its terms."""
    refs, at_ledger = [], []  # weakrefs to every padded term; live ones at the ledger
    real_terms, real_ledger = _Workspace.terms, stepper.build_ledger

    def spy_terms(self, *args):
        out = real_terms(self, *args)
        t = out[0]
        refs.extend(weakref.ref(a) for a in (*t.d_b, *t.mu_b, *t.w_b, t.u_p, t.d3_p))
        return out

    def spy_ledger(*args, **kwargs):
        at_ledger.append(sum(ref() is not None for ref in refs))
        return real_ledger(*args, **kwargs)

    monkeypatch.setattr(_Workspace, "terms", spy_terms)
    monkeypatch.setattr(stepper, "build_ledger", spy_ledger)
    with refcounting_only():
        implicit_step(_warm_start_level(), ModelParams(alpha=0.3, gamma=0.1, epsilon=0.01, tau=1e-3),
                      PicardConfig(tol=1e-12))
    assert len(refs) > 7 and at_ledger == [0], at_ledger


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


def _warm_start_level():
    grid = GridSpec(2, 16, "exact")
    return StepState(
        perturbed_director(grid, seed=71, amplitude=0.15),
        solenoidal(grid, seed=72, kcut=2, scale=0.15),
    )


def test_warm_start_does_not_change_solution():
    prev = _warm_start_level()
    grid = prev.grid
    params = ModelParams(alpha=0.3, gamma=0.1, epsilon=0.01, tau=1e-3)
    cfg = PicardConfig(tol=1e-12)
    plain = implicit_step(prev, params, cfg)
    guess = (VectorField(grid, plain.state.d.values + 1e-4).coeffs, plain.state.u.coeffs)
    warm = implicit_step(prev, params, cfg, guess=guess)
    assert np.max(np.abs(warm.state.d.values - plain.state.d.values)) < 5e-11
    assert np.max(np.abs(warm.state.u.values - plain.state.u.values)) < 5e-11


def test_overflowing_guess_falls_back_to_previous_level():
    """A warm start that overflows is dropped within the same attempt: the
    step restarts from the previous level at the same tau, exactly as
    without a guess."""
    prev = _warm_start_level()
    params = ModelParams(alpha=0.3, gamma=0.1, epsilon=0.01, tau=1e-3)
    cfg = PicardConfig(tol=1e-12)
    plain = implicit_step(prev, params, cfg)
    wild = implicit_step(prev, params, cfg, guess=(1e120 * prev.d.coeffs, prev.u.coeffs))
    assert np.array_equal(wild.state.d.coeffs, plain.state.d.coeffs)
    assert np.array_equal(wild.state.u.coeffs, plain.state.u.coeffs)
    assert wild.tau_used == plain.tau_used == params.tau
    assert wild.ledger.picard_iters == plain.ledger.picard_iters == 8


def _sweep_spies(monkeypatch):
    """Every residual evaluation (its normalised residual, the bytes of the
    d_hat it evaluated, and how many earlier terms, residual fields and
    preconditioner inputs are still alive when it starts), GMRES solve and
    Jacobian action, in call order."""
    events, refs = [], []
    real_terms, real_gmres, real_action, real_precondition = (
        _Workspace.terms, stepper._gmres, _Workspace.jacobian_action, _Workspace.precondition_vec)

    def spy_terms(self, d_hat, u_hat):
        alive = sum(ref() is not None for ref in refs)
        out = real_terms(self, d_hat, u_hat)
        refs.extend(weakref.ref(a) for a in out)
        res = max(spectral_l2_norm(out[1]) / (1.0 + spectral_l2_norm(d_hat)),
                  spectral_l2_norm(out[2]) / (1.0 + spectral_l2_norm(u_hat)))
        events.append(("eval", res, d_hat.tobytes(), alive))
        return out

    def spy_precondition(self, y):
        refs.append(weakref.ref(y))
        return real_precondition(self, y)

    def spy_gmres(*args, **kwargs):
        events.append(("gmres",))
        return real_gmres(*args, **kwargs)

    def spy_action(self, *args):
        events.append(("action",))
        return real_action(self, *args)

    monkeypatch.setattr(_Workspace, "terms", spy_terms)
    monkeypatch.setattr(stepper, "_gmres", spy_gmres)
    monkeypatch.setattr(_Workspace, "jacobian_action", spy_action)
    monkeypatch.setattr(_Workspace, "precondition_vec", spy_precondition)
    return events


_PARAMS = ModelParams(alpha=0.3, gamma=0.1, epsilon=0.01, tau=1e-3)


def _quiet_levels(steps):
    """2D n=16 two_thirds, amplitude 0.001: the levels of the first steps,
    each warm-started as the run loop does, and the guess for the next."""
    prev = initial_condition("uniform_perturbed", GridSpec(2, 16, "two_thirds"), 1, 0.001)
    older = None
    for _ in range(steps):
        older, prev = prev, implicit_step(prev, _PARAMS, guess=_extrapolated_guess(prev, older)).state
    return prev, _extrapolated_guess(prev, older)


def test_warm_near_equilibrium_step_sweeps_without_krylov(monkeypatch):
    """Near equilibrium the warm start's sweep meets each pass's forcing
    target, so the step converges with no GMRES solve and no Jacobian action:
    the start, then one sweep per pass, each lowering the residual.  When a
    sweep's trial is evaluated, the iterate's terms, its residual fields and
    the right-hand side the sweep preconditioned are gone."""
    prev, guess = _quiet_levels(2)
    events = _sweep_spies(monkeypatch)
    with refcounting_only():
        result = implicit_step(prev, _PARAMS, guess=guess)
    assert result.tau_used == _PARAMS.tau
    assert [e[0] for e in events] == ["eval"] * result.ledger.picard_iters
    res = [e[1] for e in events]
    assert len(res) >= 3 and all(b < a for a, b in zip(res, res[1:])), res
    assert [e[3] for e in events] == [0] * len(events)
    assert result.ledger.picard_residual <= PicardConfig().tol


def test_sweep_that_raises_the_residual_falls_back_to_gmres(monkeypatch):
    """A warm start off the solution: its first sweep lowers the residual, the
    second raises it, so the iterate is evaluated once more, the pass runs
    GMRES, and the attempt converges at the configured tau."""
    prev = _warm_start_level()
    noise = band_limited(prev.grid, 2, 5, scale=1.0).coeffs
    guess = [prev.d.coeffs + 0.01 * noise, prev.u.coeffs]
    events = _sweep_spies(monkeypatch)
    cfg = PicardConfig(tol=1e-12)
    with refcounting_only():
        result = implicit_step(prev, _PARAMS, cfg, guess=guess)
    assert result.tau_used == _PARAMS.tau
    assert [e[0] for e in events[:5]] == ["eval"] * 4 + ["gmres"]
    start, swept, raised, again = events[:4]
    assert swept[1] < start[1] and raised[1] > swept[1]
    assert again[1:3] == swept[1:3]  # the same iterate, the same residual
    evals = [e for e in events if e[0] == "eval"]
    assert len(evals) == len({e[2] for e in evals}) + 1  # one evaluation repeated
    assert len(evals) == result.ledger.picard_iters
    assert [e[3] for e in evals] == [0] * len(evals)  # one set of terms at a time
    assert result.ledger.picard_residual <= cfg.tol


def test_guess_is_released_once_its_start_is_evaluated(monkeypatch):
    """The run loop's warm start is a list, which the step empties once the
    pair has made its start: during the step's trial evaluations and its
    Jacobian actions no part of the guess is alive."""
    prev, guess = _quiet_levels(1)
    refs = [weakref.ref(c) for c in guess]
    seen = []  # (what, live parts of the guess)
    real_terms, real_action = _Workspace.terms, _Workspace.jacobian_action

    def spy_terms(self, *args):
        seen.append(("eval", sum(ref() is not None for ref in refs)))
        return real_terms(self, *args)

    def spy_action(self, *args):
        seen.append(("action", sum(ref() is not None for ref in refs)))
        return real_action(self, *args)

    monkeypatch.setattr(_Workspace, "terms", spy_terms)
    monkeypatch.setattr(_Workspace, "jacobian_action", spy_action)
    with refcounting_only():
        result = implicit_step(prev, _PARAMS, guess=guess)
    assert result.tau_used == _PARAMS.tau and guess == []
    assert {"eval", "action"} <= {what for what, _ in seen[1:]}, seen
    assert all(live == 0 for _, live in seen[1:]), seen
