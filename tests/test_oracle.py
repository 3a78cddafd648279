import numpy as np
import pytest

from nemflow.energetics import ModelParams, total_energy
from nemflow.fields import GridSpec, VectorField, ifftn_norm
from nemflow.operators import grad_hat
from nemflow.stepper import PicardConfig, StepState, implicit_step, residual_fully_implicit
import oracle
from util import band_limited, mu_field, perturbed_director, solenoidal, zero_field


def test_laplacian_matrix_symmetric():
    grid = GridSpec(2, 8, "exact")
    m = oracle.dense_operator_matrix(grid, "laplacian")
    assert np.max(np.abs(m - m.T)) < 1e-12


def test_leray_matrix_idempotent():
    grid = GridSpec(2, 8, "exact")
    m = oracle.dense_operator_matrix(grid, "leray")
    assert np.max(np.abs(m @ m - m)) < 1e-12


def test_gradient_matrix_annihilates_constants():
    grid = GridSpec(2, 8, "exact")
    m = oracle.dense_operator_matrix(grid, "gradient_1")
    assert np.max(np.abs(m @ np.ones(grid.n**grid.dim))) < 1e-13


def test_resolution_guard():
    with pytest.raises(ValueError, match="too large"):
        oracle.dense_operator_matrix(GridSpec(2, 16), "laplacian")
    with pytest.raises(ValueError, match="too large"):
        oracle.dense_operator_matrix(GridSpec(3, 8), "laplacian")
    with pytest.raises(ValueError, match="too large"):
        oracle.quadrature_energy(
            zero_field(GridSpec(2, 32), 2),
            zero_field(GridSpec(2, 32), 2),
            ModelParams(),
        )


def test_quadrature_energy_ground_state():
    grid = GridSpec(2, 8, "exact")
    unit = np.zeros((2, 8, 8))
    unit[0] = 1.0
    eb = oracle.quadrature_energy(VectorField(grid, unit), zero_field(grid, 2),
                                  ModelParams(gamma=0.3))
    assert eb.total < 1e-13


def test_quadrature_energy_pure_kinetic_single_mode():
    grid = GridSpec(2, 8, "exact")
    x = grid.meshgrid()
    a = 0.7
    u = np.zeros((2, 8, 8))
    u[0] = a * np.sin(2 * np.pi * x[1])  # solenoidal single mode
    params = ModelParams(rho=2.0, gamma=1.0)
    unit = np.zeros((2, 8, 8))
    unit[0] = 1.0
    eb = oracle.quadrature_energy(VectorField(grid, unit), VectorField(grid, u), params)
    assert eb.kinetic == pytest.approx(0.5 * params.rho * a**2 * 0.5, rel=1e-12)


def test_energy_agreement_with_production():
    grid = GridSpec(2, 8, "exact")
    params = ModelParams(gamma=0.1)
    d = perturbed_director(grid, seed=3, amplitude=0.3, kcut=3)
    u = solenoidal(grid, seed=4, kcut=3, scale=0.4)
    ours = total_energy(d, u, params)
    ref = oracle.quadrature_energy(d, u, params)
    assert ours.elastic == pytest.approx(ref.elastic, abs=1e-11)
    assert ours.well == pytest.approx(ref.well, abs=1e-11)
    assert ours.kinetic == pytest.approx(ref.kinetic, abs=1e-11)


def test_scheme_residual_zero_at_equilibrium():
    grid = GridSpec(2, 8, "exact")
    unit = np.zeros((2, 8, 8))
    unit[0] = 1.0
    state = StepState(VectorField(grid, unit), zero_field(grid, 2))
    params = ModelParams(alpha=0.3, gamma=0.1, epsilon=0.01, tau=1e-3)
    residuals = oracle.dense_scheme_residual(
        state.d, state.u, (state.d, state.u, zero_field(grid, 2)), params
    )
    assert all(r < 1e-12 for r in residuals), residuals


@pytest.mark.parametrize("dim,n", [(2, 8), (3, 4)])
def test_scheme_residual_two_path_agreement(dim, n):
    grid = GridSpec(dim, n, "exact")
    kcut = max(1, n // 2 - 1)
    prev = StepState(
        perturbed_director(grid, seed=31, amplitude=0.2, kcut=kcut),
        solenoidal(grid, seed=32, kcut=kcut, scale=0.2),
    )
    params = ModelParams(alpha=0.3, gamma=0.1, epsilon=0.01, tau=1e-3)
    result = implicit_step(prev, params, PicardConfig(tol=1e-11))
    assert result.tau_used == params.tau
    cand = (result.state.d, result.state.u, mu_field(result))
    prod = residual_fully_implicit(prev, cand, params)
    dense = oracle.dense_scheme_residual(prev.d, prev.u, cand, params)
    for a, b in zip(prod, dense):
        assert abs(a - b) < 1e-10
    assert max(dense) <= 2.0 * 1e-11

    # a generic (non-converged) candidate also agrees across the two paths
    rough = (prev.d, prev.u, mu_field(result))
    prod_r = residual_fully_implicit(prev, rough, params)
    dense_r = oracle.dense_scheme_residual(prev.d, prev.u, rough, params)
    for a, b in zip(prod_r, dense_r):
        assert abs(a - b) < 1e-10


def test_mutated_production_gradient_breaks_equivalence():
    """The oracle is independent: corrupting the production gradient output
    must produce a visible mismatch against the dense matrix."""
    grid = GridSpec(2, 8, "exact")
    f = band_limited(grid, 1, seed=9)
    good = ifftn_norm(grad_hat(f.coeffs, grid), grid.dim)[0, 0].ravel()
    corrupted = good + 1e-6
    mat = oracle.dense_operator_matrix(grid, "gradient_1")
    want = (mat @ f.values[0].ravel()).real
    assert np.max(np.abs(good - want)) < 1e-12
    assert np.max(np.abs(corrupted - want)) > 1e-7
