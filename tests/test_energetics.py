import numpy as np
import pytest

from nemflow.diagnostics import build_ledger
from nemflow.energetics import (
    ModelParams,
    chemical_potential,
    chemical_potential_hat,
    f_plus_hat,
    total_energy,
    well_integral_hat,
)
from nemflow.fields import GridSpec, VectorField, fftn_norm, l2_inner
from nemflow.operators import gradient
from nemflow.stepper import StepState
from util import band_limited, perturbed_director, solenoidal


def test_model_params_validation():
    ModelParams()
    with pytest.raises(ValueError, match="alpha ∈ \\[0,1\\]"):
        ModelParams(alpha=1.5)
    with pytest.raises(ValueError, match="rho"):
        ModelParams(rho=0.0)
    with pytest.raises(ValueError, match="gamma"):
        ModelParams(gamma=-1.0)
    with pytest.raises(ValueError, match="tau"):
        ModelParams(tau=0.0)
    ModelParams(epsilon=0.0)  # allowed at the type level


@pytest.fixture
def grid():
    return GridSpec(2, 8, "exact")


def test_double_well_examples(grid):
    """Integral of W(d) = (|d|^2 - 1)^2 / (4 gamma) for constant directors."""
    def well(values, gamma):
        return well_integral_hat(fftn_norm(values, grid.dim), grid, gamma)

    unit = np.zeros((2, 8, 8))
    unit[0] = 1.0
    assert abs(well(unit, 0.5)) < 1e-15
    assert well(np.zeros((2, 8, 8)), 1.0) == pytest.approx(0.25, abs=1e-15)
    assert well(2.0 * unit, 0.5) == pytest.approx(4.5, abs=1e-14)


def test_f_split_examples(grid):
    """f_plus(d) + f_minus(d) vanishes on unit directors; f_plus(0) = 0 and
    f_minus(d_prev) = -d_prev / gamma enters the chemical potential."""
    unit = np.zeros((2, 8, 8))
    unit[0] = 1.0
    unit_hat = fftn_norm(unit, grid.dim)
    assert np.max(np.abs(f_plus_hat(unit_hat, grid, 0.7) - unit_hat / 0.7)) < 1e-14

    zero_hat = np.zeros_like(unit_hat)
    assert np.max(np.abs(f_plus_hat(zero_hat, grid, 1.0))) == 0.0
    mu = chemical_potential_hat(zero_hat, unit_hat, grid, 1.0)
    assert np.max(np.abs(mu + unit_hat)) < 1e-15


def test_f_split_sum_matches_unsplit_formula():
    """f_plus(d) - d / gamma is the projection of (|d|^2 - 1) d / gamma; on a
    grid that resolves the cubic, that is the transform of its samples."""
    grid = GridSpec(2, 16, "exact")
    d = band_limited(grid, 2, seed=3, kcut=2)
    gamma = 0.3
    d_hat = fftn_norm(d.values, grid.dim)
    split = f_plus_hat(d_hat, grid, gamma) - d_hat / gamma
    sq = np.sum(d.values * d.values, axis=0)
    unsplit = fftn_norm((sq - 1.0) * d.values / gamma, grid.dim)
    assert np.max(np.abs(split - unsplit)) < 1e-14


def test_chemical_potential_uniform_states(grid):
    params = ModelParams(gamma=0.25)
    unit = np.zeros((2, 8, 8))
    unit[0] = 1.0
    d = VectorField(grid, unit)
    mu = chemical_potential(d, d, params)
    assert np.max(np.abs(mu.values)) < 1e-13

    c = np.zeros((2, 8, 8))
    c[0], c[1] = 0.4, -1.1
    dc = VectorField(grid, c)
    mu_c = chemical_potential(dc, dc, params)
    norm2 = 0.4**2 + 1.1**2
    want = (norm2 - 1.0) * c / params.gamma
    assert np.max(np.abs(mu_c.values - want)) < 1e-12


def test_chemical_potential_matches_dense_assembly(grid):
    from nemflow import oracle

    params = ModelParams(gamma=0.1)
    d = perturbed_director(grid, seed=5, amplitude=0.3, kcut=3)
    d_prev = perturbed_director(grid, seed=6, amplitude=0.3, kcut=3)
    mu = chemical_potential(d, d_prev, params)

    modes = oracle.retained_modes(grid)
    lap = 4.0 * np.pi**2 * np.sum(modes.astype(float) ** 2, axis=1)
    cd = oracle._coefficients(grid, d.values)
    cdp = oracle._coefficients(grid, d_prev.values)
    d_f = oracle._fine_values(grid, cd)
    fp = np.sum(d_f * d_f, axis=0) * d_f / params.gamma
    mu_dense = lap[None] * cd + oracle._fine_project(grid, fp) - cdp / params.gamma
    got = oracle._coefficients(grid, mu.values)
    assert np.max(np.abs(got - mu_dense)) < 1e-12


def test_total_energy_examples(grid):
    params = ModelParams(gamma=1.0)
    unit = np.zeros((2, 8, 8))
    unit[0] = 1.0
    ground = total_energy(VectorField(grid, unit), VectorField.zeros(grid, 2), params)
    assert ground.total < 1e-14

    zero_d = total_energy(VectorField.zeros(grid, 2), VectorField.zeros(grid, 2), params)
    assert zero_d.total == pytest.approx(0.25, abs=1e-14)
    assert zero_d.well == pytest.approx(0.25, abs=1e-14)


def test_total_energy_sine_elastic_leading_term():
    grid = GridSpec(2, 64, "exact")
    params = ModelParams(gamma=0.1)
    x = grid.meshgrid()
    a = 1e-3
    d = np.zeros((2, 64, 64))
    d[0] = 1.0 + a * np.sin(2 * np.pi * x[0])
    eb = total_energy(VectorField(grid, d), VectorField.zeros(grid, 2), params)
    # elastic part is exactly a^2 pi^2; the well adds only O(a^2/gamma) terms
    assert eb.elastic == pytest.approx(a**2 * np.pi**2, rel=1e-12)


def test_energy_parts_nonnegative(grid):
    params = ModelParams(gamma=0.2)
    d = band_limited(grid, 2, seed=9)
    u = solenoidal(grid, seed=10)
    eb = total_energy(d, u, params)
    assert eb.elastic >= 0 and eb.well >= 0 and eb.kinetic >= 0
    assert eb.total == eb.elastic + eb.well + eb.kinetic


def test_dissipation_rate_examples(grid):
    """The ledger's dissipation channels (tau times the rate) on constant
    fields: none at rest, tau |v|^2 of friction for a uniform extra velocity."""
    params = ModelParams(eta=0.7, tau=1e-3)
    zero = VectorField.zeros(grid, 2)
    rest = StepState(zero, zero)
    zero_hat = rest.d.coeffs
    led = build_ledger(rest, rest, zero_hat, zero_hat, params, picard_iters=0, picard_residual=0.0)
    assert led.d_visc == 0.0 and led.d_friction == 0.0

    c = np.zeros((2, 8, 8))
    c[0], c[1] = 0.3, -0.4
    led = build_ledger(rest, rest, zero_hat, fftn_norm(c, grid.dim), params,
                       picard_iters=0, picard_residual=0.0)
    assert led.d_visc == 0.0
    assert led.d_friction == pytest.approx(0.25 * params.tau, abs=1e-17)


def test_dissipation_rate_matches_quadrature(grid):
    """Ledger channels 2 eta tau int |Du|^2 and tau int |v|^2 against sample
    quadrature of the strain rate and the extra velocity."""
    params = ModelParams(eta=1.3, tau=1e-3)
    u = solenoidal(grid, seed=11)
    v = band_limited(grid, 2, seed=12)
    zero = VectorField.zeros(grid, 2)
    led = build_ledger(StepState(zero, zero), StepState(zero, u), StepState(zero, zero).d.coeffs,
                       fftn_norm(v.values, grid.dim), params, picard_iters=0, picard_residual=0.0)

    g = gradient(u).values
    du = 0.5 * (g + np.swapaxes(g, 0, 1))
    visc = 2.0 * params.eta * float(np.mean(np.sum(du**2, axis=(0, 1))))
    fric = float(np.mean(np.sum(v.values**2, axis=0)))
    assert led.d_visc == pytest.approx(params.tau * visc, rel=1e-12)
    assert led.d_friction == pytest.approx(params.tau * fric, rel=1e-12)


def test_convexity_inequality_for_f_plus(grid):
    """W_plus(a) - W_plus(b) <= f_plus(a) . (a - b) pointwise."""
    gamma = 0.15
    rng = np.random.default_rng(21)
    a = rng.normal(size=(2, 8, 8))
    b = rng.normal(size=(2, 8, 8))
    wp = lambda d: (np.sum(d * d, axis=0) ** 2 + 1.0) / (4.0 * gamma)
    fp = np.sum(a * a, axis=0) * a / gamma
    lhs = wp(a) - wp(b)
    rhs = np.sum(fp * (a - b), axis=0)
    assert np.all(lhs <= rhs + 1e-12)


def test_concave_part_identity(grid):
    """W_minus(a) - W_minus(b) - f_minus(b).(a-b) = -|a-b|^2 / (2 gamma)."""
    gamma = 0.15
    rng = np.random.default_rng(22)
    a = rng.normal(size=(2, 8, 8))
    b = rng.normal(size=(2, 8, 8))
    wm = lambda d: -np.sum(d * d, axis=0) / (2.0 * gamma)
    fm_b = -b / gamma
    lhs = wm(a) - wm(b) - np.sum(fm_b * (a - b), axis=0)
    rhs = -np.sum((a - b) ** 2, axis=0) / (2.0 * gamma)
    assert np.max(np.abs(lhs - rhs)) < 1e-13


def test_chemical_potential_is_energy_gradient():
    """Central finite differences of the internal energy match the potential
    built with both splitting parts at d, to second order in h."""
    grid = GridSpec(2, 16, "exact")
    params = ModelParams(gamma=0.1)
    d = perturbed_director(grid, seed=31, amplitude=0.3, kcut=3)
    zero_u = VectorField.zeros(grid, 2)

    def internal(values):
        return total_energy(VectorField(grid, values), zero_u, params, grid).total

    rng_dirs = range(3)
    for i in rng_dirs:
        delta = band_limited(grid, 2, seed=100 + i, kcut=3)
        mu = chemical_potential(d, d, params)
        pairing = l2_inner(mu, delta)
        errs = []
        for h in (1e-3, 1e-4):
            fd = (internal(d.values + h * delta.values)
                  - internal(d.values - h * delta.values)) / (2.0 * h)
            errs.append(abs(fd - pairing))
        order = np.log10(errs[0] / errs[1])
        assert order >= 1.9
