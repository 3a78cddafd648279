import numpy as np
import pytest

from nemflow import coupling, operators
from nemflow.coupling import director_transport_hat, extra_velocity_hat
from nemflow.energetics import ModelParams, chemical_potential
from nemflow.fields import GridSpec, VectorField, ifftn_norm
from nemflow.operators import grad_hat, padded_bundle, padded_size, to_padded
import oracle
from util import (band_limited, l2_inner, perturbed_director, solenoidal, whole_convective,
                  whole_extra_velocity, whole_transport, zero_field)


def product(hat, a, b, alpha):
    """The solver's coefficient-space product hat (extra_velocity_hat or
    director_transport_hat) of one (a, b) pair."""
    grid = a.grid
    pair = (padded_bundle(a.coeffs, grid), padded_bundle(b.coeffs, grid))
    return VectorField.from_coefficients(grid, hat(pair, alpha, grid))


@pytest.fixture
def grid():
    return GridSpec(2, 8, "exact")


def test_extra_velocity_uniform_inputs_vanish(grid):
    mu = VectorField(grid, np.broadcast_to(np.array([0.3, -0.2])[:, None, None], (2, 8, 8)).copy())
    d = VectorField(grid, np.broadcast_to(np.array([1.0, 0.5])[:, None, None], (2, 8, 8)).copy())
    v = product(extra_velocity_hat, mu, d, alpha=0.3)
    assert np.max(np.abs(v.values)) < 1e-13


def test_extra_velocity_uniform_director_reduction(grid):
    """With uniform d = c the operator reduces to alpha (c.grad) mu -
    (1-alpha) c (div mu); checked against a single analytic mode."""
    alpha = 0.3
    c = np.array([0.8, -0.6])
    x = grid.meshgrid()
    mu_vals = np.zeros((2, 8, 8))
    mu_vals[0] = np.sin(2 * np.pi * x[0])
    mu = VectorField(grid, mu_vals)
    d = VectorField(grid, np.broadcast_to(c[:, None, None], (2, 8, 8)).copy())
    v = product(extra_velocity_hat, mu, d, alpha)
    grad_mu0 = 2 * np.pi * np.cos(2 * np.pi * x[0])
    want = np.zeros_like(mu_vals)
    want[0] = alpha * c[0] * grad_mu0 - (1 - alpha) * c[0] * grad_mu0
    want[1] = -(1 - alpha) * c[1] * grad_mu0
    assert np.max(np.abs(v.values - want)) < 1e-11


def test_extra_velocity_matches_dense_oracle(grid):
    alpha = 0.35
    mu = band_limited(grid, 2, seed=41, kcut=3)
    d = band_limited(grid, 2, seed=42, kcut=3)
    got = product(extra_velocity_hat, mu, d, alpha)

    cd = oracle._coefficients(grid, d.values)
    cmu = oracle._coefficients(grid, mu.values)
    modes = oracle.retained_modes(grid)
    kf = modes.astype(float)

    def fine(c):
        return oracle._fine_values(grid, c)

    def deriv(c, j):
        return c * (2.0j * np.pi * kf[:, j])[None, :]

    d_f, mu_f = fine(cd), fine(cmu)
    gd_f = np.stack([fine(deriv(cd, j)) for j in range(2)], axis=1)
    gmu_f = np.stack([fine(deriv(cmu, j)) for j in range(2)], axis=1)
    v_f = np.einsum("j...,ji...->i...", mu_f, gd_f)
    v_f += alpha * (np.einsum("j...,ij...->i...", d_f, gmu_f)
                    + mu_f * np.einsum("jj...->...", gd_f))
    v_f -= (1 - alpha) * (np.einsum("j...,ij...->i...", mu_f, gd_f)
                          + d_f * np.einsum("jj...->...", gmu_f))
    cv = oracle._fine_project(grid, v_f)
    want = (cv @ oracle._synthesis(modes, oracle._points(8, 2)).T).real
    assert np.max(np.abs(got.values.reshape(2, -1) - want)) < 1e-12


def test_director_transport_zero_velocity(grid):
    d = band_limited(grid, 2, seed=43)
    t = product(director_transport_hat, d, zero_field(grid, 2), alpha=0.4)
    assert np.max(np.abs(t.values)) == 0.0


def test_director_transport_skew_pairing_alpha_half(grid):
    for seed in range(5):
        d = band_limited(grid, 2, seed=50 + seed, kcut=3)
        w = solenoidal(grid, seed=60 + seed, kcut=3)
        t = product(director_transport_hat, d, w, alpha=0.5)
        pairing = l2_inner(d, t)
        bound = 1e-12 * max(l2_inner(d, d) * np.sqrt(l2_inner(w, w)), 1e-30)
        assert abs(pairing) <= bound


def test_director_transport_matches_dense_oracle(grid):
    alpha = 0.25
    d = band_limited(grid, 2, seed=70, kcut=3)
    w = band_limited(grid, 2, seed=71, kcut=3)
    got = product(director_transport_hat, d, w, alpha)

    cd = oracle._coefficients(grid, d.values)
    cw = oracle._coefficients(grid, w.values)
    modes = oracle.retained_modes(grid)
    kf = modes.astype(float)

    def fine(c):
        return oracle._fine_values(grid, c)

    def deriv(c, j):
        return c * (2.0j * np.pi * kf[:, j])[None, :]

    d_f, w_f = fine(cd), fine(cw)
    gd_f = np.stack([fine(deriv(cd, j)) for j in range(2)], axis=1)
    gw_f = np.stack([fine(deriv(cw, j)) for j in range(2)], axis=1)
    t_f = np.einsum("j...,ij...->i...", w_f, gd_f)
    t_f -= alpha * np.einsum("ij...,j...->i...", gw_f, d_f)
    t_f += (1 - alpha) * np.einsum("ji...,j...->i...", gw_f, d_f)
    ct = oracle._fine_project(grid, t_f)
    want = (ct @ oracle._synthesis(modes, oracle._points(8, 2)).T).real
    assert np.max(np.abs(got.values.reshape(2, -1) - want)) < 1e-12


def test_weak_strong_duality(grid):
    """int T(d, u+v) . mu equals int (u+v) . v with the shared projected v."""
    params = ModelParams(alpha=0.3, gamma=0.1)
    d = perturbed_director(grid, seed=90, amplitude=0.25, kcut=3)
    d_prev = perturbed_director(grid, seed=91, amplitude=0.25, kcut=3)
    u = solenoidal(grid, seed=92, kcut=3)
    mu = chemical_potential(d, d_prev, params)
    v = product(extra_velocity_hat, mu, d, params.alpha)
    w = VectorField(grid, u.values + v.values)
    t = product(director_transport_hat, d, w, params.alpha)
    lhs = l2_inner(t, mu)
    rhs = l2_inner(w, v)
    assert lhs == pytest.approx(rhs, abs=1e-11 * max(abs(lhs), 1.0))


def test_alpha_half_pointwise_identity(grid):
    """d . [(grad w - grad^T w) d] vanishes at every sample."""
    d = band_limited(grid, 2, seed=95)
    w = band_limited(grid, 2, seed=96)
    gw = ifftn_norm(grad_hat(w.coeffs, grid), 2)
    skew = 0.5 * (gw - np.swapaxes(gw, 0, 1))
    val = np.einsum("i...,ij...,j...->...", d.values, skew, d.values)
    assert np.max(np.abs(val)) < 1e-13


def test_extra_velocity_linearity(grid):
    alpha = 0.6

    def v(mu, d):
        return product(extra_velocity_hat, mu, d, alpha).values

    mu1 = band_limited(grid, 2, seed=100)
    mu2 = band_limited(grid, 2, seed=101)
    d = band_limited(grid, 2, seed=102)
    combo = VectorField(grid, 2.0 * mu1.values - 0.5 * mu2.values)
    lhs = v(combo, d)
    rhs = 2.0 * v(mu1, d) - 0.5 * v(mu2, d)
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(np.max(np.abs(rhs)), 1.0)

    d2 = band_limited(grid, 2, seed=103)
    combo_d = VectorField(grid, 0.7 * d.values + 1.3 * d2.values)
    lhs2 = v(mu1, combo_d)
    rhs2 = 0.7 * v(mu1, d) + 1.3 * v(mu1, d2)
    assert np.max(np.abs(lhs2 - rhs2)) < 1e-12 * max(np.max(np.abs(rhs2)), 1.0)


@pytest.mark.parametrize("dim,n,mode,blocks", [
    (2, 64, "exact", True),        # m = 96
    (2, 128, "two_thirds", True),  # m = 192
    (3, 16, "exact", True),        # m = 24
    (3, 8, "none", False),         # m = 8, one block
])
def test_row_blocks_equal_whole_array_products(dim, n, mode, blocks):
    """The products summed one block of rows at a time equal, bit for bit,
    the same operations on whole padded arrays, for one pair and for two (the
    second as the padded addend of the first), including a last block shorter
    than the others."""
    grid = GridSpec(dim, n, mode)
    m = padded_size(grid, 2)
    rows = operators._BLOCK_SIZE // m ** (dim - 1)
    assert (0 < rows < m and m % rows != 0) == blocks
    fields = [band_limited(grid, dim, seed=110 + k).coeffs for k in range(4)]
    b = [padded_bundle(c, grid) for c in fields]
    u = [to_padded(c, grid, 2) for c in fields[:2]]
    alpha = 0.3
    one, two = (b[0], b[1]), (b[2], b[3])
    assert np.array_equal(extra_velocity_hat(one, alpha, grid),
                          whole_extra_velocity([one], alpha, grid))
    assert np.array_equal(coupling.director_transport_hat(one, alpha, grid),
                          whole_transport([one], alpha, grid))
    addend = coupling.extra_velocity_padded(two, alpha, grid)
    assert np.array_equal(extra_velocity_hat(one, alpha, grid, addend=addend),
                          whole_extra_velocity([one, two], alpha, grid))
    addend = coupling.director_transport_padded(two, alpha, grid)
    assert np.array_equal(coupling.director_transport_hat(one, alpha, grid, addend=addend),
                          whole_transport([one, two], alpha, grid))
    for pairs in ([(u[0], u[0])], [(u[0], u[1]), (u[1], u[0])]):
        assert np.array_equal(coupling.convective_hat(pairs, grid), whole_convective(pairs, grid))
