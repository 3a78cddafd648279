import numpy as np
import pytest

from nemflow import oracle
from nemflow.fields import (
    GridSpec,
    VectorField,
    fftn_norm,
    forward_transform,
    integer_modes,
    l2_inner,
    nyquist_mask,
)
from nemflow.operators import (
    band_limit_hat,
    divergence,
    from_padded,
    gradient,
    laplacian,
    leray_project,
    max_mode_divergence,
    multiply_dealiased,
    padded_size,
    sym_skew_gradient,
    to_padded,
)
from util import band_limited, solenoidal


@pytest.fixture
def grid():
    return GridSpec(2, 8, "exact")


def test_gradient_constant_is_zero(grid):
    f = VectorField(grid, np.full((2, 8, 8), 1.7))
    assert np.max(np.abs(gradient(f).values)) < 1e-14


def test_gradient_single_mode_analytic(grid):
    x = grid.meshgrid()
    f = VectorField(grid, np.stack([np.sin(2 * np.pi * x[0]), np.zeros(grid.shape)]))
    g = gradient(f).values
    assert np.max(np.abs(g[0, 0] - 2 * np.pi * np.cos(2 * np.pi * x[0]))) < 1e-12
    assert np.max(np.abs(g[0, 1])) < 1e-12
    assert np.max(np.abs(g[1])) < 1e-12


def test_gradient_matches_dense_matrix(grid):
    f = band_limited(grid, 1, seed=3)
    g = gradient(f).values
    for j in range(grid.dim):
        mat = oracle.dense_operator_matrix(grid, f"gradient_{j + 1}")
        want = (mat @ f.values[0].ravel()).real.reshape(grid.shape)
        assert np.max(np.abs(g[0, j] - want)) < 1e-12


def test_divergence_constant_tensor_zero(grid):
    from nemflow.fields import TensorField
    from nemflow.operators import divergence as div

    m = TensorField(grid, np.ones((2, 2, 8, 8)))
    assert np.max(np.abs(div(m).values)) < 1e-14


def test_divergence_of_gradient_is_laplacian(grid):
    x = grid.meshgrid()
    f = VectorField(grid, np.sin(2 * np.pi * x[0])[None])
    lhs = divergence(gradient(f)).values
    want = -4 * np.pi**2 * np.sin(2 * np.pi * x[0])
    assert np.max(np.abs(lhs[0] - want)) < 1e-11


def test_divergence_matches_dense_matrix(grid):
    w = band_limited(grid, 2, seed=8)
    got = divergence(w).values[0].ravel()
    mat = oracle.dense_operator_matrix(grid, "divergence")
    assert np.max(np.abs(got - mat @ w.values.reshape(-1))) < 1e-12


def test_laplacian_examples(grid):
    const = VectorField(grid, np.full((1, 8, 8), 2.0))
    assert np.max(np.abs(laplacian(const).values)) < 1e-13
    x = grid.meshgrid()
    f = VectorField(grid, np.sin(2 * np.pi * x[0])[None])
    assert np.max(np.abs(laplacian(f).values[0] + 4 * np.pi**2 * f.values[0])) < 1e-11
    r = band_limited(grid, 2, seed=4)
    composed = divergence(gradient(r)).values
    assert np.max(np.abs(laplacian(r).values - composed)) < 1e-11


def test_sym_skew_parts(grid):
    x = grid.meshgrid()
    # single-mode shear: u1 depends only on x2
    u = VectorField(grid, np.stack([np.sin(2 * np.pi * x[1]), np.zeros(grid.shape)]))
    du, wu = sym_skew_gradient(u)
    expect = np.pi * np.cos(2 * np.pi * x[1])
    assert np.max(np.abs(wu.values[0, 1] - expect)) < 1e-12
    assert np.max(np.abs(wu.values[1, 0] + expect)) < 1e-12
    assert np.max(np.abs(du.values[0, 1] - expect)) < 1e-12

    # rigid-rotation analogue: the linear part at the origin has Du = 0
    rot = VectorField(grid, np.stack([-np.sin(2 * np.pi * x[1]), np.sin(2 * np.pi * x[0])]))
    du_rot, _ = sym_skew_gradient(rot)
    assert np.max(np.abs(du_rot.values[:, :, 0, 0])) < 1e-12

    r = band_limited(grid, 2, seed=6)
    du_r, wu_r = sym_skew_gradient(r)
    total = du_r.values + wu_r.values
    assert np.max(np.abs(total - gradient(r).values)) < 1e-14


def test_leray_annihilates_gradients(grid):
    phi = band_limited(grid, 1, seed=11)
    gphi = gradient(phi).values[0]
    out = leray_project(VectorField(grid, gphi))
    assert np.max(np.abs(out.values)) < 1e-12 * max(np.max(np.abs(gphi)), 1.0)


def test_leray_fixes_solenoidal(grid):
    u = solenoidal(grid, seed=12)
    out = leray_project(u)
    assert np.max(np.abs(out.values - u.values)) < 1e-14


def test_leray_idempotent_and_divergence_free(grid):
    w = band_limited(grid, 2, seed=13)
    p1 = leray_project(w)
    p2 = leray_project(p1)
    assert np.max(np.abs(p2.values - p1.values)) < 1e-14
    coeffs = forward_transform(p1).coeffs
    norm = np.sqrt(np.sum(np.abs(coeffs) ** 2))
    assert max_mode_divergence(coeffs, grid) <= 1e-12 * max(norm, 1e-30)
    # k=0 is pinned to zero spectrally; the sample round trip leaves round-off
    assert np.max(np.abs(coeffs[:, 0, 0])) < 1e-15 * (1.0 + norm)


def test_multiply_identity_with_constant_one(grid):
    one = VectorField(grid, np.ones((1, 8, 8)))
    f = band_limited(grid, 2, seed=14)
    out = multiply_dealiased([one, f])
    assert np.max(np.abs(out.values - f.values)) < 1e-13


def test_multiply_cosine_square(grid):
    x = grid.meshgrid()
    f = VectorField(grid, np.cos(2 * np.pi * x[0])[None])
    out = multiply_dealiased([f, f], grid)
    want = 0.5 + 0.5 * np.cos(4 * np.pi * x[0])
    assert np.max(np.abs(out.values[0] - want)) < 1e-13


def test_multiply_quintic_matches_convolution_oracle(grid):
    factors = [band_limited(grid, 1, seed=20 + i) for i in range(5)]
    got = multiply_dealiased(factors, grid)

    modes = oracle.retained_modes(grid)
    fine_pts = oracle._points(32, 2)
    syn_fine = oracle._synthesis(modes, fine_pts)
    ana_fine = oracle._analysis(modes, fine_pts)
    syn_grid = oracle._synthesis(modes, oracle._points(8, 2))
    prod = np.ones(fine_pts.shape[0])
    for f in factors:
        coeffs = oracle._coefficients(grid, f.values)
        prod = prod * (coeffs @ syn_fine.T).real[0]
    projected = (prod @ ana_fine.T) @ syn_grid.T
    assert np.max(np.abs(got.values[0].ravel() - projected.real)) < 1e-12


def test_multiply_argument_validation(grid):
    f = band_limited(grid, 1, seed=1)
    with pytest.raises(ValueError, match="2 to 5"):
        multiply_dealiased([f])
    with pytest.raises(ValueError, match="2 to 5"):
        multiply_dealiased([f] * 6)
    g3 = GridSpec(2, 8, "two_thirds")
    h = band_limited(g3, 1, seed=2)
    # two_thirds mode makes no exactness promise, so degree 5 is accepted
    multiply_dealiased([h] * 5, g3)


def test_operator_linearity(grid):
    f = band_limited(grid, 2, seed=30)
    g = band_limited(grid, 2, seed=31)
    a, b = 1.7, -0.4
    combo = VectorField(grid, a * f.values + b * g.values)
    for op in (gradient, laplacian):
        lhs = op(combo).values
        rhs = a * op(f).values + b * op(g).values
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(np.max(np.abs(rhs)), 1.0)


def test_integration_by_parts(grid):
    f = band_limited(grid, 1, seed=33)
    g = band_limited(grid, 1, seed=34)
    for j in range(grid.dim):
        dg = VectorField(grid, gradient(g).values[:, j])
        df = VectorField(grid, gradient(f).values[:, j])
        lhs = l2_inner(f, dg)
        rhs = -l2_inner(df, g)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def _dense_interpolant(coeffs, n, m, dim):
    """Symmetric trigonometric interpolant of fft-ordered coefficients,
    summed directly at the m^dim padded points; the Nyquist mode is a cosine."""
    x = np.arange(m) / m
    basis = np.exp(2j * np.pi * np.outer(x, integer_modes(n)))
    basis[:, n // 2] = np.cos(np.pi * n * x)
    out = coeffs
    for ax in range(-dim, 0):
        out = np.moveaxis(np.tensordot(out, basis, axes=([ax], [1])), -1, ax)
    return out


def _mirror(coeffs, grid):
    """coeffs(-k) in fft layout."""
    out = coeffs
    for ax in range(-grid.dim, 0):
        out = np.take(out, (-np.arange(grid.n)) % grid.n, axis=ax)
    return out


PADDED_CASES = [
    (dim, mode, degree)
    for dim in (2, 3)
    for mode in ("none", "two_thirds", "exact")
    for degree in (None, 2, 3, 4)
]


@pytest.mark.parametrize("dim,mode,degree", PADDED_CASES)
def test_to_padded_matches_dense_interpolant(dim, mode, degree):
    grid = GridSpec(dim, 8 if dim == 2 else 6, mode)
    m = padded_size(grid, degree)
    rng = np.random.default_rng(dim * 100 + m + (degree or 0))
    for lead in ((3,), (3, 3)):
        # coefficients of white noise carry Nyquist content on every axis
        coeffs = fftn_norm(rng.standard_normal(lead + grid.shape), dim)
        want = _dense_interpolant(coeffs, grid.n, m, dim)
        got = to_padded(coeffs, grid, degree)
        assert got.shape == lead + (m,) * dim
        assert np.max(np.abs(want.imag)) < 1e-13
        assert np.max(np.abs(got - want.real)) < 1e-13


@pytest.mark.parametrize("dim,mode,degree", PADDED_CASES)
def test_padded_round_trip_is_band_limit(dim, mode, degree):
    grid = GridSpec(dim, 8 if dim == 2 else 6, mode)
    rng = np.random.default_rng(dim + (degree or 0))
    coeffs = fftn_norm(rng.standard_normal((3, 3) + grid.shape), dim)
    back = from_padded(to_padded(coeffs, grid, degree), grid)
    assert np.max(np.abs(back - band_limit_hat(coeffs, grid))) < 1e-13


@pytest.mark.parametrize("dim,mode", [(d, m) for d in (2, 3) for m in ("none", "two_thirds", "exact")])
def test_from_padded_is_exactly_hermitian(dim, mode):
    grid = GridSpec(dim, 8 if dim == 2 else 6, mode)
    rng = np.random.default_rng(dim)
    samples = rng.standard_normal((3,) + (grid.padded_n,) * dim)
    coeffs = from_padded(samples, grid)
    assert np.array_equal(_mirror(coeffs, grid), np.conj(coeffs))
    assert np.all(coeffs[..., nyquist_mask(grid)] == 0.0)
