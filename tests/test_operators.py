import itertools

import numpy as np
import pytest

from nemflow.fields import (
    GridSpec,
    VectorField,
    fftn_norm,
    ifftn_norm,
    integer_modes,
    laplace_symbol,
    wavevectors,
)
from nemflow.operators import (
    band_limit_hat,
    from_padded,
    grad_hat,
    leray_hat,
    max_mode_divergence,
    padded_gradient,
    padded_size,
    project_real,
    to_padded,
)
import oracle
from util import band_limited, l2_inner, nyquist_mask, solenoidal


@pytest.fixture
def grid():
    return GridSpec(2, 8, "exact")


def test_gradient_constant_is_zero(grid):
    f = VectorField(grid, np.full((2, 8, 8), 1.7))
    assert np.max(np.abs(ifftn_norm(grad_hat(f.coeffs, grid), 2))) < 1e-14


def test_gradient_single_mode_analytic(grid):
    x = grid.meshgrid()
    f = VectorField(grid, np.stack([np.sin(2 * np.pi * x[0]), np.zeros(grid.shape)]))
    g = ifftn_norm(grad_hat(f.coeffs, grid), 2)
    assert np.max(np.abs(g[0, 0] - 2 * np.pi * np.cos(2 * np.pi * x[0]))) < 1e-12
    assert np.max(np.abs(g[0, 1])) < 1e-12
    assert np.max(np.abs(g[1])) < 1e-12


def test_gradient_matches_dense_matrix(grid):
    f = band_limited(grid, 1, seed=3)
    g = ifftn_norm(grad_hat(f.coeffs, grid), 2)
    for j in range(grid.dim):
        mat = oracle.dense_operator_matrix(grid, f"gradient_{j + 1}")
        want = (mat @ f.values[0].ravel()).real.reshape(grid.shape)
        assert np.max(np.abs(g[0, j] - want)) < 1e-12


def test_divergence_of_gradient_is_laplacian(grid):
    x = grid.meshgrid()
    f = VectorField(grid, np.sin(2 * np.pi * x[0])[None])
    lhs = ifftn_norm(np.einsum("cjj...->c...", grad_hat(grad_hat(f.coeffs, grid), grid)), 2)
    want = -4 * np.pi**2 * np.sin(2 * np.pi * x[0])
    assert np.max(np.abs(lhs[0] - want)) < 1e-11


def test_divergence_matches_dense_matrix(grid):
    w = band_limited(grid, 2, seed=8)
    got = ifftn_norm(np.einsum("jj...->...", grad_hat(w.coeffs, grid)), 2).ravel()
    mat = oracle.dense_operator_matrix(grid, "divergence")
    assert np.max(np.abs(got - mat @ w.values.reshape(-1))) < 1e-12


def test_laplacian_examples(grid):
    lap = -laplace_symbol(grid)
    const = VectorField(grid, np.full((1, 8, 8), 2.0))
    assert np.max(np.abs(ifftn_norm(lap * const.coeffs, 2))) < 1e-13
    x = grid.meshgrid()
    f = VectorField(grid, np.sin(2 * np.pi * x[0])[None])
    assert np.max(np.abs(ifftn_norm(lap * f.coeffs, 2)[0] + 4 * np.pi**2 * f.values[0])) < 1e-11
    r = band_limited(grid, 2, seed=4)
    composed = ifftn_norm(np.einsum("cjj...->c...", grad_hat(grad_hat(r.coeffs, grid), grid)), 2)
    assert np.max(np.abs(ifftn_norm(lap * r.coeffs, 2) - composed)) < 1e-11


def test_sym_skew_parts(grid):
    # strain rate and vorticity tensor from the Jacobian (grad u)_{ij} = du_i/dx_j
    def sym_skew(u):
        g = ifftn_norm(grad_hat(u.coeffs, grid), 2)
        gt = np.swapaxes(g, 0, 1)
        return 0.5 * (g + gt), 0.5 * (g - gt)

    x = grid.meshgrid()
    # single-mode shear: u1 depends only on x2
    u = VectorField(grid, np.stack([np.sin(2 * np.pi * x[1]), np.zeros(grid.shape)]))
    du, wu = sym_skew(u)
    expect = np.pi * np.cos(2 * np.pi * x[1])
    assert np.max(np.abs(wu[0, 1] - expect)) < 1e-12
    assert np.max(np.abs(wu[1, 0] + expect)) < 1e-12
    assert np.max(np.abs(du[0, 1] - expect)) < 1e-12

    # rigid-rotation analogue: the linear part at the origin has Du = 0
    rot = VectorField(grid, np.stack([-np.sin(2 * np.pi * x[1]), np.sin(2 * np.pi * x[0])]))
    du_rot, _ = sym_skew(rot)
    assert np.max(np.abs(du_rot[:, :, 0, 0])) < 1e-12

    r = band_limited(grid, 2, seed=6)
    du_r, wu_r = sym_skew(r)
    assert np.max(np.abs(du_r + wu_r - ifftn_norm(grad_hat(r.coeffs, grid), 2))) < 1e-14


def test_leray_annihilates_gradients(grid):
    phi = band_limited(grid, 1, seed=11)
    gphi_hat = grad_hat(phi.coeffs, grid)[0]
    out = ifftn_norm(leray_hat(gphi_hat, grid), 2)
    gphi = ifftn_norm(gphi_hat, 2)
    assert np.max(np.abs(out)) < 1e-12 * max(np.max(np.abs(gphi)), 1.0)


def test_leray_fixes_solenoidal(grid):
    u = solenoidal(grid, seed=12)
    out = ifftn_norm(leray_hat(u.coeffs, grid), 2)
    assert np.max(np.abs(out - u.values)) < 1e-14


def test_leray_idempotent_and_divergence_free(grid):
    w = band_limited(grid, 2, seed=13)
    p1_hat = leray_hat(w.coeffs, grid)
    p1, p2 = ifftn_norm(p1_hat, 2), ifftn_norm(leray_hat(p1_hat, grid), 2)
    assert np.max(np.abs(p2 - p1)) < 1e-14
    coeffs = fftn_norm(p1, grid.dim)
    norm = np.sqrt(np.sum(np.abs(coeffs) ** 2))
    assert max_mode_divergence(coeffs, grid) <= 1e-12 * max(norm, 1e-30)
    # k=0 is pinned to zero spectrally; the sample round trip leaves round-off
    assert np.max(np.abs(coeffs[:, 0, 0])) < 1e-15 * (1.0 + norm)


def _product(factors, grid):
    """Pointwise product of fields through the padded path of the solver's
    products: pad each factor for the product degree, multiply, truncate."""
    prod = 1.0
    for f in factors:
        prod = prod * to_padded(fftn_norm(f.values, grid.dim), grid, len(factors))
    return VectorField(grid, ifftn_norm(from_padded(prod, grid), grid.dim))


def test_multiply_identity_with_constant_one(grid):
    one = VectorField(grid, np.ones((1, 8, 8)))
    f = band_limited(grid, 2, seed=14)
    out = _product([one, f], grid)
    assert np.max(np.abs(out.values - f.values)) < 1e-13


def test_multiply_cosine_square(grid):
    x = grid.meshgrid()
    f = VectorField(grid, np.cos(2 * np.pi * x[0])[None])
    out = _product([f, f], grid)
    want = 0.5 + 0.5 * np.cos(4 * np.pi * x[0])
    assert np.max(np.abs(out.values[0] - want)) < 1e-13


def test_multiply_quintic_matches_convolution_oracle(grid):
    # exact mode pads a degree-5 product to its alias-free grid as well
    factors = [band_limited(grid, 1, seed=20 + i) for i in range(5)]
    got = _product(factors, grid)

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


def test_operator_linearity(grid):
    f = band_limited(grid, 2, seed=30)
    g = band_limited(grid, 2, seed=31)
    a, b = 1.7, -0.4
    combo = VectorField(grid, a * f.values + b * g.values)
    for op in (lambda c: grad_hat(c, grid), lambda c: -laplace_symbol(grid) * c):
        lhs = ifftn_norm(op(combo.coeffs), 2)
        rhs = a * ifftn_norm(op(f.coeffs), 2) + b * ifftn_norm(op(g.coeffs), 2)
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(np.max(np.abs(rhs)), 1.0)


def test_integration_by_parts(grid):
    f = band_limited(grid, 1, seed=33)
    g = band_limited(grid, 1, seed=34)
    for j in range(grid.dim):
        dg = VectorField.from_coefficients(grid, grad_hat(g.coeffs, grid)[:, j])
        df = VectorField.from_coefficients(grid, grad_hat(f.coeffs, grid)[:, j])
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


def _mirror(coeffs, n, axes):
    """coeffs(-k) along the given fft-layout axes."""
    for ax in axes:
        coeffs = np.take(coeffs, (-np.arange(n)) % n, axis=ax)
    return coeffs


def _full_spectrum(half, n, dim):
    """fft-layout spectrum of a real field from its half layout: column n - j
    holds the conjugate of column j at the mirrored wavenumbers."""
    full = np.zeros(half.shape[:-1] + (n,), dtype=np.complex128)
    full[..., : n // 2 + 1] = half
    mirrored = _mirror(half, n, range(-dim, -1))
    full[..., n // 2 + 1:] = np.conj(mirrored[..., n // 2 - 1:0:-1])
    return full


PADDED_CASES = [
    (dim, mode, degree)
    for dim in (2, 3)
    for mode in ("none", "two_thirds", "exact")
    for degree in (2, 3, 4)
]


@pytest.mark.parametrize("dim,mode,degree", PADDED_CASES)
def test_to_padded_matches_dense_interpolant(dim, mode, degree):
    grid = GridSpec(dim, 8 if dim == 2 else 6, mode)
    m = padded_size(grid, degree)
    rng = np.random.default_rng(dim * 100 + m + degree)
    for lead in ((3,), (3, 3)):
        # coefficients of white noise carry Nyquist content on every axis
        coeffs = fftn_norm(rng.standard_normal(lead + grid.shape), dim)
        want = _dense_interpolant(_full_spectrum(coeffs, grid.n, dim), grid.n, m, dim)
        got = to_padded(coeffs, grid, degree)
        assert got.shape == lead + (m,) * dim
        assert np.max(np.abs(want.imag)) < 1e-13
        assert np.max(np.abs(got - want.real)) < 1e-13


@pytest.mark.parametrize("dim,mode,degree", PADDED_CASES)
def test_padded_round_trip_is_band_limit(dim, mode, degree):
    grid = GridSpec(dim, 8 if dim == 2 else 6, mode)
    rng = np.random.default_rng(dim + degree)
    coeffs = fftn_norm(rng.standard_normal((3, 3) + grid.shape), dim)
    back = from_padded(to_padded(coeffs, grid, degree), grid)
    assert np.max(np.abs(back - band_limit_hat(coeffs, grid))) < 1e-13


@pytest.mark.parametrize("dim,mode", [(d, m) for d in (2, 3) for m in ("none", "two_thirds", "exact")])
def test_from_padded_is_exactly_hermitian(dim, mode):
    grid = GridSpec(dim, 8 if dim == 2 else 6, mode)
    rng = np.random.default_rng(dim)
    samples = rng.standard_normal((3,) + (padded_size(grid, 4),) * dim)
    coeffs = from_padded(samples, grid)
    plane = coeffs[..., 0]  # the only plane of the half layout holding both k and -k
    assert np.array_equal(_mirror(plane, grid.n, range(1 - dim, 0)), np.conj(plane))
    assert np.all(coeffs[..., nyquist_mask(grid)] == 0.0)


def _full_pass_to_padded(coeffs, grid, m):
    """Reference: irfftn of the whole padded half spectrum (m, ..., m, m//2 + 1),
    the Nyquist coefficient split half-and-half onto slots +-n/2 when m > n."""
    n, dim = grid.n, grid.dim
    half = coeffs
    for axis in range(-1, -dim - 1, -1):
        c = np.moveaxis(half, axis, 0)
        out = np.zeros((m // 2 + 1 if axis == -1 else m,) + c.shape[1:], dtype=np.complex128)
        for j, k in enumerate(integer_modes(n)[: c.shape[0]]):
            if abs(k) == n // 2 and m > n:
                for slot in (n // 2, m - n // 2):
                    if slot < out.shape[0]:
                        out[slot] = 0.5 * c[j]
            elif k % m < out.shape[0]:
                out[k % m] = c[j]
        half = np.moveaxis(out, 0, axis)
    return np.fft.irfftn(half, s=(m,) * dim, axes=tuple(range(-dim, 0)), norm="forward")


def _full_pass_from_padded(samples, grid):
    """Reference: rfftn of the padded samples, then a gather of the retained
    modes of the half layout, reading a mode whose last non-zero wavenumber
    is negative as the conjugate of its mirror and the k = 0 mode as real."""
    n, dim, m = grid.n, grid.dim, samples.shape[-1]
    half = np.fft.rfftn(samples, axes=tuple(range(-dim, 0)), norm="forward")
    out = np.zeros(samples.shape[:-dim] + grid.shape[:-1] + (n // 2 + 1,), dtype=np.complex128)
    retained = [range(-(n // 2) + 1, n // 2)] * (dim - 1) + [range(0, n // 2)]
    for k in itertools.product(*retained):
        nonzero = [kj for kj in k if kj != 0]
        flip = bool(nonzero) and nonzero[-1] < 0
        value = half[(Ellipsis,) + tuple((-kj if flip else kj) % m for kj in k)]
        if not nonzero:
            value = value.real
        out[(Ellipsis,) + tuple(kj % n for kj in k)] = np.conj(value) if flip else value
    return out


@pytest.mark.parametrize("dim,mode,degree", PADDED_CASES)
def test_pruned_transforms_equal_full_pass_bitwise(dim, mode, degree):
    grid = GridSpec(dim, 8 if dim == 2 else 6, mode)
    m = padded_size(grid, degree)
    rng = np.random.default_rng(dim * 1000 + m + degree)
    for lead in ((3,), (3, 3)):
        coeffs = fftn_norm(rng.standard_normal(lead + grid.shape), dim)
        kept = coeffs.copy()
        assert np.array_equal(to_padded(coeffs, grid, degree), _full_pass_to_padded(coeffs, grid, m))
        assert np.array_equal(coeffs, kept)

        samples = rng.standard_normal(lead + (m,) * dim)
        kept = samples.copy()
        assert np.array_equal(from_padded(samples, grid), _full_pass_from_padded(samples, grid))
        assert np.array_equal(samples, kept)


# grids on which every slice block (low rows, high rows, Nyquist rows, mirrors)
# is non-empty and distinct from the others
SLICE_CASES = [(dim, n, mode, degree) for dim, n in ((2, 16), (3, 8))
               for mode in ("none", "two_thirds", "exact") for degree in (2, 3, 4)]


@pytest.mark.parametrize("dim,n,mode,degree", SLICE_CASES)
def test_slice_copies_equal_full_pass_bitwise(dim, n, mode, degree):
    grid = GridSpec(dim, n, mode)
    m = padded_size(grid, degree)
    rng = np.random.default_rng(dim * 1000 + n + m + degree)
    for lead in ((), (3,), (3, 3)):
        # coefficients of white noise carry Nyquist content on every axis
        coeffs = fftn_norm(rng.standard_normal(lead + grid.shape), dim)
        got, want = to_padded(coeffs, grid, degree), _full_pass_to_padded(coeffs, grid, m)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        samples = rng.standard_normal(lead + (m,) * dim)
        # byte comparison: zeros must match in sign too
        got, want = from_padded(samples, grid), _full_pass_from_padded(samples, grid)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _full_width_from_padded(samples, grid):
    """Reference: from_padded with the rfft of the whole array, full width,
    sliced to its n/2 retained columns, and the axis -2 transform out of
    place."""
    n, dim, m = grid.n, grid.dim, samples.shape[-1]
    blocks = ((slice(0, n // 2),) * 2, (slice(n // 2 + 1, n), slice(m - n // 2 + 1, m)))
    half = np.fft.rfft(samples, axis=-1, norm="forward")[..., : n // 2]
    half = np.fft.fft(half, axis=-2, norm="forward")
    if dim == 3:
        for _, r in blocks:
            block = half[..., r, :]
            np.fft.fft(block, axis=-3, norm="forward", out=block)
    out = np.zeros(samples.shape[:-dim] + grid.shape[:-1] + (n // 2 + 1,), dtype=np.complex128)
    for pairs in itertools.product(blocks, repeat=dim - 1):
        dst, src = zip(*pairs)
        out[(Ellipsis,) + dst + (slice(0, n // 2),)] = half[(Ellipsis,) + src + (slice(None),)]
    return project_real(out, dim)


# padded grids whose rows split into several blocks, some with a shorter last
# block, except in "none" mode, where one block holds the whole n-grid
@pytest.mark.parametrize("dim,n,mode,degree", [
    (dim, n, mode, degree) for dim, n in ((2, 64), (3, 16))
    for mode in ("none", "two_thirds", "exact") for degree in (2, 3, 4)])
def test_row_block_truncation_equals_full_width_rfft_bitwise(dim, n, mode, degree):
    """from_padded, which transforms one block of rows at a time and keeps
    only the retained columns of each block's spectrum, gives the bytes of
    the full-width rfft formula, with and without leading axes."""
    grid = GridSpec(dim, n, mode)
    m = padded_size(grid, degree)
    rng = np.random.default_rng(dim * 1000 + n + m + degree)
    for lead in ((), (3,), (2, 3)):
        samples = rng.standard_normal(lead + (m,) * dim)
        kept = samples.copy()
        got, want = from_padded(samples, grid), _full_width_from_padded(samples, grid)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert np.array_equal(samples, kept)


def _padded_gradient_reference(coeffs, grid):
    """The gradient in coefficient space, then padded as one array."""
    return to_padded(grad_hat(coeffs, grid), grid, 2)


@pytest.mark.parametrize("dim,mode", [(d, m) for d in (2, 3) for m in ("none", "two_thirds", "exact")])
def test_padded_gradient_per_direction_equals_whole_gradient_bitwise(dim, mode):
    """Padding each direction into its slot of the output (a strided irfft
    out) gives the samples of padding the whole coefficient gradient."""
    grid = GridSpec(dim, 16 if dim == 2 else 8, mode)
    rng = np.random.default_rng(dim * 10 + len(mode))
    for lead in ((1,), (dim,)):
        # white noise: Nyquist content on every axis, halved on the padded grid
        coeffs = fftn_norm(rng.standard_normal(lead + grid.shape), dim)
        kept = coeffs.copy()
        got, want = padded_gradient(coeffs, grid), _padded_gradient_reference(coeffs, grid)
        assert got.shape == want.shape == lead + (dim,) + (padded_size(grid, 2),) * dim
        assert np.array_equal(got, want) and got.tobytes() == want.tobytes()
        assert np.array_equal(coeffs, kept)


@pytest.mark.parametrize("dim,n", [(2, 6), (2, 16), (3, 8)])
def test_band_limit_and_leray_equal_mask_formulas_bitwise(dim, n):
    grid = GridSpec(dim, n)
    mask = nyquist_mask(grid)
    rng = np.random.default_rng(dim + n)
    for lead in ((), (3,), (3, 3)):
        coeffs = fftn_norm(rng.standard_normal(lead + grid.shape), dim)
        kept = coeffs.copy()
        want = coeffs.copy()
        want[..., mask] = 0.0
        assert np.array_equal(band_limit_hat(coeffs, grid), want)
        assert np.array_equal(coeffs, kept)

    coeffs = fftn_norm(rng.standard_normal((dim,) + grid.shape), dim)
    kept = coeffs.copy()
    k = wavevectors(grid)
    k2 = np.sum(k * k, axis=0)
    want = coeffs - k * (np.sum(k * coeffs, axis=0) / np.where(k2 == 0.0, 1.0, k2))
    want[(slice(None),) + (0,) * dim] = 0.0
    want[..., mask] = 0.0
    assert np.array_equal(leray_hat(coeffs, grid), want)
    assert np.array_equal(coeffs, kept)
