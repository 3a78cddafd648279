import numpy as np
import pytest

from nemflow import fields
from nemflow.fields import (
    GridSpec,
    NonFiniteError,
    VectorField,
    fftn_norm,
    ifftn_norm,
    parseval_sum,
    spectral_l2_norm,
)
from nemflow.operators import padded_size
from util import band_limited, l2_inner


def test_grid_validation():
    GridSpec(2, 8)
    with pytest.raises(ValueError, match="even"):
        GridSpec(2, 7)
    with pytest.raises(ValueError, match="even"):
        GridSpec(2, 2)
    with pytest.raises(ValueError, match="dim"):
        GridSpec(4, 8)
    with pytest.raises(ValueError, match="dealias"):
        GridSpec(2, 8, "three_halves")


def test_padded_sizes_per_mode():
    def sizes(n, mode):
        return [padded_size(GridSpec(2, n, mode), degree) for degree in (2, 3, 4)]

    assert sizes(8, "none") == [8, 8, 8]
    assert sizes(8, "two_thirds") == [12, 12, 12]
    assert sizes(16, "none") == [16, 16, 16]
    assert sizes(16, "two_thirds") == [24, 24, 24]
    # exact: the smallest multiple of n/2 with degree (n/2 - 1) + n/2 points
    assert sizes(16, "exact") == [24, 32, 40]
    assert sizes(8, "exact") == [12, 16, 16]
    assert sizes(6, "exact") == [9, 9, 12]
    assert sizes(4, "exact") == [4, 6, 6]


def test_vector_field_validation():
    grid = GridSpec(2, 8)
    with pytest.raises(NonFiniteError):
        VectorField(grid, np.full((1, 8, 8), np.nan))
    with pytest.raises(ValueError, match="shape"):
        VectorField(grid, np.zeros((1, 8, 4)))


def test_each_representation_is_the_transform_of_the_other():
    """A field built from samples holds fftn_norm of them, and the samples of
    a field built from coefficients are ifftn_norm of them, bit for bit."""
    grid = GridSpec(2, 8)
    rng = np.random.default_rng(3)
    samples = rng.normal(size=(3,) + grid.shape)
    f = VectorField(grid, samples)
    assert np.array_equal(f.coeffs, fftn_norm(samples, grid.dim))
    coeffs = fftn_norm(rng.normal(size=(3,) + grid.shape), grid.dim)
    g = VectorField.from_coefficients(grid, coeffs)
    assert np.array_equal(g.values, ifftn_norm(coeffs, grid.dim))


def test_a_field_holds_only_its_coefficients():
    """Whichever constructor made it, a field holds its grid, its component
    count and its read-only coefficients, and nothing else: its samples are
    ifftn_norm of the coefficients, made on each read and never kept."""
    grid = GridSpec(2, 8)
    samples = np.random.default_rng(4).normal(size=(2, 8, 8))
    for f in (VectorField(grid, samples),
              VectorField.from_coefficients(grid, fftn_norm(samples, grid.dim))):
        assert sorted(vars(f)) == ["coeffs", "components", "grid"]
        assert f.grid == grid and f.components == 2
        with pytest.raises(ValueError):
            f.coeffs[0, 0, 0] = 1.0
        assert np.array_equal(f.values, ifftn_norm(f.coeffs, grid.dim))
        assert sorted(vars(f)) == ["coeffs", "components", "grid"]
        with pytest.raises(AttributeError):
            f.values = samples


def test_coefficient_validation():
    grid = GridSpec(2, 8)
    coeffs = np.zeros((2, 8, 5), dtype=np.complex128)
    VectorField.from_coefficients(grid, coeffs)
    bad = coeffs.copy()
    bad[0, 1, 1] = np.inf
    with pytest.raises(NonFiniteError):
        VectorField.from_coefficients(grid, bad)
    bad[0, 1, 1] = complex(0.0, np.nan)
    with pytest.raises(NonFiniteError):
        VectorField.from_coefficients(grid, bad)
    with pytest.raises(ValueError, match="shape"):
        VectorField.from_coefficients(grid, np.zeros((2, 8, 8), dtype=np.complex128))
    with pytest.raises(ValueError, match="shape"):
        VectorField.from_coefficients(grid, np.zeros((8, 5), dtype=np.complex128))


def test_components_of_coefficient_field_makes_no_transform(monkeypatch):
    def forbidden(*args):
        raise AssertionError("transform called")

    monkeypatch.setattr(fields, "fftn_norm", forbidden)
    monkeypatch.setattr(fields, "ifftn_norm", forbidden)
    grid = GridSpec(3, 8)
    f = VectorField.from_coefficients(grid, np.zeros((3, 8, 8, 5), dtype=np.complex128))
    assert f.components == 3
    assert f.grid == grid


def test_constant_field_transforms_to_mean():
    grid = GridSpec(2, 8)
    f = VectorField(grid, np.full((1, 8, 8), 3.25))
    coeffs = fftn_norm(f.values, grid.dim)
    assert coeffs[0, 0, 0] == pytest.approx(3.25, abs=1e-14)
    coeffs_rest = coeffs.copy()
    coeffs_rest[0, 0, 0] = 0.0
    assert np.max(np.abs(coeffs_rest)) < 1e-14


def test_cosine_mode_coefficients():
    grid = GridSpec(2, 8)
    x = grid.meshgrid()
    f = VectorField(grid, np.cos(2 * np.pi * x[0])[None])
    coeffs = fftn_norm(f.values, grid.dim)
    assert coeffs[0, 1, 0] == pytest.approx(0.5, abs=1e-14)
    assert coeffs[0, -1, 0] == pytest.approx(0.5, abs=1e-14)
    zeroed = coeffs.copy()
    zeroed[0, 1, 0] = zeroed[0, -1, 0] = 0.0
    assert np.max(np.abs(zeroed)) < 1e-14


def test_roundtrip_matches_direct_dft_sum():
    """inverse(forward(f)) reproduces f; forward agrees with the explicit
    DFT sum evaluated without any fft code."""
    grid = GridSpec(2, 8)
    rng = np.random.default_rng(42)
    f = VectorField(grid, rng.normal(size=(2, 8, 8)))
    coeffs = fftn_norm(f.values, grid.dim)
    back = ifftn_norm(coeffs, grid.dim)
    assert np.max(np.abs(back - f.values)) < 1e-12 * np.max(np.abs(f.values))

    k = np.fft.fftfreq(8, 1 / 8).astype(int)
    x = np.arange(8) / 8.0
    for ki in (0, 3, -2):
        for kj in (1, -4):
            phase = np.exp(-2j * np.pi * (ki * x[:, None] + kj * x[None, :]))
            direct = np.sum(f.values[0] * phase) / 64
            i = list(k).index(ki)
            j = list(k).index(kj)
            assert coeffs[0, i, j] == pytest.approx(direct, abs=1e-13)


@pytest.mark.parametrize("dim,n", [(2, 8), (3, 8)])
def test_parseval(dim, n):
    grid = GridSpec(dim, n)
    f = band_limited(grid, 2, seed=5)
    coeffs = fftn_norm(f.values, dim)
    # the half layout's Parseval sum equals the full spectrum's plain sum
    full = np.fft.fftn(f.values, axes=tuple(range(-dim, 0))) / n**dim
    spectral = parseval_sum(np.abs(coeffs) ** 2)
    real = l2_inner(f, f)
    assert spectral == pytest.approx(float(np.sum(np.abs(full) ** 2)), rel=1e-12)
    assert real == pytest.approx(spectral, rel=1e-12)
    assert spectral_l2_norm(coeffs) ** 2 == pytest.approx(real, rel=1e-12)
