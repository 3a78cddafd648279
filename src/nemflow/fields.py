"""Periodic unit-torus grids, fields, and trigonometric transforms.

The solver works on the torus [0,1)^dim with n equispaced samples per axis.
Fourier coefficients are normalised so the k=0 coefficient equals the mean of
the samples.  Fields are real, so a spectrum is stored in numpy's rfftn half
layout (c, n, ..., n, n//2 + 1): fft order on every axis but the last, which
keeps only the wavenumbers 0..n/2, as a mode's mirror -k holds the conjugate
coefficient.  Full-spectrum sums therefore weight each column by its Parseval
weight: 2 for the columns that also stand for their mirrors, 1 for column 0
and the Nyquist column n/2, whose modes pair up within the column.  The
retained trigonometric space excludes the Nyquist slots (|k_j| = n/2):
derivatives of the unpaired Nyquist mode are ill-defined on an even grid, so
projections zero it and differential operators ignore it.

A field holds the representation it was built from, samples or half-layout
coefficients, and makes the other on first read.  The typed operators read
f.coeffs and return fields built from coefficients, and so does the solver
for its levels, mu and v: samples are synthesised only where snapshots and
pointwise statistics read them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

DEALIAS_MODES = ("none", "two_thirds", "exact")


class NonFiniteError(ValueError):
    """A field carries NaN or Inf samples."""


@dataclass(frozen=True)
class GridSpec:
    """Discretisation of the unit torus [0,1)^dim.

    n is the sample count per axis (even, >= 4, identical on every axis).
    The dealias mode picks the zero-padded grid of the dealiased products
    (operators.padded_size): n points for "none", 3n/2 for "two_thirds"
    (two-thirds rule), and for "exact" the smallest alias-free grid for each
    product's degree.
    """

    dim: int
    n: int
    dealias: str = "two_thirds"

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")
        if self.n < 4 or self.n % 2 != 0:
            raise ValueError(f"n must be even and >= 4, got {self.n}")
        if self.dealias not in DEALIAS_MODES:
            raise ValueError(f"dealias must be one of {DEALIAS_MODES}, got {self.dealias!r}")

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.dim

    @property
    def npoints(self) -> int:
        return self.n**self.dim

    def meshgrid(self) -> np.ndarray:
        """Coordinates of every sample, j/n along each axis, shape (dim, n, ..., n)."""
        x = np.arange(self.n) / self.n
        return np.stack(np.meshgrid(*([x] * self.dim), indexing="ij"))


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@lru_cache(maxsize=None)
def integer_modes(n: int) -> np.ndarray:
    """Integer wavenumbers in numpy fft order: 0..n/2-1, -n/2..-1."""
    return _freeze(np.fft.fftfreq(n, d=1.0 / n).astype(np.int64))


@lru_cache(maxsize=None)
def integer_wavevectors(grid: GridSpec) -> np.ndarray:
    """Integer wavenumber vectors on the half layout, shape
    (dim, n, ..., n, n//2 + 1); a Nyquist slot reads -n/2."""
    k1 = integer_modes(grid.n)
    axes = [k1] * (grid.dim - 1) + [k1[: grid.n // 2 + 1]]
    return _freeze(np.stack(np.meshgrid(*axes, indexing="ij")))


@lru_cache(maxsize=None)
def wavevectors(grid: GridSpec) -> np.ndarray:
    """Derivative wavenumber vectors: the integer ones with every Nyquist
    slot zeroed."""
    k = integer_wavevectors(grid).astype(np.float64)
    k[k == -(grid.n // 2)] = 0.0
    return _freeze(k)


@lru_cache(maxsize=None)
def laplace_symbol(grid: GridSpec) -> np.ndarray:
    """4 pi^2 |k|^2 per mode (Nyquist excluded), so -laplacian -> +symbol."""
    k = wavevectors(grid)
    return _freeze(4.0 * np.pi**2 * np.sum(k * k, axis=0))


class _Field:
    """A field on the grid, held as the real samples or the half-layout
    coefficients it was built from; the other representation is made on first
    read and cached.  Both arrays are read-only, so fields can be shared.

    The leading rank axes are components (then, for rank 2, dim); the
    trailing grid.dim axes are spatial.
    """

    rank = 1

    def __init__(self, grid: GridSpec, values: np.ndarray):
        self._hold(grid, "values", np.asarray(values, dtype=np.float64), grid.shape)

    @classmethod
    def from_coefficients(cls, grid: GridSpec, coeffs: np.ndarray):
        """The field with these half-layout coefficients, which it freezes
        and keeps."""
        field = cls.__new__(cls)
        half = grid.shape[:-1] + (grid.n // 2 + 1,)
        field._hold(grid, "coeffs", np.asarray(coeffs, dtype=np.complex128), half)
        return field

    def _hold(self, grid: GridSpec, name: str, a: np.ndarray, spatial: tuple[int, ...]) -> None:
        axes = (grid.dim,) * (self.rank - 1) + spatial  # all but the components axis
        if a.ndim != self.rank + grid.dim or a.shape[1:] != axes:
            raise ValueError(f"{type(self).__name__} {name} shape {a.shape} does not match {axes}")
        if not np.all(np.isfinite(a)):
            raise NonFiniteError(f"{type(self).__name__} {name} are not all finite")
        # the instance dict shadows the cached property of the same name
        vars(self).update(grid=grid, components=a.shape[0], **{name: _freeze(a)})

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    # fftn_norm/ifftn_norm are looked up at call time, so wrapping the module
    # globals sees every transform
    @cached_property
    def values(self) -> np.ndarray:
        return _freeze(ifftn_norm(self.coeffs, self.grid.dim))

    @cached_property
    def coeffs(self) -> np.ndarray:
        return _freeze(fftn_norm(self.values, self.grid.dim))


class VectorField(_Field):
    """Vector-valued field: values (components, n, ..., n), coeffs
    (components, n, ..., n, n//2 + 1).  A scalar field has components == 1."""

    @staticmethod
    def zeros(grid: GridSpec, components: int) -> "VectorField":
        return VectorField(grid, np.zeros((components, *grid.shape)))


class TensorField(_Field):
    """Matrix-valued field: values (components, dim, n, ..., n)."""

    rank = 2


def fftn_norm(values: np.ndarray, dim: int) -> np.ndarray:
    """Half-layout coefficients of real samples over the trailing dim axes,
    k=0 coefficient = mean."""
    return np.fft.rfftn(values, axes=tuple(range(-dim, 0)), norm="forward")


def ifftn_norm(coeffs: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of fftn_norm; returns real samples on the n-grid."""
    n = coeffs.shape[-2]
    return np.fft.irfftn(coeffs, s=(n,) * dim, axes=tuple(range(-dim, 0)), norm="forward")


def l2_inner(f: VectorField, g: VectorField) -> float:
    """Integral of f . g over the unit torus (mean of samples, volume 1).

    Equals the spectral (Parseval) sum exactly, which is the true L2 pairing
    for band-limited fields.
    """
    if f.grid != g.grid:
        raise ValueError("fields live on different grids")
    return float(np.sum(f.values * g.values) / f.grid.npoints)


def l2_norm(f: VectorField) -> float:
    return float(np.sqrt(max(l2_inner(f, f), 0.0)))


def parseval_sum(density: np.ndarray) -> float:
    """Full-spectrum sum of a real per-mode density given on the half layout
    (a mode and its mirror carry the same density): every column counts
    twice but column 0 and the Nyquist column, which count once."""
    return float(2.0 * np.sum(density) - np.sum(density[..., 0]) - np.sum(density[..., -1]))


def spectral_l2_norm(coeffs: np.ndarray) -> float:
    """L2 norm of the field represented by half-layout coefficients."""
    return float(np.sqrt(parseval_sum(np.abs(coeffs) ** 2)))
