"""Periodic unit-torus grids, sampled fields, and trigonometric transforms.

The solver works on the torus [0,1)^dim with n equispaced samples per axis.
Fourier coefficients are normalised so the k=0 coefficient equals the mean of
the samples; all mode bookkeeping uses numpy's fft layout.  The retained
trigonometric space excludes the Nyquist column (|k_j| = n/2): derivatives of
the unpaired Nyquist mode are ill-defined on an even grid, so projections zero
it and differential operators ignore it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

DEALIAS_MODES = ("none", "two_thirds", "exact")

_DEFAULT_PADDING = {
    "none": Fraction(1),
    "two_thirds": Fraction(3, 2),
    "exact": Fraction(3),
}

_ALLOWED_PADDING = (Fraction(1), Fraction(3, 2), Fraction(3))


class NonFiniteError(ValueError):
    """A field carries NaN or Inf samples."""


@dataclass(frozen=True)
class GridSpec:
    """Discretisation of the unit torus [0,1)^dim.

    n is the sample count per axis (even, >= 4, identical on every axis).
    padding_factor sets the zero-padded grid used for dealiased products:
    1 (no dealiasing), 3/2 (two-thirds rule), 3 (exact for quintic products).
    """

    dim: int
    n: int
    dealias: str = "two_thirds"
    padding_factor: Fraction | None = None

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")
        if self.n < 4 or self.n % 2 != 0:
            raise ValueError(f"n must be even and >= 4, got {self.n}")
        if self.dealias not in DEALIAS_MODES:
            raise ValueError(f"dealias must be one of {DEALIAS_MODES}, got {self.dealias!r}")
        pad = self.padding_factor
        if pad is None:
            pad = _DEFAULT_PADDING[self.dealias]
        else:
            pad = Fraction(pad)
        if pad not in _ALLOWED_PADDING:
            raise ValueError("padding_factor must be one of 1, 3/2, 3")
        if pad < _DEFAULT_PADDING[self.dealias]:
            raise ValueError(
                f"padding_factor {pad} insufficient for dealias mode {self.dealias!r}"
            )
        object.__setattr__(self, "padding_factor", pad)

    @property
    def padded_n(self) -> int:
        m = self.n * self.padding_factor
        return int(m)

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.dim

    @property
    def npoints(self) -> int:
        return self.n**self.dim

    def axes_points(self) -> np.ndarray:
        """Sample coordinates along one axis: j/n for j = 0..n-1."""
        return np.arange(self.n) / self.n

    def meshgrid(self) -> np.ndarray:
        """Coordinates of every sample, shape (dim, n, ..., n)."""
        x = self.axes_points()
        return np.stack(np.meshgrid(*([x] * self.dim), indexing="ij"))


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@lru_cache(maxsize=None)
def integer_modes(n: int) -> np.ndarray:
    """Integer wavenumbers in numpy fft order: 0..n/2-1, -n/2..-1."""
    return _freeze(np.fft.fftfreq(n, d=1.0 / n).astype(np.int64))


@lru_cache(maxsize=None)
def deriv_modes(n: int) -> np.ndarray:
    """Wavenumbers used for differentiation; the Nyquist slot is zeroed."""
    k = integer_modes(n).astype(np.float64).copy()
    k[n // 2] = 0.0
    return _freeze(k)


@lru_cache(maxsize=None)
def wavevectors(grid: GridSpec) -> np.ndarray:
    """Derivative wavenumber vectors, shape (dim, n, ..., n)."""
    k1 = deriv_modes(grid.n)
    return _freeze(np.stack(np.meshgrid(*([k1] * grid.dim), indexing="ij")))


@lru_cache(maxsize=None)
def laplace_symbol(grid: GridSpec) -> np.ndarray:
    """4 pi^2 |k|^2 per mode (Nyquist excluded), so -laplacian -> +symbol."""
    k = wavevectors(grid)
    return _freeze(4.0 * np.pi**2 * np.sum(k * k, axis=0))


@lru_cache(maxsize=None)
def nyquist_mask(grid: GridSpec) -> np.ndarray:
    """Boolean mask, True where any axis index sits on the Nyquist slot."""
    idx = np.abs(integer_modes(grid.n))
    mask = np.zeros(grid.shape, dtype=bool)
    for axis in range(grid.dim):
        shape = [1] * grid.dim
        shape[axis] = grid.n
        mask |= idx.reshape(shape) == grid.n // 2
    return _freeze(mask)


def _validate_samples(grid: GridSpec, values: np.ndarray, rank: int, what: str) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != rank + grid.dim or values.shape[-grid.dim:] != grid.shape:
        raise ValueError(f"{what} shape {values.shape} does not match grid {grid.shape}")
    if not np.all(np.isfinite(values)):
        raise NonFiniteError(f"{what} contains non-finite samples")
    return _freeze(values)


@dataclass(frozen=True)
class VectorField:
    """Sampled vector-valued field; values has shape (components, n, ..., n).

    A scalar field is represented with components == 1.  Arrays are frozen
    (read-only) on construction so fields can be shared across workers.
    """

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _validate_samples(self.grid, self.values, 1, "VectorField"))

    @property
    def components(self) -> int:
        return self.values.shape[0]

    @staticmethod
    def zeros(grid: GridSpec, components: int) -> "VectorField":
        return VectorField(grid, np.zeros((components, *grid.shape)))


@dataclass(frozen=True)
class TensorField:
    """Sampled matrix-valued field; values has shape (components, dim, n, ..., n)."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _validate_samples(self.grid, self.values, 2, "TensorField"))
        if self.values.shape[1] != self.grid.dim:
            raise ValueError("TensorField second axis must equal grid.dim")

    @property
    def components(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class SpectralField:
    """Fourier coefficients of a real field, numpy fft layout per axis.

    Coefficients are normalised amplitudes: coeffs[..., 0, 0] is the mean.
    Conjugate symmetry is implied by construction from real samples and is not
    re-checked here; inverse_transform takes the real part.
    """

    grid: GridSpec
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.ndim != 1 + self.grid.dim or c.shape[-self.grid.dim:] != self.grid.shape:
            raise ValueError(f"SpectralField shape {c.shape} does not match grid {self.grid.shape}")
        if not np.all(np.isfinite(c)):
            raise NonFiniteError("SpectralField contains non-finite coefficients")
        object.__setattr__(self, "coeffs", _freeze(c))

    @property
    def components(self) -> int:
        return self.coeffs.shape[0]


def fftn_norm(values: np.ndarray, dim: int) -> np.ndarray:
    """Forward transform over the trailing dim axes, k=0 coefficient = mean."""
    axes = tuple(range(-dim, 0))
    npts = 1
    for ax in axes:
        npts *= values.shape[ax]
    return np.fft.fftn(values, axes=axes) / npts


def ifftn_norm(coeffs: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of fftn_norm; returns real samples."""
    axes = tuple(range(-dim, 0))
    npts = 1
    for ax in axes:
        npts *= coeffs.shape[ax]
    return np.fft.ifftn(coeffs * npts, axes=axes).real


def forward_transform(f: VectorField) -> SpectralField:
    """Discrete Fourier coefficients of a sampled field (k=0 slot = mean)."""
    return SpectralField(f.grid, fftn_norm(f.values, f.grid.dim))


def inverse_transform(F: SpectralField) -> VectorField:
    return VectorField(F.grid, ifftn_norm(F.coeffs, F.grid.dim))


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


def spectral_l2_norm(coeffs: np.ndarray) -> float:
    """L2 norm of the field represented by normalised coefficients."""
    return float(np.sqrt(np.sum(np.abs(coeffs) ** 2)))
