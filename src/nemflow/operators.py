"""Exact spectral differential operators, Leray projection, dealiased products.

All differentiation happens in coefficient space on the trigonometric
interpolant, so gradients, divergences and Laplacians are exact for resolved
modes.  Nonlinear terms are evaluated pointwise on a zero-padded grid and
truncated back, which makes the truncated product equal to the exact L2
(Galerkin) projection of the true product whenever the padding covers the
polynomial degree.  padded_size alone maps the dealias mode and the product
degree to the padded grid; in "exact" mode each product gets the smallest
alias-free grid for its degree.  Padded samples are real, so padding and
truncation are real-to-complex transforms on half spectra, pruned to the FFT
lines that carry retained modes: each line that is run gets the same 1D
transform, in the same axis order, as numpy's irfftn/rfftn, so the results
are bit-for-bit those of the full transforms.  Spectra move between the
n-grid and the padded grid by a few slice copies per axis; the band limit and
the Leray projection zero the Nyquist slots with one slice per axis, and
project_real also makes the one plane of the half layout that holds both k
and -k exactly Hermitian.

Internal helpers operate on raw half-layout coefficient arrays (fields) with
any number of leading axes followed by grid.dim spectral axes; the typed
wrappers work on VectorField/TensorField.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from .fields import (
    GridSpec,
    TensorField,
    VectorField,
    _freeze,
    laplace_symbol,
    wavevectors,
)

_TWO_PI_I = 2.0j * np.pi


# ---------------------------------------------------------------------------
# coefficient-space primitives


def grad_hat(coeffs: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Gradient in coefficient space; inserts a derivative axis before the
    spatial axes: result[..., j, spatial] = d(input[...])/dx_j."""
    k = wavevectors(grid)
    return _TWO_PI_I * k * np.expand_dims(coeffs, -grid.dim - 1)


def _zero_nyquist(coeffs: np.ndarray, dim: int) -> np.ndarray:
    """Zero the Nyquist slot of each of the trailing dim axes in place."""
    n = coeffs.shape[-2]
    for axis in range(dim):
        coeffs[(Ellipsis, n // 2) + (slice(None),) * axis] = 0.0
    return coeffs


def band_limit_hat(coeffs: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Project onto the retained space: zero every Nyquist slot."""
    return _zero_nyquist(coeffs.copy(), grid.dim)


@lru_cache(maxsize=None)
def _k2_safe(grid: GridSpec) -> np.ndarray:
    """|k|^2 per mode with the zeros replaced by 1, the divisor of leray_hat."""
    k = wavevectors(grid)
    k2 = np.sum(k * k, axis=0)
    return _freeze(np.where(k2 == 0.0, 1.0, k2))


def leray_hat(coeffs: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Mode-wise projection onto the retained divergence-free, zero-mean space.

    The component axis is the leading axis (length grid.dim).  Each mode is
    projected orthogonal to its wavenumber, the k=0 mode is zeroed (zero
    mean), and Nyquist slots are zeroed with the rest of the band limit.
    """
    k = wavevectors(grid)
    kdotu = np.sum(k * coeffs, axis=0)
    out = coeffs - k * (kdotu / _k2_safe(grid))
    out[(slice(None),) + (0,) * grid.dim] = 0.0
    return _zero_nyquist(out, grid.dim)


def max_mode_divergence(coeffs: np.ndarray, grid: GridSpec) -> float:
    """max_k |k . u_hat(k)| over all modes (integer wavenumbers)."""
    k = wavevectors(grid)
    return float(np.max(np.abs(np.sum(k * coeffs, axis=0))))


# ---------------------------------------------------------------------------
# zero-padding machinery: pruned real-to-complex transforms whose spectra are
# moved between the n-grid and the padded grid by a few slice copies per axis


def padded_size(grid: GridSpec, degree: int) -> int:
    """Padded grid size for a product of the given degree: the whole policy.

    "none" keeps the n-grid and "two_thirds" uses 3n/2 points.  In "exact"
    mode any grid with at least degree (n/2 - 1) + n/2 points yields the
    identical Galerkin projection of the product, so the smallest multiple of
    n/2 at or above that bound is used: 3n/2, 2n and 5n/2 points at degrees
    2, 3 and 4 once n > 8.
    """
    n = grid.n
    if grid.dealias == "none":
        return n
    if grid.dealias == "two_thirds":
        return 3 * n // 2
    bound = degree * (n // 2 - 1) + n // 2
    return -(-bound // (n // 2)) * (n // 2)


def to_padded(coeffs: np.ndarray, grid: GridSpec, degree: int) -> np.ndarray:
    """Real samples of the interpolant on the grid padded for the degree.

    The staging half spectrum holds the n//2 + 1 columns of the half layout;
    in 3D the axis -3 transform runs only on the rows of axis -2 that
    carry modes, and the final irfft zero-fills the remaining columns.  On a
    larger grid the unpaired Nyquist coefficient is split half-and-half onto
    the +n/2 and -n/2 slots of each axis, which reproduces the symmetric real
    interpolant exactly (only +n/2 is kept on the last axis).
    """
    n, dim = grid.n, grid.dim
    m = padded_size(grid, degree)
    h = n // 2 + 1
    lead = coeffs.shape[:-dim]
    half = np.zeros(lead + (m,) * (dim - 1) + (h,), dtype=np.complex128)
    # rows [0, n/2] keep their slots and [n/2, n) move to the top of the axis,
    # so the Nyquist row lands on both n/2 and m - n/2
    blocks = ((slice(None), slice(None)),)
    if m > n:
        blocks = ((slice(0, h), slice(0, h)), (slice(n // 2, n), slice(m - n // 2, m)))
    for pairs in itertools.product(blocks, repeat=dim - 1):
        src, dst = zip(*pairs)
        half[(Ellipsis,) + dst + (slice(None),)] = coeffs[(Ellipsis,) + src + (slice(None),)]
    if m > n:
        half[..., n // 2] *= 0.5
        for axis in range(1, dim):
            for slot in (n // 2, m - n // 2):
                half[(Ellipsis, slot) + (slice(None),) * axis] *= 0.5
    if dim == 3:
        for _, r in blocks:
            block = half[..., r, :]
            np.fft.ifft(block, axis=-3, norm="forward", out=block)
    np.fft.ifft(half, axis=-2, norm="forward", out=half)
    return np.fft.irfft(half, m, axis=-1, norm="forward")


def project_real(coeffs: np.ndarray, dim: int) -> np.ndarray:
    """Project a half spectrum in place onto the retained space of real
    fields: zero the Nyquist slots and make the k_last = 0 plane, which holds
    both k and -k, exactly Hermitian (each mode whose last non-zero
    wavenumber is negative is the conjugate of its mirror, k = 0 is real)."""
    n = coeffs.shape[-2]
    # the mirror of slot i is (-i) % n: slot 0, then [n-1:0:-1]
    mirror = ((slice(0, 1), slice(0, 1)), (slice(1, n), slice(n - 1, 0, -1)))
    for axis in range(dim - 2, -1, -1):
        # modes whose last non-zero wavenumber is on this axis and negative
        zero = (0,) * (dim - 1 - axis)
        for pairs in itertools.product(mirror, repeat=axis):
            dst, src = tuple(p[0] for p in pairs), tuple(p[1] for p in pairs)
            np.conjugate(
                coeffs[(Ellipsis,) + src + (slice(n // 2 - 1, 0, -1),) + zero],
                out=coeffs[(Ellipsis,) + dst + (slice(n // 2 + 1, n),) + zero],
            )
    coeffs[(Ellipsis,) + (0,) * dim].imag = 0.0
    return _zero_nyquist(coeffs, dim)


def from_padded(values_padded: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Half-layout coefficients of the band-limited projection of padded-grid
    samples, through project_real.

    Only the retained columns are carried past the rfft, and in 3D the axis -3
    transform runs only on the retained rows of axis -2.
    """
    n, dim = grid.n, grid.dim
    m = values_padded.shape[-1]
    # (n-grid, m-grid) slots of the retained rows: [0, n/2) keep their slots
    # and (-n/2, 0) sit at the top of either axis
    blocks = ((slice(0, n // 2),) * 2, (slice(n // 2 + 1, n), slice(m - n // 2 + 1, m)))
    half = np.fft.rfft(values_padded, axis=-1, norm="forward")[..., : n // 2]
    half = np.fft.fft(half, axis=-2, norm="forward")
    if dim == 3:
        for _, r in blocks:
            block = half[..., r, :]
            np.fft.fft(block, axis=-3, norm="forward", out=block)
    out = np.zeros(values_padded.shape[:-dim] + grid.shape[:-1] + (n // 2 + 1,), dtype=np.complex128)
    for pairs in itertools.product(blocks, repeat=dim - 1):
        dst, src = zip(*pairs)
        out[(Ellipsis,) + dst + (slice(0, n // 2),)] = half[(Ellipsis,) + src + (slice(None),)]
    return project_real(out, dim)


def padded_gradient(coeffs: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Real samples of every partial derivative on the quadratic padded grid;
    the derivative axis follows the leading axes."""
    return to_padded(grad_hat(coeffs, grid), grid, 2)


def padded_bundle(coeffs: np.ndarray, grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """(samples, gradient samples) of a field on the quadratic padded grid:
    the input of every bilinear product in coupling."""
    return to_padded(coeffs, grid, 2), padded_gradient(coeffs, grid)


# ---------------------------------------------------------------------------
# typed operators


def gradient(f: VectorField) -> TensorField:
    """Jacobian with the convention (grad f)_{ij} = df_i/dx_j."""
    return TensorField.from_coefficients(f.grid, grad_hat(f.coeffs, f.grid))


def divergence(m: VectorField | TensorField) -> VectorField:
    """Row-wise divergence: (div M)_i = sum_j dM_{ij}/dx_j.

    A VectorField with dim components contracts to a one-component field.
    """
    grid = m.grid
    if isinstance(m, VectorField):
        if m.components != grid.dim:
            raise ValueError("divergence of a vector field needs dim components")
        coeffs = m.coeffs[None]
    else:
        coeffs = m.coeffs
    div_hat = np.sum(_TWO_PI_I * wavevectors(grid) * coeffs, axis=1)
    return VectorField.from_coefficients(grid, div_hat)


def laplacian(f: VectorField) -> VectorField:
    return VectorField.from_coefficients(f.grid, -laplace_symbol(f.grid) * f.coeffs)


def leray_project(w: VectorField) -> VectorField:
    """L2-orthogonal projection onto solenoidal, zero-mean vector fields."""
    if w.components != w.grid.dim:
        raise ValueError("leray_project needs a dim-component field")
    return VectorField.from_coefficients(w.grid, leray_hat(w.coeffs, w.grid))
