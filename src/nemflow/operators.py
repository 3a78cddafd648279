"""Exact spectral differential operators, Leray projection, dealiased products.

All differentiation happens in coefficient space on the trigonometric
interpolant, so gradients, divergences and Laplacians are exact for resolved
modes.  Nonlinear terms are evaluated pointwise on a zero-padded grid, whose
size follows from the dealias mode (grid.padded_n), and truncated back, which
makes the truncated product equal to the exact L2 (Galerkin) projection of the
true product whenever the padding covers the polynomial degree.  In "exact"
mode each product gets the smallest alias-free grid for its degree
(padded_size).  Padded samples are real, so padding and truncation are
real-to-complex transforms on half spectra, pruned to the FFT lines that
carry retained modes: each line that is run gets the same 1D transform, in
the same axis order, as numpy's irfftn/rfftn, so the results are bit-for-bit
those of the full transforms.  Spectra move between the n-grid and the padded
grid by a few slice copies per axis; the band limit and the Leray projection
zero the Nyquist slots with one slice per axis.

Internal helpers operate on raw coefficient arrays with an arbitrary number of
leading axes followed by grid.dim spatial axes; the typed wrappers work on
VectorField/TensorField.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Sequence

import numpy as np

from .fields import (
    GridSpec,
    TensorField,
    VectorField,
    _freeze,
    fftn_norm,
    ifftn_norm,
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
    n = coeffs.shape[-1]
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


def padded_size(grid: GridSpec, degree: int | None = None) -> int:
    """Padded grid size for a product of the given degree.

    Outside "exact" mode the policy size grid.padded_n is always used.
    In exact mode any grid at or above the alias-free bound yields the
    identical Galerkin projection, so the smallest convenient size is chosen;
    degree None falls back to the full policy size.
    """
    if degree is None or grid.dealias != "exact":
        return grid.padded_n
    n = grid.n
    bound = degree * (n // 2 - 1) + n // 2
    for m in (n, 3 * n // 2, 2 * n, 5 * n // 2, 3 * n):
        if m >= bound:
            return m
    return grid.padded_n


def to_padded(coeffs: np.ndarray, grid: GridSpec, degree: int | None = None) -> np.ndarray:
    """Real samples of the interpolant on the padded grid.

    The staging half spectrum holds only the n//2 + 1 columns that carry
    modes; in 3D the axis -3 transform runs only on the rows of axis -2 that
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
        half[(Ellipsis,) + dst + (slice(None),)] = coeffs[(Ellipsis,) + src + (slice(0, h),)]
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


def from_padded(values_padded: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Coefficients of the band-limited projection of padded-grid samples.

    Only the retained columns are carried past the rfft, and in 3D the axis -3
    transform runs only on the retained rows of axis -2.  The retained modes
    with a non-negative last non-zero wavenumber are copied from the FFT
    output; every other one is the conjugate of its mirror -k, so the result
    is exactly Hermitian, and the Nyquist slots are zero.
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
    out = np.zeros(values_padded.shape[:-dim] + grid.shape, dtype=np.complex128)
    for pairs in itertools.product(blocks, repeat=dim - 1):
        dst, src = zip(*pairs)
        out[(Ellipsis,) + dst + (slice(0, n // 2),)] = half[(Ellipsis,) + src + (slice(None),)]
    # the mirror of slot i is (-i) % n: slot 0, then [n-1:0:-1]
    mirror = ((slice(0, 1), slice(0, 1)), (slice(1, n), slice(n - 1, 0, -1)))
    for axis in range(dim - 1, -1, -1):
        # modes whose last non-zero wavenumber is on this axis and negative
        zero = (0,) * (dim - 1 - axis)
        for pairs in itertools.product(mirror, repeat=axis):
            dst, src = tuple(p[0] for p in pairs), tuple(p[1] for p in pairs)
            np.conjugate(
                out[(Ellipsis,) + src + (slice(n // 2 - 1, 0, -1),) + zero],
                out=out[(Ellipsis,) + dst + (slice(n // 2 + 1, n),) + zero],
            )
    return _zero_nyquist(out, dim)


def padded_gradient(coeffs: np.ndarray, grid: GridSpec, degree: int | None = None) -> np.ndarray:
    """Real samples of every partial derivative on the padded grid; the
    derivative axis follows the leading axes."""
    return to_padded(grad_hat(coeffs, grid), grid, degree)


def padded_bundle(coeffs: np.ndarray, grid: GridSpec, degree: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """(samples, gradient samples) of a field on the degree-sized padded grid."""
    return to_padded(coeffs, grid, degree), padded_gradient(coeffs, grid, degree)


# ---------------------------------------------------------------------------
# typed operators


def gradient(f: VectorField) -> TensorField:
    """Jacobian with the convention (grad f)_{ij} = df_i/dx_j."""
    coeffs = fftn_norm(f.values, f.grid.dim)
    g = ifftn_norm(grad_hat(coeffs, f.grid), f.grid.dim)
    return TensorField(f.grid, g)


def divergence(m: VectorField | TensorField) -> VectorField:
    """Row-wise divergence: (div M)_i = sum_j dM_{ij}/dx_j.

    A VectorField with dim components contracts to a one-component field.
    """
    grid = m.grid
    if isinstance(m, VectorField):
        if m.components != grid.dim:
            raise ValueError("divergence of a vector field needs dim components")
        vals = m.values[None]
    else:
        vals = m.values
    coeffs = fftn_norm(vals, grid.dim)
    k = wavevectors(grid)
    div_hat = np.sum(_TWO_PI_I * k * coeffs, axis=1)
    return VectorField(grid, ifftn_norm(div_hat, grid.dim))


def laplacian(f: VectorField) -> VectorField:
    coeffs = fftn_norm(f.values, f.grid.dim)
    out = -laplace_symbol(f.grid) * coeffs
    return VectorField(f.grid, ifftn_norm(out, f.grid.dim))


def sym_skew_gradient(u: VectorField) -> tuple[TensorField, TensorField]:
    """Symmetric and skew parts of the velocity gradient; Du + Wu = grad u."""
    if u.components != u.grid.dim:
        raise ValueError("sym_skew_gradient needs a dim-component field")
    g = gradient(u).values
    gt = np.swapaxes(g, 0, 1)
    return TensorField(u.grid, 0.5 * (g + gt)), TensorField(u.grid, 0.5 * (g - gt))


def leray_project(w: VectorField) -> VectorField:
    """L2-orthogonal projection onto solenoidal, zero-mean vector fields."""
    if w.components != w.grid.dim:
        raise ValueError("leray_project needs a dim-component field")
    coeffs = fftn_norm(w.values, w.grid.dim)
    return VectorField(w.grid, ifftn_norm(leray_hat(coeffs, w.grid), w.grid.dim))


def multiply_dealiased(factors: Sequence[VectorField], grid: GridSpec | None = None) -> VectorField:
    """Componentwise product of 2-5 fields, dealiased per the grid policy.

    One-component factors broadcast against many-component factors.  In
    "exact" mode the result is the true L2 projection of the product onto the
    retained trigonometric space (the 3n padded grid is alias-free up to
    degree 5).
    """
    if not 2 <= len(factors) <= 5:
        raise ValueError("multiply_dealiased takes 2 to 5 factors")
    if grid is None:
        grid = factors[0].grid
    comps = {f.components for f in factors}
    if any(f.grid != grid for f in factors):
        raise ValueError("factors live on different grids")
    if len(comps - {1}) > 1:
        raise ValueError("factor component counts must match or be 1")
    prod = None
    for f in factors:
        p = to_padded(fftn_norm(f.values, grid.dim), grid)
        prod = p if prod is None else prod * p
    return VectorField(grid, ifftn_norm(from_padded(prod, grid), grid.dim))
