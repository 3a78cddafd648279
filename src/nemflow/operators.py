"""Exact spectral differential operators, Leray projection, dealiased products.

All differentiation happens in coefficient space on the trigonometric
interpolant, so gradients, divergences and Laplacians are exact for resolved
modes.  Nonlinear terms are evaluated pointwise on a zero-padded grid of size
padding_factor * n and truncated back, which makes the truncated product equal
to the exact L2 (Galerkin) projection of the true product whenever the padding
covers the polynomial degree.  Padded samples are real, so padding and
truncation go through numpy's real-to-complex transforms on half spectra.

Internal helpers operate on raw coefficient arrays with an arbitrary number of
leading axes followed by grid.dim spatial axes; the typed wrappers work on
VectorField/TensorField.
"""

from __future__ import annotations

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
    integer_modes,
    laplace_symbol,
    nyquist_mask,
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


def band_limit_hat(coeffs: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Project onto the retained space: zero every Nyquist slot."""
    out = coeffs.copy()
    out[..., nyquist_mask(grid)] = 0.0
    return out


def leray_hat(coeffs: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Mode-wise projection onto the retained divergence-free, zero-mean space.

    The component axis is the leading axis (length grid.dim).  Each mode is
    projected orthogonal to its wavenumber, the k=0 mode is zeroed (zero
    mean), and Nyquist slots are zeroed with the rest of the band limit.
    """
    k = wavevectors(grid)
    k2 = np.sum(k * k, axis=0)
    k2safe = np.where(k2 == 0.0, 1.0, k2)
    kdotu = np.sum(k * coeffs, axis=0)
    out = coeffs - k * (kdotu / k2safe)
    out[(slice(None),) + (0,) * grid.dim] = 0.0
    out[..., nyquist_mask(grid)] = 0.0
    return out


def max_mode_divergence(coeffs: np.ndarray, grid: GridSpec) -> float:
    """max_k |k . u_hat(k)| over all modes (integer wavenumbers)."""
    k = wavevectors(grid)
    return float(np.max(np.abs(np.sum(k * coeffs, axis=0))))


# ---------------------------------------------------------------------------
# zero-padding machinery: padded spectra are real-to-complex half spectra,
# shape (m, ..., m, m//2 + 1), reached through one cached flat-index map per
# (n, m, dim) and direction


def _half_shape(m: int, dim: int) -> tuple[int, ...]:
    return (m,) * (dim - 1) + (m // 2 + 1,)


@lru_cache(maxsize=None)
def _pad_map(n: int, m: int, dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(src, dst, weight) embedding the n-grid spectrum into the m-grid half
    spectrum: half[dst] = weight * coeffs[src].

    On a larger grid the unpaired Nyquist coefficient (slot -n/2) is split
    half-and-half onto the +n/2 and -n/2 slots, which reproduces the
    symmetric real interpolant exactly; the half spectrum keeps only the
    images with a non-negative last wavenumber.
    """
    src1, img1, w1 = np.arange(n), integer_modes(n), np.ones(n)
    if m > n:
        src1, img1 = np.append(src1, n // 2), np.append(img1, n // 2)
        w1 = np.where(np.abs(img1) == n // 2, 0.5, 1.0)
    idx = [i.ravel() for i in np.meshgrid(*([np.arange(src1.size)] * dim), indexing="ij")]
    keep = img1[idx[-1]] % m <= m // 2
    idx = [i[keep] for i in idx]
    src = np.ravel_multi_index([src1[i] for i in idx], (n,) * dim)
    dst = np.ravel_multi_index([img1[i] % m for i in idx], _half_shape(m, dim))
    weight = np.prod([w1[i] for i in idx], axis=0).astype(np.complex128)
    return _freeze(src), _freeze(dst), _freeze(weight)


@lru_cache(maxsize=None)
def _truncate_map(n: int, m: int, dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(src, dst, flip) restricting the m-grid half spectrum to the retained
    n-grid modes: coeffs[dst] = half[src], conjugated where flip.

    A mode whose last non-zero wavenumber is negative is read as the
    conjugate of its mirror, so the result is exactly Hermitian.  Nyquist
    slots are not written (band-limited projection).
    """
    k = np.stack(np.meshgrid(*([integer_modes(n)] * dim), indexing="ij")).reshape(dim, -1)
    dst = np.flatnonzero(np.all(np.abs(k) < n // 2, axis=0))
    k = k[:, dst]
    # |k_j| < n/2, so the sign of this key is the sign of the last non-zero k_j
    flip = (n ** np.arange(dim)) @ k < 0
    src = np.ravel_multi_index(np.where(flip, -k, k) % m, _half_shape(m, dim))
    return _freeze(src), _freeze(dst), _freeze(flip)


def padded_size(grid: GridSpec, degree: int | None = None) -> int:
    """Padded grid size for a product of the given degree.

    Outside "exact" mode the policy size padding_factor * n is always used.
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
    """Real samples of the interpolant on the padded grid."""
    m, dim = padded_size(grid, degree), grid.dim
    src, dst, weight = _pad_map(grid.n, m, dim)
    lead = coeffs.shape[:-dim]
    half = np.zeros(lead + _half_shape(m, dim), dtype=np.complex128)
    half.reshape(lead + (-1,))[..., dst] = coeffs.reshape(lead + (-1,))[..., src] * weight
    return np.fft.irfftn(half, s=(m,) * dim, axes=tuple(range(-dim, 0)), norm="forward")


def from_padded(values_padded: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Coefficients of the band-limited projection of padded-grid samples."""
    dim = grid.dim
    src, dst, flip = _truncate_map(grid.n, values_padded.shape[-1], dim)
    lead = values_padded.shape[:-dim]
    half = np.fft.rfftn(values_padded, axes=tuple(range(-dim, 0)), norm="forward")
    vals = half.reshape(lead + (-1,))[..., src]
    np.conjugate(vals, out=vals, where=flip)
    out = np.zeros(lead + grid.shape, dtype=np.complex128)
    out.reshape(lead + (-1,))[..., dst] = vals
    return out


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


def _exactness_degree(grid: GridSpec) -> int:
    """Largest product degree whose Galerkin projection is alias-free.

    Inputs are band-limited to |k| <= n/2 - 1; a degree-p product computed on
    the padded grid M is exact iff M >= p*(n/2 - 1) + n/2.
    """
    n, m = grid.n, grid.padded_n
    if n // 2 - 1 <= 0:
        return 99
    return (m - n // 2) // (n // 2 - 1)


def multiply_dealiased(factors: Sequence[VectorField], grid: GridSpec | None = None) -> VectorField:
    """Componentwise product of 2-5 fields, dealiased per the grid policy.

    One-component factors broadcast against many-component factors.  In
    "exact" mode the result is the true L2 projection of the product onto the
    retained trigonometric space; a padding_factor too small for the factor
    count is a configuration error.
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
    if grid.dealias == "exact" and _exactness_degree(grid) < len(factors):
        raise ValueError(
            f"padding_factor {grid.padding_factor} insufficient for an exact "
            f"degree-{len(factors)} product"
        )
    prod = None
    for f in factors:
        p = to_padded(fftn_norm(f.values, grid.dim), grid)
        prod = p if prod is None else prod * p
    return VectorField(grid, ifftn_norm(from_padded(prod, grid), grid.dim))
