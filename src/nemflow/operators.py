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

Every operator works on raw half-layout coefficient arrays with any number
of leading axes followed by grid.dim spectral axes.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from .fields import GridSpec, _freeze, wavevectors

_TWO_PI_I = 2.0j * np.pi
# Padded samples per row block of a product or a truncation, 32 KiB of float64
# per component: fewer make the per-block calls dominate, more bring back the
# page faults of large temporaries without lowering the time per product
_BLOCK_SIZE = 4096


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


def row_slices(m: int, dim: int) -> list[tuple]:
    """Indices of the blocks of rows of axis -dim of an m-point padded grid."""
    step = max(1, _BLOCK_SIZE // m ** (dim - 1))
    return [(Ellipsis, slice(start, start + step)) + (slice(None),) * (dim - 1)
            for start in range(0, m, step)]


def to_padded(coeffs: np.ndarray, grid: GridSpec, degree: int,
              out: np.ndarray | None = None, factor: np.ndarray | None = None) -> np.ndarray:
    """Real samples of the interpolant on the grid padded for the degree,
    written into out if given (any strides); given factor, a half-layout
    symbol, those of factor * coeffs, formed as it fills the staging spectrum.

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
        src, dst = ((Ellipsis,) + s + (slice(None),) for s in zip(*pairs))
        if factor is None:
            half[dst] = coeffs[src]
        else:
            np.multiply(factor[src], coeffs[src], out=half[dst])
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
    return np.fft.irfft(half, m, axis=-1, norm="forward", out=out)


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

    The rfft runs one block of rows of the first padded axis at a time, and
    only the n/2 retained columns of each block's spectrum are kept, so no
    full-width spectrum is ever alive; the axis -2 transform runs in place,
    and in 3D the axis -3 transform only on the retained rows of axis -2.
    """
    n, dim = grid.n, grid.dim
    m = values_padded.shape[-1]
    # (n-grid, m-grid) slots of the retained rows: [0, n/2) keep their slots
    # and (-n/2, 0) sit at the top of either axis
    blocks = ((slice(0, n // 2),) * 2, (slice(n // 2 + 1, n), slice(m - n // 2 + 1, m)))
    half = np.empty(values_padded.shape[:-1] + (n // 2,), dtype=np.complex128)
    for r in row_slices(m, dim):
        half[r] = np.fft.rfft(values_padded[r], axis=-1, norm="forward")[..., : n // 2]
    np.fft.fft(half, axis=-2, norm="forward", out=half)
    if dim == 3:
        for _, r in blocks:
            block = half[..., r, :]
            np.fft.fft(block, axis=-3, norm="forward", out=block)
    out = np.zeros(values_padded.shape[:-dim] + grid.shape[:-1] + (n // 2 + 1,), dtype=np.complex128)
    for pairs in itertools.product(blocks, repeat=dim - 1):
        dst, src = zip(*pairs)
        out[(Ellipsis,) + dst + (slice(0, n // 2),)] = half[(Ellipsis,) + src + (slice(None),)]
    return project_real(out, dim)


def padded_gradient(coeffs: np.ndarray, grid: GridSpec,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Real samples of every partial derivative on the quadratic padded grid,
    written into out if given; the derivative axis follows the leading axes.

    Each direction is differentiated as it fills to_padded's staging
    spectrum (the factor i 2 pi k_j) and padded straight into its slot of the
    output, so no derivative array, of one direction or of all (grad_hat), is
    ever alive beside that spectrum; the samples equal, bit for bit, those of
    to_padded(grad_hat(coeffs, grid), grid, 2).
    """
    ik = _TWO_PI_I * wavevectors(grid)
    lead = coeffs.shape[:-grid.dim]
    if out is None:
        out = np.empty(lead + (grid.dim,) + (padded_size(grid, 2),) * grid.dim)
    for j in range(grid.dim):
        to_padded(coeffs, grid, 2, out=out[(Ellipsis, j) + (slice(None),) * grid.dim], factor=ik[j])
    return out


def padded_bundle(
    coeffs: np.ndarray, grid: GridSpec, out: tuple[np.ndarray, np.ndarray] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(samples, gradient samples) of a field on the quadratic padded grid:
    the input of every bilinear product in coupling; given out, a (samples,
    gradient) pair of arrays, written into them."""
    values, grad = out or (None, None)
    return to_padded(coeffs, grid, 2, out=values), padded_gradient(coeffs, grid, out=grad)
