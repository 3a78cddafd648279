"""The two nonlinear operators coupling director and flow.

extra_velocity_hat is the elastic contribution
    v = mu . grad d + alpha div{mu (x) d} - (1 - alpha) div{d (x) mu}
with (mu . grad d)_i = sum_j mu_j d(d_j)/dx_i (transpose-Jacobian action) and
(a (x) b)_{ij} = a_i b_j.  The same field drives the director transport and
enters the momentum balance as the elastic force, which is what makes the
+/- int u.v terms cancel exactly in the discrete energy identity.

director_transport_hat is the deformation law
    T(d, w) = (w . grad) d - alpha (grad w) d + (1 - alpha) (grad^T w) d,
the weak-form adjoint of the extra-velocity bracket.

convective_hat is the convection div(u (x) u), which equals (u . grad) u for
solenoidal band-limited u up to aliasing error: none in "two_thirds" and
"exact" mode, some in "none" mode, which has no energy guarantee.

Products are evaluated on the padded grid and truncated back, so each
operator returns the Galerkin projection of the true quadratic product.
They take padded bundles (operators.padded_bundle), or padded samples for
convection, so callers pad each field once and share it.  A product's
derivative is a sum of two products with one argument replaced each; it costs
one truncation: the *_padded form of one pair gives padded samples, and the
*_hat form of the other pair adds itself into them (the padded addend) and
truncates the sum once.  So a caller can release the bundles of the first pair
before it pads those of the second.  Each product is evaluated one block of
rows of the first padded axis at a time, with the same operations per sample
as on whole arrays, into one padded array: a product's temporaries are the
size of a block, not of the padded grid.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .fields import GridSpec, wavevectors
from .operators import from_padded, row_slices

Bundle = tuple[np.ndarray, np.ndarray]  # (padded samples, padded gradient samples)
Pair = tuple[Bundle, Bundle]


def _rows(x, r):
    """The arrays of a nested tuple of padded arrays, restricted to rows r."""
    return x[r] if isinstance(x, np.ndarray) else tuple(_rows(y, r) for y in x)


def _row_blocks(block, shape: tuple[int, ...], grid: GridSpec,
                out: np.ndarray | None = None) -> np.ndarray:
    """The padded array of the given shape whose rows r along the first padded
    axis are block(r), filled one block at a time, so a product's temporaries
    are the size of one block, not of the padded grid.  Given out, the blocks
    are added into it in place and out is returned."""
    add = out is not None
    if not add:
        out = np.empty(shape)
    for r in row_slices(shape[-1], grid.dim):
        if add:
            out[r] += block(r)
        else:
            out[r] = block(r)
    return out


def extra_velocity_padded(pair: Pair, alpha: float, grid: GridSpec,
                          out: np.ndarray | None = None) -> np.ndarray:
    """Padded samples of the extra velocity of one (mu, d) bundle pair, added
    into out in place if given."""

    def block(r):
        (mu_p, gmu_p), (d_p, gd_p) = _rows(pair, r)  # gmu_p[c, j] = d mu_c / dx_j
        div_mu = np.einsum("jj...->...", gmu_p)
        div_d = np.einsum("jj...->...", gd_p)
        # (mu . grad d)_i = sum_j mu_j d(d_j)/dx_i
        term = np.einsum("j...,ji...->i...", mu_p, gd_p)
        # div{mu (x) d}_i = (d . grad) mu_i + mu_i div d
        term += alpha * (np.einsum("j...,ij...->i...", d_p, gmu_p) + mu_p * div_d)
        # div{d (x) mu}_i = (mu . grad) d_i + d_i div mu
        term -= (1.0 - alpha) * (np.einsum("j...,ij...->i...", mu_p, gd_p) + d_p * div_mu)
        return term

    return _row_blocks(block, pair[0][0].shape, grid, out)


def extra_velocity_hat(pair: Pair, alpha: float, grid: GridSpec,
                       addend: np.ndarray | None = None) -> np.ndarray:
    """Coefficient-space extra velocity of one (mu, d) bundle pair, plus the
    padded samples addend if given, truncated once; addend is consumed (the
    sum is formed in it)."""
    return from_padded(extra_velocity_padded(pair, alpha, grid, addend), grid)


def director_transport_padded(pair: Pair, alpha: float, grid: GridSpec,
                              out: np.ndarray | None = None) -> np.ndarray:
    """Padded samples of T(d, w) for one (d, w) bundle pair, added into out in
    place if given."""

    def block(r):
        (d_p, gd_p), (w_p, gw_p) = _rows(pair, r)
        t = np.einsum("j...,ij...->i...", w_p, gd_p)
        t -= alpha * np.einsum("ij...,j...->i...", gw_p, d_p)
        t += (1.0 - alpha) * np.einsum("ji...,j...->i...", gw_p, d_p)
        return t

    return _row_blocks(block, pair[0][0].shape, grid, out)


def director_transport_hat(pair: Pair, alpha: float, grid: GridSpec,
                           addend: np.ndarray | None = None) -> np.ndarray:
    """Coefficient-space transport operator T(d, w) of one (d, w) bundle pair,
    plus the padded samples addend if given, truncated once; addend is
    consumed."""
    return from_padded(director_transport_padded(pair, alpha, grid, addend), grid)


def convective_hat(pairs: Sequence[tuple[np.ndarray, np.ndarray]], grid: GridSpec) -> np.ndarray:
    """Coefficient-space div P(sum of a (x) b) over padded sample pairs whose sum is
    symmetric, [(u, u)] or [(du, u), (u, du)]: P truncates the upper triangle."""
    rows, cols = np.triu_indices(grid.dim)
    sym_hat = from_padded(_row_blocks(lambda r: sum(a[rows] * b[cols] for a, b in _rows(pairs, r)),
                                      (rows.size,) + pairs[0][0].shape[1:], grid), grid)
    slot = np.empty((grid.dim, grid.dim), dtype=int)
    slot[rows, cols] = slot[cols, rows] = np.arange(rows.size)
    return np.sum(2.0j * np.pi * wavevectors(grid) * sym_hat[slot], axis=1)
