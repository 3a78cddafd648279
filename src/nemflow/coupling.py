"""The two nonlinear operators coupling director and flow.

extra_velocity is the elastic contribution
    v_i = sum_j mu_j d_i d_j/dx_i ... spelled out:
    v = mu . grad d + alpha div{mu (x) d} - (1 - alpha) div{d (x) mu}
with (mu . grad d)_i = sum_j mu_j d(d_j)/dx_i (transpose-Jacobian action) and
(a (x) b)_{ij} = a_i b_j.  The same field drives the director transport and
enters the momentum balance as the elastic force, which is what makes the
+/- int u.v terms cancel exactly in the discrete energy identity.

director_transport is the deformation law
    T(d, w) = (w . grad) d - alpha (grad w) d + (1 - alpha) (grad^T w) d,
the weak-form adjoint of the extra-velocity bracket.

Products are evaluated on the padded grid and truncated back, so each
operator returns the Galerkin projection of the true quadratic product.  The
coefficient-space operators take padded bundles only (operators.padded_bundle):
callers that evaluate several products at one iterate pad each field once and
share its bundle.  Each takes one or more argument pairs and truncates their
summed padded products once, so the derivative of a product (two pairs with
one argument replaced) costs a single truncation.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from .fields import GridSpec, VectorField
from .operators import from_padded, padded_bundle

Bundle = tuple[np.ndarray, np.ndarray]  # (padded samples, padded gradient samples)
Pair = tuple[Bundle, Bundle]


def extra_velocity_hat(pairs: Iterable[Pair], alpha: float, grid: GridSpec) -> np.ndarray:
    """Coefficient-space extra velocity, summed over (mu, d) bundle pairs."""
    terms = []
    for (mu_p, gmu_p), (d_p, gd_p) in pairs:  # gmu_p[c, j] = d mu_c / dx_j
        div_mu = np.einsum("jj...->...", gmu_p)
        div_d = np.einsum("jj...->...", gd_p)
        # (mu . grad d)_i = sum_j mu_j d(d_j)/dx_i
        term = np.einsum("j...,ji...->i...", mu_p, gd_p)
        # div{mu (x) d}_i = (d . grad) mu_i + mu_i div d
        term += alpha * (np.einsum("j...,ij...->i...", d_p, gmu_p) + mu_p * div_d)
        # div{d (x) mu}_i = (mu . grad) d_i + d_i div mu
        term -= (1.0 - alpha) * (np.einsum("j...,ij...->i...", mu_p, gd_p) + d_p * div_mu)
        terms.append(term)
    return from_padded(sum(terms[1:], terms[0]), grid)


def director_transport_hat(pairs: Iterable[Pair], alpha: float, grid: GridSpec) -> np.ndarray:
    """Coefficient-space transport operator T(d, w), summed over (d, w) pairs."""
    terms = []
    for (d_p, gd_p), (w_p, gw_p) in pairs:
        t = np.einsum("j...,ij...->i...", w_p, gd_p)
        t -= alpha * np.einsum("ij...,j...->i...", gw_p, d_p)
        t += (1.0 - alpha) * np.einsum("ji...,j...->i...", gw_p, d_p)
        terms.append(t)
    return from_padded(sum(terms[1:], terms[0]), grid)


def convective_hat(bundles: Iterable[Bundle], grid: GridSpec) -> np.ndarray:
    """Coefficient-space convection (u . grad) u, dealiased and summed over
    bundles; a bundle pairing the samples of a with the gradient samples of b
    gives (a . grad) b."""
    terms = [np.einsum("j...,ij...->i...", u_p, gu_p) for u_p, gu_p in bundles]
    return from_padded(sum(terms[1:], terms[0]), grid)


def _bundle(f: VectorField, grid: GridSpec) -> Bundle:
    return padded_bundle(f.coeffs, grid)


def _check_pair(a: VectorField, b: VectorField, grid: GridSpec | None) -> GridSpec:
    grid = grid or a.grid
    if a.grid != grid or b.grid != grid:
        raise ValueError("fields live on different grids")
    if a.components != grid.dim or b.components != grid.dim:
        raise ValueError("expected dim-component fields")
    return grid


def extra_velocity(
    mu: VectorField, d: VectorField, alpha: float, grid: GridSpec | None = None
) -> VectorField:
    """v = mu . grad d + alpha div{mu (x) d} - (1 - alpha) div{d (x) mu}."""
    grid = _check_pair(mu, d, grid)
    v = extra_velocity_hat([(_bundle(mu, grid), _bundle(d, grid))], alpha, grid)
    return VectorField.from_coefficients(grid, v)


def director_transport(
    d: VectorField, w: VectorField, alpha: float, grid: GridSpec | None = None
) -> VectorField:
    """T(d, w) = (w . grad) d - alpha (grad w) d + (1 - alpha) (grad^T w) d."""
    grid = _check_pair(d, w, grid)
    t = director_transport_hat([(_bundle(d, grid), _bundle(w, grid))], alpha, grid)
    return VectorField.from_coefficients(grid, t)

