"""Shared helpers for the test suite: deterministic band-limited fields."""

from __future__ import annotations

import numpy as np

from nemflow.fields import GridSpec, VectorField, fftn_norm, ifftn_norm, integer_wavevectors
from nemflow.operators import leray_hat


def band_limited(grid: GridSpec, components: int, seed: int, kcut: int | None = None,
                 scale: float = 1.0) -> VectorField:
    """Random smooth field with modes |k_j| <= kcut on every axis."""
    if kcut is None:
        kcut = grid.n // 2 - 1
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(components, *grid.shape))
    coeffs = fftn_norm(raw, grid.dim)
    mask = np.all(np.abs(integer_wavevectors(grid)) <= kcut, axis=0)
    return VectorField(grid, scale * ifftn_norm(coeffs * mask, grid.dim))


def nyquist_mask(grid: GridSpec) -> np.ndarray:
    """Boolean half-layout mask, True where any axis index sits on the
    Nyquist slot."""
    return np.any(integer_wavevectors(grid) == -(grid.n // 2), axis=0)


def solenoidal(grid: GridSpec, seed: int, kcut: int | None = None,
               scale: float = 1.0) -> VectorField:
    """Random band-limited solenoidal zero-mean velocity."""
    raw = band_limited(grid, grid.dim, seed, kcut)
    coeffs = leray_hat(fftn_norm(raw.values, grid.dim), grid)
    return VectorField(grid, scale * ifftn_norm(coeffs, grid.dim))


def perturbed_director(grid: GridSpec, seed: int, amplitude: float,
                       kcut: int = 2) -> VectorField:
    """Ground state e1 plus a pointwise-bounded band-limited perturbation."""
    d = np.zeros((grid.dim, *grid.shape))
    d[0] = 1.0
    if amplitude > 0:
        pert = band_limited(grid, grid.dim, seed, kcut).values
        top = np.max(np.sqrt(np.sum(pert * pert, axis=0)))
        d = d + amplitude * pert / top
    return VectorField(grid, d)
