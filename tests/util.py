"""Shared helpers for the test suite: deterministic band-limited fields, the
zero field and a step's chemical potential as fields, an
L2 quadrature from samples that is independent of the solver's Parseval sums,
an explicit RK4 integrator for pure director transport, the coupling
products on whole padded arrays, and a context in which only reference counts
free objects."""

from __future__ import annotations

import gc
from contextlib import contextmanager

import numpy as np

from nemflow.coupling import director_transport_hat
from nemflow.fields import (GridSpec, VectorField, fftn_norm, ifftn_norm, integer_wavevectors,
                            wavevectors)
from nemflow.operators import from_padded, leray_hat, padded_bundle


def zero_field(grid: GridSpec, components: int) -> VectorField:
    """The zero field with the given number of components."""
    half = grid.shape[:-1] + (grid.n // 2 + 1,)
    return VectorField.from_coefficients(grid, np.zeros((components, *half), dtype=np.complex128))


def mu_field(result) -> VectorField:
    """The chemical potential of an accepted step (StepResult.mu_hat) as a
    field."""
    return VectorField.from_coefficients(result.state.grid, result.mu_hat)


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


def l2_inner(f: VectorField, g: VectorField) -> float:
    """Integral of f . g over the unit torus (mean of samples, volume 1).

    Equals the spectral (Parseval) sum exactly, which is the true L2 pairing
    for band-limited fields.
    """
    return float(np.sum(f.values * g.values) / f.grid.n**f.grid.dim)


def l2_norm(f: VectorField) -> float:
    return float(np.sqrt(max(l2_inner(f, f), 0.0)))


def transport_only_run(
    d0: VectorField, w: VectorField, alpha: float, tau: float, steps: int
) -> VectorField:
    """Integrate d' = -T(d, w) with frozen w by classical RK4.

    Covers the alpha = 1/2 length-conservation mechanism; no regularisation
    term enters, so it also covers the epsilon = 0 transport dynamics that the
    implicit stepper refuses.
    """
    grid = d0.grid
    w_b = padded_bundle(w.coeffs, grid)
    d_hat = d0.coeffs

    def rhs(dh):
        return -director_transport_hat((padded_bundle(dh, grid), w_b), alpha, grid)

    for _ in range(steps):
        k1 = rhs(d_hat)
        k2 = rhs(d_hat + 0.5 * tau * k1)
        k3 = rhs(d_hat + 0.5 * tau * k2)
        k4 = rhs(d_hat + tau * k3)
        d_hat = d_hat + (tau / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return VectorField.from_coefficients(grid, d_hat)


def whole_extra_velocity(pairs, alpha, grid):
    """extra_velocity_hat summed over (mu, d) bundle pairs on whole padded
    arrays: the reference for the row-blocked products and their padded
    addends."""
    terms = []
    for (mu_p, gmu_p), (d_p, gd_p) in pairs:
        div_mu = np.einsum("jj...->...", gmu_p)
        div_d = np.einsum("jj...->...", gd_p)
        term = np.einsum("j...,ji...->i...", mu_p, gd_p)
        term += alpha * (np.einsum("j...,ij...->i...", d_p, gmu_p) + mu_p * div_d)
        term -= (1.0 - alpha) * (np.einsum("j...,ij...->i...", mu_p, gd_p) + d_p * div_mu)
        terms.append(term)
    return from_padded(sum(terms[1:], terms[0]), grid)


def whole_transport(pairs, alpha, grid):
    """director_transport_hat summed over (d, w) bundle pairs on whole padded
    arrays."""
    terms = []
    for (d_p, gd_p), (w_p, gw_p) in pairs:
        t = np.einsum("j...,ij...->i...", w_p, gd_p)
        t -= alpha * np.einsum("ij...,j...->i...", gw_p, d_p)
        t += (1.0 - alpha) * np.einsum("ji...,j...->i...", gw_p, d_p)
        terms.append(t)
    return from_padded(sum(terms[1:], terms[0]), grid)


def whole_convective(pairs, grid):
    """convective_hat on whole padded arrays."""
    rows, cols = np.triu_indices(grid.dim)
    sym_hat = from_padded(sum(a[rows] * b[cols] for a, b in pairs), grid)
    slot = np.empty((grid.dim, grid.dim), dtype=int)
    slot[rows, cols] = slot[cols, rows] = np.arange(rows.size)
    return np.sum(2.0j * np.pi * wavevectors(grid) * sym_hat[slot], axis=1)


@contextmanager
def refcounting_only():
    """Run the body with the cycle collector off, so an object is freed only
    when its last reference goes: a weakref that stays alive shows a
    reference still held, or a cycle that would delay the release."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()
