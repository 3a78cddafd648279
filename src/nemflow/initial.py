"""Deterministic initial-condition generators.

All kinds produce a solenoidal, zero-mean velocity (Leray projection applied
after generation) and are bitwise reproducible for a fixed seed.  The noise
comes from an in-package SplitMix64 stream (Steele, Lea & Flood, OOPSLA 2014)
computed with exact integer arithmetic, so a seed draws the same noise on
every numpy version and platform, and no run imports numpy.random.  The
director profiles are conventional nematic test states:

  * uniform_perturbed: ground state e1 plus a band-limited perturbation
    scaled so |d| stays within [1 - amplitude, 1 + amplitude] pointwise;
    the velocity is a random solenoidal field of the same amplitude.
  * random_smooth: band-limited random director of unit rms length with a
    random solenoidal velocity of size amplitude.
  * defect_pair (2D only): a +1/-1 disclination pair with a smoothly
    regularised core, at rest unless amplitude > 0.
"""

from __future__ import annotations

import numpy as np

from .fields import GridSpec, VectorField, fftn_norm, ifftn_norm, integer_wavevectors
from .operators import band_limit_hat, leray_hat
from .stepper import StepState

_PERTURBATION_KCUT = 2
_DEFECT_CORE_RADIUS = 0.08


class SplitMix64:
    """The SplitMix64 stream of a seed in [0, 2**64), as uniform draws in
    [-1, 1).

    Draw i = 1, 2, ... finalises the counter seed + i * 0x9E3779B97F4A7C15
    (mod 2**64) and maps its top 53 bits to (z >> 11) * 2**-52 - 1, exactly.
    Successive calls continue the stream.
    """

    def __init__(self, seed: int):
        self._seed = np.uint64(seed)
        self._drawn = 0

    def uniform(self, shape: tuple[int, ...]) -> np.ndarray:
        count = int(np.prod(shape))
        z = np.arange(self._drawn + 1, self._drawn + count + 1, dtype=np.uint64)
        self._drawn += count
        z = z * np.uint64(0x9E3779B97F4A7C15) + self._seed
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
        return ((z >> np.uint64(11)).astype(np.float64) * 2.0**-52 - 1.0).reshape(shape)


def _band_limited_noise(rng: SplitMix64, grid: GridSpec, components: int,
                        kcut: int) -> np.ndarray:
    """Random smooth field: white noise restricted to modes |k_j| <= kcut.

    Callers rescale it (by its max pointwise norm or its rms), so the draws'
    distribution does not matter. The cutoff is capped at n/2 - 1: the
    solver's retained space has no Nyquist modes, so Nyquist content in a
    state could never be removed.
    """
    raw = rng.uniform((components, *grid.shape))
    coeffs = fftn_norm(raw, grid.dim)
    kcut = min(kcut, grid.n // 2 - 1)
    mask = np.all(np.abs(integer_wavevectors(grid)) <= kcut, axis=0)
    return ifftn_norm(coeffs * mask, grid.dim)


def _max_pointwise_norm(values: np.ndarray) -> float:
    return float(np.max(np.sqrt(np.sum(values * values, axis=0))))


def _random_flow(rng: SplitMix64, grid: GridSpec, kcut: int,
                 amplitude: float) -> np.ndarray:
    """Random band-limited solenoidal velocity scaled to max |u| = amplitude;
    zero, with no draw from rng, when amplitude is 0."""
    u = np.zeros((grid.dim, *grid.shape))
    if amplitude > 0.0:
        raw = _band_limited_noise(rng, grid, grid.dim, kcut)
        flow = ifftn_norm(leray_hat(fftn_norm(raw, grid.dim), grid), grid.dim)
        scale = _max_pointwise_norm(flow)
        if scale > 0.0:
            u = amplitude * flow / scale
    return u


def initial_condition(kind: str, grid: GridSpec, seed: int, amplitude: float) -> StepState:
    """Build the initial (d, u) state; deterministic in (kind, grid, seed,
    amplitude)."""
    rng = SplitMix64(seed)
    if kind == "uniform_perturbed":
        d = np.zeros((grid.dim, *grid.shape))
        d[0] = 1.0
        if amplitude > 0.0:
            pert = _band_limited_noise(rng, grid, grid.dim, _PERTURBATION_KCUT)
            d += amplitude * pert / _max_pointwise_norm(pert)
        u = _random_flow(rng, grid, _PERTURBATION_KCUT, amplitude)
    elif kind == "random_smooth":
        d = _band_limited_noise(rng, grid, grid.dim, _PERTURBATION_KCUT + 1)
        rms = float(np.sqrt(np.mean(np.sum(d * d, axis=0))))
        if rms > 0.0:
            d = d / rms
        u = _random_flow(rng, grid, _PERTURBATION_KCUT + 1, amplitude)
    elif kind == "defect_pair":
        if grid.dim != 2:
            raise ValueError("defect_pair initial condition requires dim = 2")
        x = grid.meshgrid()
        half_cell = 0.5 / grid.n
        cores = ((0.25 + half_cell, 0.5 + half_cell), (0.75 + half_cell, 0.5 + half_cell))
        charges = (1.0, -1.0)
        theta = np.zeros(grid.shape)
        envelope = np.ones(grid.shape)
        for (cx, cy), q in zip(cores, charges):
            dx = np.sin(2.0 * np.pi * (x[0] - cx)) / (2.0 * np.pi)
            dy = np.sin(2.0 * np.pi * (x[1] - cy)) / (2.0 * np.pi)
            theta += q * np.arctan2(dy, dx)
            envelope *= np.tanh(np.sqrt(dx * dx + dy * dy) / _DEFECT_CORE_RADIUS)
        d = np.stack([envelope * np.cos(theta), envelope * np.sin(theta)])
        # sampled geometry: drop its Nyquist content, as _band_limited_noise does
        d = ifftn_norm(band_limit_hat(fftn_norm(d, 2), grid), 2)
        u = _random_flow(rng, grid, _PERTURBATION_KCUT, amplitude)
    else:
        raise ValueError(f"unknown initial condition kind {kind!r}")
    d_hat, u_hat = fftn_norm(d, grid.dim), fftn_norm(u, grid.dim)
    return StepState(VectorField.from_coefficients(grid, d_hat),
                     VectorField.from_coefficients(grid, u_hat), time=0.0)
