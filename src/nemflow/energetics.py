"""Penalty potential, convex-concave splitting, chemical potential, energies.

The length constraint |d| = 1 is relaxed by the well W(d) = (|d|^2-1)^2/(4 g).
Its variation f(d) = (|d|^2-1) d / g splits into a convex part f_plus treated
implicitly and a concave part f_minus evaluated at the previous time level;
that splitting is what makes the time stepper unconditionally energy stable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coupling import _row_blocks
from .fields import GridSpec, VectorField, laplace_symbol, parseval_sum
from .operators import band_limit_hat, from_padded, to_padded


@dataclass(frozen=True)
class ModelParams:
    """Physical and scheme constants.

    rho: mass density; eta: viscosity; alpha: molecular shape parameter
    (0.5 = spherical, corotational transport); gamma: penalty strength;
    epsilon: chemical-potential relaxation (> 0); tau: time increment.
    """

    rho: float = 1.0
    eta: float = 1.0
    alpha: float = 0.5
    gamma: float = 0.1
    epsilon: float = 0.01
    tau: float = 1e-3

    def __post_init__(self):
        if not self.rho > 0:
            raise ValueError("rho > 0 required")
        if not self.eta > 0:
            raise ValueError("eta > 0 required")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha ∈ [0,1] violated")
        if not self.gamma > 0:
            raise ValueError("gamma > 0 required")
        if not self.epsilon > 0:
            raise ValueError("epsilon > 0 required")
        if not self.tau > 0:
            raise ValueError("tau > 0 required")


@dataclass(frozen=True)
class EnergyBreakdown:
    """Total energy split into its three nonnegative parts."""

    elastic: float
    well: float
    kinetic: float
    total: float

    @staticmethod
    def of(elastic: float, well: float, kinetic: float) -> "EnergyBreakdown":
        return EnergyBreakdown(elastic, well, kinetic, elastic + well + kinetic)


# ---------------------------------------------------------------------------
# coefficient-space building blocks shared with the stepper


def f_plus_hat(d_hat: np.ndarray, grid: GridSpec, gamma: float,
               d3_p: np.ndarray | None = None) -> np.ndarray:
    """Galerkin projection of the cubic term |d|^2 d / gamma.

    Evaluated as a single triple product on a padded grid sized for degree 3,
    so it equals the exact L2 projection in "exact" dealias mode, one block of
    rows at a time; d3_p, d's samples there, is padded here if not given.
    """
    d_p = to_padded(d_hat, grid, degree=3) if d3_p is None else d3_p
    fp = _row_blocks(lambda r: np.sum(d_p[r] * d_p[r], axis=0) * d_p[r] / gamma, d_p.shape, grid)
    return from_padded(fp, grid)


def chemical_potential_hat(
    d_hat: np.ndarray, d_prev_hat: np.ndarray, grid: GridSpec, gamma: float
) -> np.ndarray:
    """mu_hat = P_k[-lap d + f_plus(d) + f_minus(d_prev)] in coefficients."""
    mu = laplace_symbol(grid) * d_hat + f_plus_hat(d_hat, grid, gamma) - d_prev_hat / gamma
    return band_limit_hat(mu, grid)


def well_integral_hat(d_hat: np.ndarray, grid: GridSpec, gamma: float) -> float:
    """Integral of W(d) by dealiased quadrature, exact in "exact" mode."""
    d_p = to_padded(d_hat, grid, degree=4)
    sq = np.sum(d_p * d_p, axis=0)
    return float(np.mean((sq - 1.0) ** 2) / (4.0 * gamma))


def elastic_energy_hat(d_hat: np.ndarray, grid: GridSpec) -> float:
    """(1/2) integral of |grad d|^2 via the Parseval sum."""
    return 0.5 * parseval_sum(laplace_symbol(grid) * np.abs(d_hat) ** 2)


def kinetic_energy_hat(u_hat: np.ndarray, rho: float) -> float:
    return 0.5 * rho * parseval_sum(np.abs(u_hat) ** 2)


def total_energy_hat(
    d_hat: np.ndarray, u_hat: np.ndarray, params: ModelParams, grid: GridSpec
) -> EnergyBreakdown:
    """Elastic + well + kinetic energy of one level from its coefficients."""
    return EnergyBreakdown.of(
        elastic_energy_hat(d_hat, grid),
        well_integral_hat(d_hat, grid, params.gamma),
        kinetic_energy_hat(u_hat, params.rho),
    )


# ---------------------------------------------------------------------------
# public operations


def chemical_potential(d: VectorField, d_prev: VectorField, params: ModelParams) -> VectorField:
    """Discrete first variation mu = P_k[-lap d + f_plus(d) + f_minus(d_prev)];
    no program path calls it, benchmarks/ traces it (ROADMAP items 3 and 7)."""
    mu = chemical_potential_hat(d.coeffs, d_prev.coeffs, d.grid, params.gamma)
    return VectorField.from_coefficients(d.grid, mu)


def total_energy(d: VectorField, u: VectorField, params: ModelParams) -> EnergyBreakdown:
    """Elastic + well + kinetic energy of a state (unit volume); no program
    path calls it, benchmarks/ traces it (ROADMAP items 3 and 7)."""
    return total_energy_hat(d.coeffs, u.coeffs, params, d.grid)
