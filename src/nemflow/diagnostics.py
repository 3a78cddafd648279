"""Per-step energy bookkeeping and structure diagnostics.

The ledger materialises every channel of the discrete energy balance: the
three energy parts before and after the step, the dissipation channels
(viscous, friction against the extra velocity, chemical-potential
relaxation), and the numerical jump terms.  Their signed balance, the slack,
certifies the energy inequality step by step.

j_d is recorded with the exact 1/(2 gamma) factor produced by the quadratic
concave part of the splitting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .energetics import ModelParams, elastic_energy_hat, kinetic_energy_hat, total_energy_hat
from .fields import GridSpec, VectorField, laplace_symbol, parseval_sum
from .operators import grad_hat, max_mode_divergence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .stepper import StepState


@dataclass(frozen=True)
class EnergyLedger:
    """One row of the per-step energy balance.

    The fields are declared in the energy trace's column order: the runner
    writes them as the columns time through picard_residual, and the
    remaining columns (min_len through h2_d) come from this module's
    director_length_stats, spectral_divergence_max and h2_diagnostic.
    """

    time: float
    e_total: float
    e_elastic: float
    e_well: float
    e_kinetic: float
    d_visc: float
    d_friction: float
    d_eps: float
    j_grad: float
    j_d: float
    j_u: float
    slack: float
    picard_iters: int
    picard_residual: float


class LengthStats(NamedTuple):
    min: float
    max: float


def build_ledger(
    prev: "StepState",
    cur: "StepState",
    mu_hat: np.ndarray,
    v_hat: np.ndarray,
    params: ModelParams,
    *,
    picard_iters: int,
    picard_residual: float,
) -> EnergyLedger:
    """Assemble every term of the energy balance for the step prev -> cur.

    Everything comes from coefficients, the states' own and the solver's
    mu_hat and v_hat.  All quadratic terms are Parseval sums; the well
    integral uses the same dealiased quadrature as the stepper, so in exact
    mode the recorded slack reduces to the (nonnegative) convexity gap plus
    solver residual.
    """
    grid = cur.grid
    tau = params.tau
    d_hat, u_hat, dp_hat, up_hat = cur.d.coeffs, cur.u.coeffs, prev.d.coeffs, prev.u.coeffs
    energy = total_energy_hat(d_hat, u_hat, params, grid)
    prev_total = total_energy_hat(dp_hat, up_hat, params, grid).total

    g = grad_hat(u_hat, grid)
    sym = 0.5 * (g + np.swapaxes(g, 0, 1))
    d_visc = 2.0 * params.eta * tau * parseval_sum(np.abs(sym) ** 2)
    d_friction = tau * parseval_sum(np.abs(v_hat) ** 2)
    d_eps = params.epsilon * tau * parseval_sum(np.abs(mu_hat) ** 2)

    dd = d_hat - dp_hat
    j_grad = elastic_energy_hat(dd, grid)
    j_d = parseval_sum(np.abs(dd) ** 2) / (2.0 * params.gamma)
    j_u = kinetic_energy_hat(u_hat - up_hat, params.rho)

    slack = prev_total - energy.total - (d_visc + d_friction + d_eps + j_grad + j_d + j_u)

    return EnergyLedger(
        time=cur.time,
        e_total=energy.total,
        e_elastic=energy.elastic,
        e_well=energy.well,
        e_kinetic=energy.kinetic,
        d_visc=d_visc,
        d_friction=d_friction,
        d_eps=d_eps,
        j_grad=j_grad,
        j_d=j_d,
        j_u=j_u,
        slack=slack,
        picard_iters=picard_iters,
        picard_residual=picard_residual,
    )


def check_energy_inequality(ledger: EnergyLedger, budget: float) -> bool:
    """True iff slack >= -budget; a run's budget is
    10 * picard_tol * (1 + initial energy)."""
    return ledger.slack >= -budget


def director_length_stats(d: np.ndarray) -> LengthStats:
    """Pointwise |d| statistics of director samples (dim, n, ..., n): (min, max)."""
    length = np.sqrt(np.sum(d * d, axis=0))
    return LengthStats(float(np.min(length)), float(np.max(length)))


def h2_diagnostic(d_hat: np.ndarray, grid: GridSpec) -> float:
    """L2 norm of the spectral Laplacian of d, from its coefficients d_hat
    (H^2 seminorm surrogate)."""
    return float(np.sqrt(parseval_sum(laplace_symbol(grid) ** 2 * np.abs(d_hat) ** 2)))


def spectral_divergence_max(u: VectorField) -> float:
    """max_k |k . u_hat(k)| for a vector field."""
    return max_mode_divergence(u.coeffs, u.grid)
