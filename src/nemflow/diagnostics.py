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

from .coupling import director_transport_hat
from .energetics import ModelParams, total_energy_hat
from .fields import GridSpec, VectorField, laplace_symbol, parseval_sum
from .operators import grad_hat, max_mode_divergence, padded_bundle

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .stepper import StepState


@dataclass(frozen=True)
class EnergyLedger:
    """One row of the per-step energy balance."""

    time: float
    e_elastic: float
    e_well: float
    e_kinetic: float
    e_total: float
    prev_total: float
    d_visc: float
    d_friction: float
    d_eps: float
    j_grad: float
    j_d: float
    j_u: float
    slack: float
    picard_iters: int
    picard_residual: float


@dataclass(frozen=True)
class InequalityCheck:
    passed: bool
    slack: float
    budget: float


class LengthStats(NamedTuple):
    min: float
    max: float
    max_deviation: float


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
    j_grad = 0.5 * parseval_sum(laplace_symbol(grid) * np.abs(dd) ** 2)
    j_d = parseval_sum(np.abs(dd) ** 2) / (2.0 * params.gamma)
    j_u = 0.5 * params.rho * parseval_sum(np.abs(u_hat - up_hat) ** 2)

    slack = prev_total - energy.total - (d_visc + d_friction + d_eps + j_grad + j_d + j_u)

    return EnergyLedger(
        time=cur.time,
        e_elastic=energy.elastic,
        e_well=energy.well,
        e_kinetic=energy.kinetic,
        e_total=energy.total,
        prev_total=prev_total,
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


def check_energy_inequality(ledger: EnergyLedger, budget: float | None = None) -> InequalityCheck:
    """Pass iff slack >= -budget.

    Without an explicit budget, 10 * achieved-residual * (1 + previous total
    energy) is used; callers tracking a whole run should supply
    10 * picard_tol * (1 + initial energy) instead.
    """
    if budget is None:
        budget = 10.0 * ledger.picard_residual * (1.0 + ledger.prev_total)
    return InequalityCheck(ledger.slack >= -budget, ledger.slack, budget)


def director_length_stats(d: VectorField) -> LengthStats:
    """Pointwise |d| statistics: (min, max, max | |d|-1 |)."""
    length = np.sqrt(np.sum(d.values * d.values, axis=0))
    return LengthStats(
        float(np.min(length)),
        float(np.max(length)),
        float(np.max(np.abs(length - 1.0))),
    )


def h2_diagnostic(d_hat: np.ndarray, grid: GridSpec) -> float:
    """L2 norm of the spectral Laplacian of d, from its coefficients d_hat
    (H^2 seminorm surrogate)."""
    return float(np.sqrt(parseval_sum(laplace_symbol(grid) ** 2 * np.abs(d_hat) ** 2)))


def transport_only_run(
    d0: VectorField, w: VectorField, alpha: float, tau: float, steps: int
) -> VectorField:
    """Integrate d' = -T(d, w) with frozen w by classical RK4.

    Test path for the alpha = 1/2 length-conservation mechanism; no
    regularisation term enters, so it also covers the epsilon = 0 transport
    dynamics that the implicit stepper refuses.
    """
    grid = d0.grid
    w_b = padded_bundle(w.coeffs, grid)
    d_hat = d0.coeffs

    def rhs(dh):
        return -director_transport_hat([(padded_bundle(dh, grid), w_b)], alpha, grid)

    for _ in range(steps):
        k1 = rhs(d_hat)
        k2 = rhs(d_hat + 0.5 * tau * k1)
        k3 = rhs(d_hat + 0.5 * tau * k2)
        k4 = rhs(d_hat + tau * k3)
        d_hat = d_hat + (tau / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return VectorField.from_coefficients(grid, d_hat)


def spectral_divergence_max(u: VectorField) -> float:
    """max_k |k . u_hat(k)| for a vector field."""
    return max_mode_divergence(u.coeffs, u.grid)
