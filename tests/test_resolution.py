"""Resolution sweep: two warm-started steps on every grid from 2D n=4 to 48
and 3D n=4 to 12, in both dealiased modes.  The energy law, solenoidality,
zero mean and the residual certificate must hold at each resolution, and no
step may shrink tau."""

import numpy as np
import pytest

from nemflow.diagnostics import check_energy_inequality
from nemflow.energetics import ModelParams, total_energy_hat
from nemflow.fields import GridSpec, spectral_l2_norm
from nemflow.initial import initial_condition
from nemflow.operators import max_mode_divergence
from nemflow.runner import _extrapolated_guess
from nemflow.stepper import PicardConfig, implicit_step, residual_fully_implicit
from util import mu_field

GRIDS = [(2, n) for n in (4, 6, 8, 12, 16, 24, 32, 48)] + [(3, n) for n in (4, 6, 8, 12)]
CASES = [(dim, n, mode) for dim, n in GRIDS for mode in ("two_thirds", "exact")]


@pytest.mark.parametrize("dim,n,mode", CASES, ids=[f"{d}d-n{n}-{m}" for d, n, m in CASES])
def test_two_steps_keep_every_invariant(dim, n, mode):
    grid = GridSpec(dim, n, mode)
    params = ModelParams(alpha=0.3, gamma=0.1, epsilon=0.01, tau=1e-3)
    cfg = PicardConfig(tol=1e-10)
    state = initial_condition("uniform_perturbed", grid, 7, 0.2)
    e0 = total_energy_hat(state.d.coeffs, state.u.coeffs, params, grid).total
    budget = 10.0 * cfg.tol * (1.0 + e0)
    older = None
    for step in (1, 2):
        result = implicit_step(state, params, cfg, guess=_extrapolated_guess(state, older))
        new = result.state
        where = f"step {step}: {result.ledger.picard_iters} evals, tau_used {result.tau_used}"
        assert result.tau_used == params.tau, where
        assert check_energy_inequality(result.ledger, budget), where
        u_hat = new.u.coeffs
        unorm = spectral_l2_norm(u_hat)
        assert max_mode_divergence(u_hat, grid) <= 1e-12 * (1.0 + unorm), where
        assert np.max(np.abs(u_hat[(slice(None),) + (0,) * dim])) <= 1e-12 * (1.0 + unorm), where
        residuals = residual_fully_implicit(state, (new.d, new.u, mu_field(result)), params)
        assert all(r <= 2.0 * cfg.tol for r in residuals), f"{where}, residuals {residuals}"
        older, state = state, new
