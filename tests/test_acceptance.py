"""Acceptance suite: every criterion at its stated tolerance.

The long energy-law run (criteria 1, 2, 5) is executed once per session and
shared.  Each test prints one PASS/FAIL line; run with `pytest -v
tests/test_acceptance.py` (add -s to see the lines on success).
"""

import time
from dataclasses import dataclass

import numpy as np
import pytest

from nemflow.config import parse_config
from nemflow.coupling import director_transport_hat
from nemflow.diagnostics import director_length_stats, spectral_divergence_max
from nemflow.energetics import ModelParams, chemical_potential, total_energy
from nemflow.fields import GridSpec, VectorField, ifftn_norm, laplace_symbol
from nemflow.initial import initial_condition
from nemflow.operators import grad_hat, leray_hat, padded_bundle
from nemflow.runner import _extrapolated_guess, run_simulation
from nemflow.snapshots import read_snapshot, write_snapshot
from nemflow.stepper import (
    PicardConfig,
    StepState,
    implicit_step,
    residual_fully_implicit,
)
import oracle
from util import (
    band_limited,
    l2_inner,
    l2_norm,
    mu_field,
    perturbed_director,
    solenoidal,
    transport_only_run,
    zero_field,
)


def _report(name: str, passed: bool) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if passed else 'FAIL'}")


@dataclass
class LongRun:
    e0: float
    tol: float
    params: ModelParams
    steps: list  # (prev_state, result)
    elapsed: float


@pytest.fixture(scope="session")
def long_run() -> LongRun:
    """Criterion-1 configuration: 200 implicit steps at n=32, exact mode."""
    grid = GridSpec(2, 32, "exact")
    params = ModelParams(rho=1.0, eta=1.0, alpha=0.3, gamma=0.1, epsilon=0.01, tau=1e-3)
    cfg = PicardConfig(tol=1e-11, max_iter=60)
    state = initial_condition("uniform_perturbed", grid, seed=7, amplitude=0.2)
    e0 = total_energy(state.d, state.u, params).total
    steps = []
    prev_state = None
    start = time.perf_counter()
    for _ in range(200):
        guess = _extrapolated_guess(state, prev_state)
        result = implicit_step(state, params, cfg, guess=guess)
        steps.append((state, result))
        prev_state = state
        state = result.state
    elapsed = time.perf_counter() - start
    return LongRun(e0=e0, tol=cfg.tol, params=params, steps=steps, elapsed=elapsed)


def test_criterion_1_discrete_energy_law(long_run):
    budget = 10.0 * long_run.tol * (1.0 + long_run.e0)
    slacks = [r.ledger.slack for _, r in long_run.steps]
    taus = {r.tau_used for _, r in long_run.steps}
    ok = (
        len(long_run.steps) == 200
        and all(s >= -budget for s in slacks)
        and taus == {long_run.params.tau}
        and long_run.elapsed < 60.0
    )
    _report("1 discrete energy law (200 steps, slack >= -budget)", ok)
    assert len(long_run.steps) == 200
    assert taus == {long_run.params.tau}
    assert min(slacks) >= -budget
    assert long_run.elapsed < 60.0


def test_criterion_2_solenoidality(long_run):
    worst = 0.0
    ok = True
    for _, result in long_run.steps:
        u = result.state.u
        bound = 1e-12 * (1.0 + l2_norm(u))
        div = spectral_divergence_max(u)
        worst = max(worst, div)
        ok &= div <= bound
    _report(f"2 solenoidality (max mode divergence {worst:.2e})", ok)
    assert ok


def test_criterion_3_length_mechanism():
    grid = GridSpec(2, 16, "exact")
    pairing_ok = True
    for trial in range(100):
        d = band_limited(grid, 2, seed=1000 + trial, kcut=5)
        w = solenoidal(grid, seed=2000 + trial, kcut=5)
        pair = (padded_bundle(d.coeffs, grid), padded_bundle(w.coeffs, grid))
        t = VectorField.from_coefficients(grid, director_transport_hat(pair, 0.5, grid))
        pairing = abs(l2_inner(d, t))
        bound = 1e-12 * l2_inner(d, d) * max(l2_norm(w), 1e-30)
        pairing_ok &= pairing <= bound

    grid32 = GridSpec(2, 32, "exact")
    x = grid32.meshgrid()
    phi = 0.4 * np.sin(2 * np.pi * x[0]) * np.cos(2 * np.pi * x[1])
    d0 = VectorField(grid32, np.stack([np.cos(phi), np.sin(phi)]))
    w = solenoidal(grid32, seed=5, kcut=2, scale=0.5)
    final = transport_only_run(d0, w, alpha=0.5, tau=1e-4, steps=100)
    stats = director_length_stats(final.values)
    drift = max(1.0 - stats.min, stats.max - 1.0)
    ok = pairing_ok and drift <= 1e-6
    _report(f"3 alpha=1/2 length mechanism (drift {drift:.2e})", ok)
    assert pairing_ok
    assert drift <= 1e-6


@pytest.mark.parametrize("dim,n", [(2, 8), (3, 4)])
def test_criterion_4_oracle_equivalence(dim, n):
    grid = GridSpec(dim, n, "exact")
    kcut = n // 2 - 1
    worst = 0.0  # worst error relative to the operator output scale

    def rel(got, want):
        return float(np.max(np.abs(got - want))) / (1.0 + float(np.max(np.abs(want))))

    for trial in range(20):
        f = band_limited(grid, 1, seed=100 + trial, kcut=kcut)
        grad = ifftn_norm(grad_hat(f.coeffs, grid), dim)
        for j in range(dim):
            mat = oracle.dense_operator_matrix(grid, f"gradient_{j + 1}")
            want = (mat @ f.values[0].ravel()).real
            worst = max(worst, rel(grad[0, j].ravel(), want))
        mat = oracle.dense_operator_matrix(grid, "laplacian")
        lap = ifftn_norm(-laplace_symbol(grid) * f.coeffs, dim)
        worst = max(worst, rel(lap[0].ravel(), mat @ f.values[0].ravel()))
        w = band_limited(grid, dim, seed=300 + trial, kcut=kcut)
        mat = oracle.dense_operator_matrix(grid, "divergence")
        div = ifftn_norm(np.einsum("jj...->...", grad_hat(w.coeffs, grid)), dim)
        worst = max(worst, rel(div.ravel(), mat @ w.values.reshape(-1)))
        mat = oracle.dense_operator_matrix(grid, "leray")
        proj = ifftn_norm(leray_hat(w.coeffs, grid), dim)
        worst = max(worst, rel(proj.reshape(-1), mat @ w.values.reshape(-1)))
    ops_ok = worst <= 1e-12

    params = ModelParams(alpha=0.3, gamma=0.1, epsilon=0.01, tau=1e-3)
    energy_err = 0.0
    for trial in range(5):
        d = perturbed_director(grid, seed=400 + trial, amplitude=0.25, kcut=kcut)
        u = solenoidal(grid, seed=500 + trial, kcut=kcut, scale=0.3)
        ours = total_energy(d, u, params)
        ref = oracle.quadrature_energy(d, u, params)
        energy_err = max(energy_err, abs(ours.elastic - ref.elastic),
                         abs(ours.well - ref.well), abs(ours.kinetic - ref.kinetic))
    energy_ok = energy_err <= 1e-11

    prev = StepState(
        perturbed_director(grid, seed=600, amplitude=0.2, kcut=kcut),
        solenoidal(grid, seed=601, kcut=kcut, scale=0.2),
    )
    result = implicit_step(prev, params, PicardConfig(tol=1e-11))
    cand = (result.state.d, result.state.u, mu_field(result))
    prod = residual_fully_implicit(prev, cand, params)
    dense = oracle.dense_scheme_residual(prev.d, prev.u, cand, params)
    resid_err = max(abs(a - b) for a, b in zip(prod, dense))
    resid_ok = all(abs(a - b) <= 1e-10 for a, b in zip(prod, dense))

    ok = ops_ok and energy_ok and resid_ok
    _report(
        f"4 oracle equivalence dim={dim} "
        f"(ops {worst:.1e}, energy {energy_err:.1e}, residual {resid_err:.1e})",
        ok,
    )
    assert ops_ok
    assert energy_ok
    assert resid_ok


def test_criterion_5_implicit_system_certification(long_run):
    residuals = [r for prev, result in long_run.steps
                 for r in residual_fully_implicit(
                     prev, (result.state.d, result.state.u, mu_field(result)), long_run.params)]
    worst = np.max(residuals)  # nan if any residual is nan
    ok = all(r <= 2.0 * long_run.tol for r in residuals)
    _report(f"5 implicit-system certification (max residual {worst:.2e})", ok)
    assert ok


def test_criterion_6_variational_consistency():
    grid = GridSpec(2, 16, "exact")
    params = ModelParams(gamma=0.1)
    d = perturbed_director(grid, seed=77, amplitude=0.3, kcut=3)
    zero_u = zero_field(grid, 2)

    def internal(values):
        return total_energy(VectorField(grid, values), zero_u, params).total

    mu = chemical_potential(d, d, params)
    worst_order = np.inf
    for i in range(10):
        delta = band_limited(grid, 2, seed=800 + i, kcut=3)
        pairing = l2_inner(mu, delta)
        errs = []
        for h in (1e-3, 1e-4):
            fd = (internal(d.values + h * delta.values)
                  - internal(d.values - h * delta.values)) / (2.0 * h)
            errs.append(abs(fd - pairing))
        worst_order = min(worst_order, np.log10(errs[0] / errs[1]))
    ok = worst_order >= 1.9
    _report(f"6 variational consistency (worst FD order {worst_order:.3f})", ok)
    assert ok


def test_criterion_7_temporal_self_convergence():
    grid = GridSpec(2, 16, "exact")
    horizon = 0.02
    base = dict(rho=1.0, eta=1.0, alpha=0.3, gamma=0.1, epsilon=0.01)
    cfg = PicardConfig(tol=1e-12, max_iter=80)

    # smooth initial state: integrate briefly with a small step so the
    # director has settled onto its slow manifold (the raw perturbation sits
    # in a stiff initial layer where no fixed-step method is asymptotic yet)
    prep = initial_condition("uniform_perturbed", grid, seed=11, amplitude=0.2)
    prep_params = ModelParams(tau=2e-4, **base)
    for _ in range(50):
        prep = implicit_step(prep, prep_params, cfg).state
    start = StepState(prep.d, prep.u, 0.0)

    def solve(tau):
        params = ModelParams(tau=tau, **base)
        state = start
        n_steps = round(horizon / tau)
        for _ in range(n_steps):
            state = implicit_step(state, params, cfg).state
        return state

    states = [solve(tau) for tau in (2e-3, 1e-3, 5e-4)]
    rates = {}
    for name, pick in (("d", lambda s: s.d.values), ("u", lambda s: s.u.values)):
        d1 = np.sqrt(np.mean((pick(states[0]) - pick(states[1])) ** 2))
        d2 = np.sqrt(np.mean((pick(states[1]) - pick(states[2])) ** 2))
        rates[name] = np.log2(d1 / d2)
    ok = all(0.7 <= r <= 1.3 for r in rates.values())
    _report(f"7 temporal self-convergence (rates d={rates['d']:.3f} u={rates['u']:.3f})", ok)
    assert ok


def test_criterion_8_determinism_and_formats(tmp_path):
    text = """
dim = 2
n = 16
dealias = exact
alpha = 0.3
gamma = 0.1
epsilon = 0.01
tau = 1e-3
t_end = 5e-3
picard.tol = 1e-10
ic.kind = uniform_perturbed
ic.seed = 7
ic.amplitude = 0.2
output.snapshot_every = 1
"""
    outputs = []
    for tag in ("a", "b"):
        trace = tmp_path / tag / "trace.csv"
        snaps = tmp_path / tag / "snaps"
        cfg = parse_config(
            text
            + f"output.trace_path = {trace}\n"
            + f"output.snapshot_dir = {snaps}\n"
        )
        report = run_simulation(cfg)
        assert report.status == 0
        snap_bytes = [p.read_bytes() for p in sorted(snaps.iterdir())]
        outputs.append((trace.read_bytes(), snap_bytes))
    identical = outputs[0][0] == outputs[1][0] and outputs[0][1] == outputs[1][1]

    rng = np.random.default_rng(3)
    fields = {"d": rng.normal(size=(2, 16, 16)), "u": rng.normal(size=(2, 16, 16))}
    p1 = tmp_path / "x.nemf"
    write_snapshot(p1, (16, 16), fields)
    _, loaded = read_snapshot(p1)
    p2 = tmp_path / "y.nemf"
    write_snapshot(p2, (16, 16), loaded)
    roundtrip = p1.read_bytes() == p2.read_bytes()

    ok = identical and roundtrip
    _report("8 determinism and formats (bitwise CSV/snapshots, roundtrip)", ok)
    assert identical
    assert roundtrip
