"""Simulation driver: step loop, energy-trace CSV, snapshot emission.

The CSV schema is fixed; float cells use Python's shortest round-trip repr so
identical runs produce identical bytes.  Snapshots hold d and u (plus mu and
the extra velocity when output.full_state is set).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

from .config import RunConfig
from .diagnostics import check_energy_inequality, director_length_stats, h2_diagnostic
from .energetics import total_energy_hat
from .fields import NonFiniteError
from .initial import initial_condition
from .operators import leray_hat, max_mode_divergence
from .snapshots import write_snapshot
from .stepper import PicardDivergenceError, StepState, implicit_step

CSV_HEADER = (
    "step,time,E_total,E_elastic,E_well,E_kinetic,D_visc,D_friction,D_eps,"
    "J_grad,J_d,J_u,slack,picard_iters,picard_residual,min_len,max_len,"
    "div_u_max,h2_d"
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_IO = 4
EXIT_ENERGY = 5


@dataclass(frozen=True)
class RunReport:
    status: int
    steps: int
    final_time: float
    trace_path: Path
    snapshot_paths: tuple[Path, ...]
    energy_checks_passed: bool
    failure: str | None = None


def _fmt(x) -> str:
    if isinstance(x, int):
        return str(x)
    return repr(float(x))


def _csv_row(step: int, ledger, stats, div_u: float, h2: float) -> str:
    cells = [
        step,
        ledger.time,
        ledger.e_total,
        ledger.e_elastic,
        ledger.e_well,
        ledger.e_kinetic,
        ledger.d_visc,
        ledger.d_friction,
        ledger.d_eps,
        ledger.j_grad,
        ledger.j_d,
        ledger.j_u,
        ledger.slack,
        ledger.picard_iters,
        ledger.picard_residual,
        stats.min,
        stats.max,
        div_u,
        h2,
    ]
    return ",".join(_fmt(c) for c in cells)


def _extrapolated_guess(state: StepState, prev: StepState | None) -> StepState | None:
    """Linear extrapolation in time as a solver warm start."""
    if prev is None:
        return None
    grid = state.grid
    u_hat = leray_hat(2.0 * state.u.coeffs - prev.u.coeffs, grid)
    return StepState.from_coefficients(grid, 2.0 * state.d.coeffs - prev.d.coeffs, u_hat, state.time)


def run_simulation(cfg: RunConfig) -> RunReport:
    """Step from t=0 to t_end, writing one CSV row per accepted step.

    Each step tries the configured tau first and shrinks it on failure; the
    last step is shortened to end at t_end, so the run never overshoots it.

    Returns a report carrying the exit status: 0 on success, 3 on solver
    failure (partial outputs are kept), 4 on I/O errors, 5 when every step
    was taken but the discrete energy law failed on some step (outputs are
    kept).
    """
    grid = cfg.grid
    state = initial_condition(cfg.ic.kind, grid, cfg.ic.seed, cfg.ic.amplitude)
    e0 = total_energy_hat(state.d.coeffs, state.u.coeffs, cfg.params, grid).total
    budget = 10.0 * cfg.picard.tol * (1.0 + e0)

    trace_path = Path(cfg.output.trace_path)
    snap_dir = Path(cfg.output.snapshot_dir)
    snapshots: list[Path] = []
    checks_ok = True
    failure = None
    status = EXIT_OK
    step = 0
    prev_state: StepState | None = None

    try:
        if trace_path.parent != Path(""):
            trace_path.parent.mkdir(parents=True, exist_ok=True)
        if cfg.output.snapshot_every > 0:
            snap_dir.mkdir(parents=True, exist_ok=True)
        # line buffered: every row reaches the file as soon as it is written
        with open(trace_path, "w", encoding="utf-8", newline="\n", buffering=1) as trace:
            trace.write(CSV_HEADER + "\n")
            while state.time < cfg.t_end - 1e-9 * cfg.params.tau:
                guess = _extrapolated_guess(state, prev_state)
                params, picard = cfg.params, cfg.picard
                remaining = cfg.t_end - state.time
                if remaining < params.tau - 1e-9 * params.tau:
                    params = replace(params, tau=remaining)
                    if picard.tau_min is not None and picard.tau_min > remaining:
                        picard = replace(picard, tau_min=remaining)
                try:
                    result = implicit_step(state, params, picard, guess=guess)
                except (PicardDivergenceError, NonFiniteError) as exc:
                    failure = f"step {step + 1}: {exc}"
                    status = EXIT_SOLVER
                    break
                step += 1
                prev_state = state
                state = result.state
                stats = director_length_stats(state.d)
                div_u = max_mode_divergence(state.u.coeffs, grid)
                h2 = h2_diagnostic(state.d.coeffs, grid)
                trace.write(_csv_row(step, result.ledger, stats, div_u, h2) + "\n")
                if not check_energy_inequality(result.ledger, budget).passed:
                    checks_ok = False
                if cfg.output.snapshot_every > 0 and step % cfg.output.snapshot_every == 0:
                    fields = {"d": state.d.values, "u": state.u.values}
                    if cfg.output.full_state:
                        fields["mu"] = result.mu.values
                        fields["v"] = result.v_extra.values
                    snap_path = snap_dir / f"snap_{step:06d}.nemf"
                    write_snapshot(snap_path, grid.shape, fields)
                    snapshots.append(snap_path)
    except OSError as exc:
        return RunReport(EXIT_IO, step, state.time, trace_path, tuple(snapshots),
                         checks_ok, failure=str(exc))

    if status == EXIT_OK and not checks_ok:
        status = EXIT_ENERGY
    return RunReport(status, step, state.time, trace_path, tuple(snapshots),
                     checks_ok, failure=failure)
