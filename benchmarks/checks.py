"""Output checks for one benchmark round.

Every check is a property the method must have, computed here rather than
read back from the solver: the energy law is re-derived from the CSV channels
with an initial energy computed by this module, solenoidality uses numpy's FFT
directly, and the last step is re-certified from two full-state snapshots.
Each check returns the set of step numbers it fails, so a round can count
failed operations step by step.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from nemflow.energetics import ModelParams
from nemflow.fields import GridSpec, VectorField
from nemflow.initial import initial_condition
from nemflow.snapshots import read_snapshot
from nemflow.stepper import StepState, residual_fully_implicit

CHANNELS = ("D_visc", "D_friction", "D_eps", "J_grad", "J_d", "J_u")
_SNAPSHOT = re.compile(r"snap_(\d+)\.nemf$")


def read_trace(text: str) -> list[dict[str, float]]:
    lines = text.splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, map(float, line.split(",")))) for line in lines[1:]]


def _wavenumbers(n: int, dim: int) -> np.ndarray:
    k = np.fft.fftfreq(n, d=1.0 / n)
    return np.stack(np.meshgrid(*([k] * dim), indexing="ij"))


def initial_energy(spec: dict, seed: int) -> float:
    """Total energy of the program's initial state, by independent quadrature.

    Elastic and kinetic parts are Parseval sums.  The well integrand is
    quartic, so it is sampled on a grid of 2n points per axis, which
    integrates it exactly for any director without Nyquist content.
    """
    dim, n = spec["dim"], spec["n"]
    state = initial_condition(spec["ic.kind"], GridSpec(dim, n, spec["dealias"]),
                              seed, spec["ic.amplitude"])
    d, u = state.d.values, state.u.values
    axes = tuple(range(1, dim + 1))
    d_hat = np.fft.fftn(d, axes=axes) / n**dim
    k2 = np.sum(_wavenumbers(n, dim) ** 2, axis=0)
    elastic = 0.5 * float(np.sum(4.0 * np.pi**2 * k2 * np.abs(d_hat) ** 2))
    m = 2 * n
    big = np.zeros((dim,) + (m,) * dim, dtype=complex)
    slots = np.r_[0:n // 2, m - n // 2:m]  # fft-order position of each mode on the fine grid
    big[(slice(None),) + np.ix_(*([slots] * dim))] = d_hat
    d_fine = np.fft.ifftn(big * m**dim, axes=axes).real
    well = float(np.mean((np.sum(d_fine**2, axis=0) - 1.0) ** 2)) / (4.0 * spec["gamma"])
    kinetic = 0.5 * spec["rho"] * float(np.mean(np.sum(u * u, axis=0)))
    return elastic + well + kinetic


def energy_law_failures(rows: list[dict[str, float]], e0: float, tol: float) -> set[int]:
    """Steps whose recomputed slack E_prev - E - (dissipation + jumps) falls
    below -10 tol (1 + E0), whose E_total is not the sum of its three parts,
    or that report a negative or non-finite channel."""
    budget = 10.0 * tol * (1.0 + e0)
    failed = set()
    e_prev = e0
    for row in rows:
        energy = row["E_total"]
        parts = row["E_elastic"] + row["E_well"] + row["E_kinetic"]
        slack = e_prev - energy - sum(row[c] for c in CHANNELS)
        ok = (
            np.all(np.isfinite([energy, parts] + [row[c] for c in CHANNELS]))
            and min(row[c] for c in CHANNELS) >= 0.0
            and abs(energy - parts) <= 1e-12 * (1.0 + abs(energy))
            and slack >= -budget
        )
        if not ok:
            failed.add(int(row["step"]))
        e_prev = energy
    return failed


def snapshot_steps(snapshot_dir: Path) -> dict[int, Path]:
    out = {}
    for path in Path(snapshot_dir).iterdir():
        match = _SNAPSHOT.search(path.name)
        if match:
            out[int(match.group(1))] = path
    return dict(sorted(out.items()))


def solenoidal_failures(snapshots: dict[int, Path]) -> set[int]:
    """Steps whose snapshot velocity has max_k |k . u_hat(k)| or |u_hat(0)|
    above 1e-12 (1 + ||u||), with integer wavenumbers k."""
    failed = set()
    for step, path in snapshots.items():
        header, fields = read_snapshot(path)
        u = fields["u"]
        dim, n = header.dim, header.shape[0]
        u_hat = np.fft.fftn(u, axes=tuple(range(1, dim + 1))) / n**dim
        bound = 1e-12 * (1.0 + float(np.sqrt(np.mean(np.sum(u * u, axis=0)))))
        div = float(np.max(np.abs(np.sum(_wavenumbers(n, dim) * u_hat, axis=0))))
        mean = float(np.max(np.abs(u_hat[(slice(None),) + (0,) * dim])))
        if not (div <= bound and mean <= bound):
            failed.add(step)
    return failed


def certify_last_step(spec: dict, rows: list[dict[str, float]],
                      snapshots: dict[int, Path]) -> bool:
    """Residuals of the fully implicit system at the last accepted step, from
    the full-state snapshots of the last two steps, are within 2 tol."""
    last = int(rows[-1]["step"])
    if last < 2 or last - 1 not in snapshots or last not in snapshots:
        return False
    _, prev = read_snapshot(snapshots[last - 1])
    header, cur = read_snapshot(snapshots[last])
    grid = GridSpec(header.dim, header.shape[0], spec["dealias"])
    tau_used = rows[-1]["time"] - rows[-2]["time"]
    params = ModelParams(rho=spec["rho"], eta=spec["eta"], alpha=spec["alpha"],
                         gamma=spec["gamma"], epsilon=spec["epsilon"], tau=tau_used)
    try:
        prev_state = StepState(VectorField(grid, prev["d"]), VectorField(grid, prev["u"]))
    except ValueError:  # the stored u is not a valid (solenoidal, zero-mean) state
        return False
    candidate = tuple(VectorField(grid, cur[name]) for name in ("d", "u", "mu"))
    residuals = residual_fully_implicit(prev_state, candidate, params, grid)
    return max(residuals) <= 2.0 * spec["picard.tol"]


def trace_mismatch(reference: bytes, trace: bytes) -> set[int]:
    """Steps (1-based data rows) whose trace line differs from the reference;
    a header difference fails every step."""
    ref_lines, lines = reference.split(b"\n"), trace.split(b"\n")
    if ref_lines[0] != lines[0]:
        return set(range(1, max(len(ref_lines), len(lines))))
    return {
        i for i in range(1, max(len(ref_lines), len(lines)))
        if i >= len(ref_lines) or i >= len(lines) or ref_lines[i] != lines[i]
    }


def check_round(spec: dict, workdir: Path, e0: float, reference: bytes | None
                ) -> tuple[int, set[int], list[str], bytes]:
    """All checks for one finished round with CLI exit status 0.

    Returns (steps attempted, failed steps, reasons, trace bytes).
    """
    trace = (workdir / spec["output.trace_path"]).read_bytes()
    rows = read_trace(trace.decode("utf-8"))
    nominal = round(spec["t_end"] / spec["tau"])
    attempted = max(len(rows), nominal)
    reasons = []
    failed = set()

    if not rows or rows[-1]["time"] < spec["t_end"] - 1e-9 * spec["tau"]:
        reasons.append("run stopped before t_end")
        return attempted, set(range(1, attempted + 1)), reasons, trace

    bad = energy_law_failures(rows, e0, spec["picard.tol"])
    if bad:
        reasons.append(f"energy law fails at steps {sorted(bad)[:5]}")
    failed |= bad

    snapshots = snapshot_steps(workdir / spec["output.snapshot_dir"])
    missing = {int(r["step"]) for r in rows} - set(snapshots)
    if missing:
        reasons.append(f"snapshots missing for steps {sorted(missing)[:5]}")
    failed |= missing
    bad = solenoidal_failures(snapshots)
    if bad:
        reasons.append(f"u not solenoidal or not zero-mean at steps {sorted(bad)[:5]}")
    failed |= bad

    if not certify_last_step(spec, rows, snapshots):
        reasons.append("last step fails residual certification")
        failed.add(int(rows[-1]["step"]))

    if reference is not None:
        bad = trace_mismatch(reference, trace)
        if bad:
            reasons.append(f"trace differs from the first round at rows {sorted(bad)[:5]}")
        failed |= bad
    return attempted, failed, reasons, trace
