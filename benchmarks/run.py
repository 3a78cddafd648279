"""nemflow benchmark: time to t_end, per-step cost and per-layer solver counters.

    python3 benchmarks/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  A run repeats whole rounds of one workload
until --seconds have passed.  A round is one fresh process (round.py) that
runs the generated config through ``nemflow.cli.main(["run", ...])``; the
program sees nothing but the config file.  The seed picks the run's ensemble
of ENSEMBLE initial states (``ic.seed = seed * ENSEMBLE + j``); untraced
rounds cycle through them, and every run returns to at least one state, so
its trace can be compared byte for byte.  Every round's outputs are checked
(checks.py) and each simulated step counts as one operation attempted; a step
fails on a non-zero exit or on any failed check.

--trace 0 reports the end-to-end metrics over all rounds.  --trace 1
alternates untraced and traced rounds of the ensemble's first state and
reports the per-layer metrics of the traced ones (tracing.py), plus the
tracing overhead.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# One run, rounds included, must end well inside 180 s.
HARD_LIMIT_S = 170.0
# Set-up-only processes after each round of an untraced run: set-up is short
# and noisy, so setup_s is the median over these and the rounds themselves.
SETUP_PROBES = 2
# Initial states per run.  The solver's work depends on the initial state
# (cube-3d-n16: 61-70 matvecs over seeds 1-15), so the end-to-end figures
# are medians over an ensemble of states rather than a draw from one.
ENSEMBLE = 4

# numpy's FFT is single-threaded; the solver's BLAS calls are small batched
# inverses and dot products, where extra threads only add scheduling noise.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

COMMON = {
    "rho": 1.0,
    "eta": 1.0,
    "alpha": 0.3,
    "gamma": 0.1,
    "epsilon": 0.01,
    "tau": 1e-3,
    "picard.max_iter": 60,
    "picard.tau_shrink": 0.5,
    "ic.kind": "uniform_perturbed",
    "output.trace_path": "trace.csv",
    "output.snapshot_dir": "snapshots",
    "output.snapshot_every": 1,
    "output.full_state": True,
}

# Every step writes a full-state snapshot, so the last step can be certified
# from the two snapshots around it and every u can be checked.
WORKLOADS = {
    "cube-3d-n16": {
        "dim": 3, "n": 16, "dealias": "exact", "ic.amplitude": 0.05,
        "picard.tol": 1e-10, "t_end": 0.008,
    },
    "quiet-2d-n128": {
        "dim": 2, "n": 128, "dealias": "two_thirds", "ic.amplitude": 0.005,
        "picard.tol": 1e-10, "t_end": 0.012,
    },
    # The two workloads below run by name but are not in BENCHMARK.json: the
    # mean-director preconditioner makes their cost depend on the initial
    # state.  relax-2d-n32-exact needs 0.8k-1.9k matvecs over seeds 1-23, so
    # even the median over a four-state ensemble moves by 10-25% from one
    # seed to the next.
    "relax-2d-n32-exact": {
        "dim": 2, "n": 32, "dealias": "exact", "ic.amplitude": 0.2,
        "picard.tol": 1e-11, "t_end": 0.1,
    },
    # stiff-2d-n64 costs about five times more on some seeds than on others.
    "stiff-2d-n64": {
        "dim": 2, "n": 64, "dealias": "two_thirds", "ic.amplitude": 0.1,
        "picard.tol": 1e-10, "t_end": 0.004,
    },
}
DEFAULT_SEED = 7

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "step_ms_p50": "ms", "peak_rss_mb": "MiB"}
# per-layer counts that must repeat exactly from one traced round to the next
EXACT_COUNTS = (
    "stepper.steps", "stepper.attempts", "stepper.residual_evals", "stepper.matvecs",
    "coupling.calls", "operators.padded_transforms", "fields.fft_calls",
    "fields.fft_elements", "snapshots.files", "snapshots.bytes", "runner.trace_bytes",
)


def workload_spec(name: str) -> dict:
    return {**COMMON, **WORKLOADS[name]}


def config_text(spec: dict, seed: int) -> str:
    def fmt(value):
        return ("true" if value else "false") if isinstance(value, bool) else str(value)

    lines = [f"{key} = {fmt(value)}" for key, value in spec.items()]
    lines.append(f"ic.seed = {seed}")
    return "\n".join(lines) + "\n"


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_round(workdir: Path, config: str, mode: str, timeout: float) -> dict:
    """Run one round process in mode run, trace or setup (see round.py);
    returns its result dict, or {"error": ...}."""
    workdir.mkdir(parents=True)
    (workdir / "run.cfg").write_text(config, encoding="utf-8")
    cmd = [sys.executable, str(HERE / "round.py"), "run.cfg", "result.json", mode]
    with open(workdir / "log.txt", "wb") as log:
        spawned = monotonic()
        proc = subprocess.Popen(cmd, cwd=workdir, stdout=log, stderr=subprocess.STDOUT,
                                env={**os.environ, **THREAD_ENV})
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return {"error": f"killed after {timeout:.0f} s", "timed_out": True}
    if code != 0:
        return {"error": f"round process exited {code}, see {workdir / 'log.txt'}"}
    result = json.loads((workdir / "result.json").read_text(encoding="utf-8"))
    result["setup_s"] = result["first_step"] - spawned
    result["run_s"] = result["returned"] - result["first_step"]
    return result


def output_sizes(spec: dict, workdir: Path) -> dict[str, tuple[float, str]]:
    snaps = [p for p in (workdir / spec["output.snapshot_dir"]).iterdir() if p.is_file()]
    return {
        "snapshots.files": (len(snaps), "count"),
        "snapshots.bytes": (sum(p.stat().st_size for p in snaps), "bytes"),
        "runner.trace_bytes": ((workdir / spec["output.trace_path"]).stat().st_size, "bytes"),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import checks  # imports nemflow, so only after main() has put src/ on sys.path

    spec = workload_spec(name)
    states = [seed * ENSEMBLE + j for j in range(ENSEMBLE)]
    configs = [config_text(spec, s) for s in states]
    e0 = [checks.initial_energy(spec, s) for s in states]
    nominal = round(spec["t_end"] / spec["tau"])
    # traced runs stay on one state, so counts must repeat across traced rounds
    min_rounds = 2 if trace else ENSEMBLE + 1
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)

    start = monotonic()
    plain, traced_rounds = [], []
    setups: list[float] = []
    attempted = failed = 0
    references: dict[int, bytes] = {}
    problems: list[str] = []
    k = 0
    while True:
        mode = "trace" if trace and k % 2 == 1 else "run"
        j = 0 if trace else k % ENSEMBLE
        config = configs[j]
        workdir = work / f"round-{k:02d}"
        result = run_round(workdir, config, mode, max(1.0, HARD_LIMIT_S - (monotonic() - start)))
        if "error" in result:
            steps, bad, reasons = nominal, set(range(1, nominal + 1)), [result["error"]]
        elif result["status"] != 0:
            steps, bad = nominal, set(range(1, nominal + 1))
            reasons = [f"nemflow exited {result['status']}"]
        else:
            steps, bad, reasons, trace_bytes = checks.check_round(
                spec, workdir, e0[j], references.get(j))
            references.setdefault(j, trace_bytes)
            if mode == "trace":
                result["layers"].update(output_sizes(spec, workdir))
            (traced_rounds if mode == "trace" else plain).append(result)
            shutil.rmtree(workdir / spec["output.snapshot_dir"])
        attempted += steps
        failed += len(bad)
        problems += [f"round {k}: {r}" for r in reasons]
        print(f"round {k} {mode} ic.seed {states[j]}: steps {steps} failed {len(bad)}"
              + (f" setup {result['setup_s']:.3f} s run {result['run_s']:.3f} s"
                 if "run_s" in result else ""), flush=True)
        if not trace:
            if "setup_s" in result:
                setups.append(result["setup_s"])
            for j in range(SETUP_PROBES):
                probe_dir = work / f"setup-{k:02d}-{j}"
                probe = run_round(probe_dir, config, "setup",
                                  max(1.0, HARD_LIMIT_S - (monotonic() - start)))
                if "error" in probe:
                    problems.append(f"set-up probe {k}-{j}: {probe['error']}")
                else:
                    setups.append(probe["setup_s"])
                    shutil.rmtree(probe_dir)
        k += 1
        if (monotonic() - start >= seconds and k >= min_rounds) or result.get("timed_out"):
            break

    for line in problems:
        print(f"FAILED {line}", flush=True)
    correct = failed == 0 and bool(plain)
    metrics: dict[str, dict] = {}
    if plain and not trace:
        e2e = {
            "setup_s": statistics.median(setups),
            "run_s": statistics.median(r["run_s"] for r in plain),
            "step_ms_p50": 1e3 * statistics.median(s for r in plain for s in r["step_s"]),
            "peak_rss_mb": statistics.median(r["peak_rss_kib"] for r in plain) / 1024.0,
        }
        metrics = {key: {"value": v, "unit": END_TO_END_UNITS[key]} for key, v in e2e.items()}
    if trace:
        correct = correct and bool(traced_rounds)
        layers = {}
        if traced_rounds:
            first = traced_rounds[0]["layers"]
            for key in EXACT_COUNTS:
                if any(r["layers"][key][0] != first[key][0] for r in traced_rounds[1:]):
                    print(f"FAILED count {key} differs between traced rounds", flush=True)
                    correct = False
            for key, (_, unit) in first.items():
                layers[key] = (statistics.median(r["layers"][key][0] for r in traced_rounds), unit)
            traced_run = statistics.median(r["run_s"] for r in traced_rounds)
            layers["trace.run_s"] = (traced_run, "s")
            if plain:
                untraced_run = statistics.median(r["run_s"] for r in plain)
                layers["trace.overhead_s"] = (traced_run - untraced_run, "s")
        metrics = {key: {"value": v, "unit": u} for key, (v, u) in layers.items()}
    print(f"attempted {attempted} failed {failed}", flush=True)
    for key, entry in metrics.items():
        print(f"{key} {entry['value']:.6g} {entry['unit']}", flush=True)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "nemflow" / "__init__.py").is_file():
        print(f"nemflow sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import nemflow

    if Path(nemflow.__file__).resolve().parent != SRC / "nemflow":
        print(f"imported nemflow from {nemflow.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        print(f"== {name} seed {args.seed}", flush=True)
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
