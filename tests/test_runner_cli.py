import dataclasses
import errno
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from nemflow import diagnostics, fields, runner, snapshots
from nemflow.cli import main as cli_main
from nemflow.config import parse_config
from nemflow.diagnostics import EnergyLedger
from nemflow.runner import CSV_HEADER, EXIT_ENERGY, run_simulation
from nemflow.snapshots import (
    SnapshotFormatError,
    read_header,
    read_snapshot,
    write_snapshot,
)
from util import refcounting_only


def _config_text(tmp_path, **overrides):
    base = {
        "dim": 2,
        "n": 16,
        "dealias": "exact",
        "alpha": 0.3,
        "gamma": 0.1,
        "epsilon": 0.01,
        "tau": 1e-3,
        "t_end": 3e-3,
        "picard.tol": 1e-10,
        "ic.kind": "uniform_perturbed",
        "ic.seed": 7,
        "ic.amplitude": 0.2,
        "output.trace_path": str(tmp_path / "trace.csv"),
        "output.snapshot_dir": str(tmp_path / "snaps"),
        "output.snapshot_every": 0,
    }
    base.update(overrides)
    return "\n".join(f"{k} = {v}" for k, v in base.items()) + "\n"


def test_three_steps_three_rows(tmp_path):
    cfg = parse_config(_config_text(tmp_path))
    report = run_simulation(cfg)
    assert report.status == 0
    lines = report.trace_path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4  # header + 3 data rows
    assert lines[1].split(",")[0] == "1"


@pytest.mark.parametrize("tau_min", [None, 1e-3])
def test_last_step_is_shortened_to_t_end(tmp_path, tau_min):
    # a configured tau_min above the shortened step is lowered to it, not an error
    extra = {} if tau_min is None else {"picard.tau_min": tau_min}
    cfg = parse_config(_config_text(tmp_path, t_end=2.5e-3, **extra))
    report = run_simulation(cfg)
    assert report.status == 0
    rows = report.trace_path.read_text().splitlines()[1:]
    assert len(rows) == 3
    assert abs(report.final_time - 2.5e-3) <= np.spacing(2.5e-3)
    assert float(rows[-1].split(",")[1]) == report.final_time


def test_step_after_tau_shrink_ends_at_t_end(tmp_path):
    # the first step halves tau; the next one used to take a full tau past t_end
    cfg = parse_config(_config_text(tmp_path, n=6, t_end=1e-3, **{"ic.kind": "defect_pair"}))
    report = run_simulation(cfg)
    assert report.status == 0
    times = [float(r.split(",")[1]) for r in report.trace_path.read_text().splitlines()[1:]]
    assert times[0] < 1e-3
    assert abs(times[-1] - 1e-3) <= np.spacing(1e-3)
    assert report.final_time == times[-1]


@pytest.mark.parametrize("n,kind", [(4, "uniform_perturbed"), (6, "random_smooth")])
def test_coarse_grid_first_step_runs(tmp_path, n, kind):
    # initial Nyquist content used to stall the first step down to tau_min (exit 3)
    text = _config_text(tmp_path, n=n, t_end=1e-3, **{"ic.kind": kind})
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(text)
    assert cli_main(["run", str(cfg_path)]) == 0
    assert len((tmp_path / "trace.csv").read_text().splitlines()) >= 2


def test_equilibrium_run(tmp_path):
    cfg = parse_config(_config_text(tmp_path, **{"ic.amplitude": 0.0}))
    report = run_simulation(cfg)
    assert report.status == 0
    assert report.energy_checks_passed
    last = report.trace_path.read_text().splitlines()[-1].split(",")
    assert abs(float(last[2])) < 1e-12  # E_total


def test_run_determinism_bitwise(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        out.mkdir()
        cfg = parse_config(_config_text(
            tmp_path,
            **{
                "output.trace_path": str(out / "trace.csv"),
                "output.snapshot_dir": str(out / "snaps"),
                "output.snapshot_every": 1,
            },
        ))
        report = run_simulation(cfg)
        assert report.status == 0
    assert (out_a / "trace.csv").read_bytes() == (out_b / "trace.csv").read_bytes()
    snaps_a = sorted((out_a / "snaps").iterdir())
    snaps_b = sorted((out_b / "snaps").iterdir())
    assert [p.name for p in snaps_a] == [p.name for p in snaps_b]
    for pa, pb in zip(snaps_a, snaps_b):
        assert pa.read_bytes() == pb.read_bytes()


def test_outputs_do_not_depend_on_blas_thread_count(tmp_path):
    """One 3D run through the CLI in fresh processes at 1 and 2 BLAS threads
    writes byte-identical traces and snapshots."""
    src = Path(__file__).resolve().parents[1] / "src"
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        out.mkdir()
        cfg_path = out / "run.cfg"
        cfg_path.write_text(_config_text(tmp_path, dim=3, n=12, **{
            "ic.amplitude": 0.1,
            "output.trace_path": str(out / "trace.csv"),
            "output.snapshot_dir": str(out / "snaps"),
            "output.snapshot_every": 1,
        }))
        env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "nemflow.cli", "run", str(cfg_path)],
                              env=env, capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        snaps = sorted((out / "snaps").iterdir())
        outputs.append([(out / "trace.csv").read_bytes()]
                       + [(p.name, p.read_bytes()) for p in snaps])
    assert len(outputs[0]) == 4  # the trace and one snapshot per step
    assert outputs[0] == outputs[1]


def test_cli_loads_exactly_the_package_modules():
    """The package holds only the program: in a fresh interpreter, importing
    the CLI loads every module under src/nemflow and no other nemflow module,
    so a module there that no program path imports fails this test."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    code = ("import sys, nemflow.cli; print(nemflow.__path__[0]); "
            "print(*sorted(m for m in sys.modules if m.partition('.')[0] == 'nemflow'))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    where, loaded = proc.stdout.splitlines()
    assert Path(where).resolve() == src / "nemflow"
    files = {"nemflow" if p.stem == "__init__" else f"nemflow.{p.stem}"
             for p in (src / "nemflow").glob("*.py")}
    assert set(loaded.split()) == files


def test_run_loads_no_random_or_crypto_modules(tmp_path):
    """A CLI run in a fresh interpreter leaves numpy.random, and the secrets,
    hmac and _hashlib modules it would pull in with libcrypto, unloaded: the
    seeded initial state comes from the package's own stream."""
    src = Path(__file__).resolve().parents[1] / "src"
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(_config_text(tmp_path, n=8, t_end=1e-3))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    code = ("import sys; from nemflow.cli import main; status = main(['run', sys.argv[1]]); "
            "print(status, *sorted(m for m in ('numpy.random', 'secrets', 'hmac', '_hashlib') "
            "if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code, str(cfg_path)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].split() == ["0"]
    assert len((tmp_path / "trace.csv").read_text().splitlines()) == 2


def test_snapshot_roundtrip_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    fields = {
        "d": rng.normal(size=(2, 8, 8)),
        "u": rng.normal(size=(2, 8, 8)),
    }
    path = tmp_path / "state.nemf"
    write_snapshot(path, (8, 8), fields)
    header, loaded = read_snapshot(path)
    assert header.dim == 2
    assert header.shape == (8, 8)
    assert header.fields == (("d", 2), ("u", 2))
    for name in fields:
        assert np.array_equal(loaded[name], fields[name])
    # writing the loaded data reproduces the file byte for byte
    path2 = tmp_path / "state2.nemf"
    write_snapshot(path2, (8, 8), loaded)
    assert path.read_bytes() == path2.read_bytes()


def test_snapshot_full_state(tmp_path):
    cfg = parse_config(_config_text(
        tmp_path,
        **{"output.snapshot_every": 3, "output.full_state": "true"},
    ))
    report = run_simulation(cfg)
    assert len(report.snapshot_paths) == 1
    header = read_header(report.snapshot_paths[0])
    assert header.fields == (("d", 2), ("u", 2), ("mu", 2), ("v", 2))


def test_snapshot_format_errors(tmp_path):
    bad = tmp_path / "bad.nemf"
    bad.write_bytes(b"NOPE--")
    with pytest.raises(SnapshotFormatError, match="magic"):
        read_header(bad)
    trunc = tmp_path / "trunc.nemf"
    trunc.write_bytes(b"NEMF1\n\x02\x00\x00\x00")
    with pytest.raises(SnapshotFormatError, match="truncated"):
        read_header(trunc)


def test_read_header_reads_no_payload(tmp_path):
    path = tmp_path / "s.nemf"
    write_snapshot(path, (8, 8), {"d": np.zeros((2, 8, 8))})
    data = path.read_bytes()
    path.write_bytes(data[:-8])  # payload cut short, header intact
    assert read_header(path).fields == (("d", 2),)
    with pytest.raises(SnapshotFormatError, match="truncated"):
        read_snapshot(path)
    path.write_bytes(data + b"\0")
    with pytest.raises(SnapshotFormatError, match="trailing"):
        read_snapshot(path)


def test_outputs_are_durable_while_running(tmp_path, monkeypatch):
    """Trace rows are on disk as soon as their step is accepted, and snapshot
    writes leave no temporary file behind."""
    cfg = parse_config(_config_text(tmp_path, **{"output.snapshot_every": 1}))
    trace_path = Path(cfg.output.trace_path)
    on_disk = []  # trace contents at the start of each step
    real_step = runner.implicit_step

    def spy(*args, **kwargs):
        on_disk.append(trace_path.read_text().splitlines())
        return real_step(*args, **kwargs)

    monkeypatch.setattr(runner, "implicit_step", spy)
    report = run_simulation(cfg)
    assert report.status == 0
    final = report.trace_path.read_text().splitlines()
    assert final[0] == CSV_HEADER
    assert on_disk == [final[:1], final[:2], final[:3]]  # step 3 sees header + rows 1-2
    names = sorted(p.name for p in (tmp_path / "snaps").iterdir())
    assert names == ["snap_000001.nemf", "snap_000002.nemf", "snap_000003.nemf"]


def test_step_holds_no_earlier_level_or_result(tmp_path, monkeypatch):
    """While the runner's implicit_step runs, the previous step's result, its
    mu_hat and v_hat, the previous snapshot's sample arrays, and every level
    before the one being stepped from, are gone."""
    cfg = parse_config(_config_text(tmp_path, t_end=4e-3, **{
        "output.snapshot_every": 1, "output.full_state": "true"}))
    real_step, real_write = runner.implicit_step, runner.write_snapshot
    stale, alive = [], []  # weakrefs of what a later step must not find

    def spy(prev, *args, **kwargs):
        alive.append([ref() is not None for ref in stale])
        stale.append(weakref.ref(prev))
        result = real_step(prev, *args, **kwargs)
        stale.extend(weakref.ref(obj) for obj in (result, result.mu_hat, result.v_hat))
        return result

    def write_spy(path, shape, fields):
        stale.extend(weakref.ref(samples) for samples in fields.values())
        real_write(path, shape, fields)

    monkeypatch.setattr(runner, "implicit_step", spy)
    monkeypatch.setattr(runner, "write_snapshot", write_spy)
    with refcounting_only():
        report = run_simulation(cfg)
    assert report.status == 0 and report.steps == 4
    assert [len(a) for a in alive] == [0, 8, 16, 24]
    assert not any(any(a) for a in alive), alive


def test_each_level_energy_is_computed_once(tmp_path, monkeypatch):
    """A 3-step 3D n=8 exact run evaluates total_energy_hat once per level:
    the runner for the initial level, each step's ledger for its new level,
    and each ledger takes its previous level's total from the step before."""
    cfg = parse_config(_config_text(tmp_path, dim=3, n=8, **{"ic.amplitude": 0.05}))
    levels = []
    real = runner.total_energy_hat

    def spy(d_hat, u_hat, params, grid):
        levels.append(d_hat.tobytes() + u_hat.tobytes())
        return real(d_hat, u_hat, params, grid)

    for module in (runner, diagnostics):
        monkeypatch.setattr(module, "total_energy_hat", spy)
    report = run_simulation(cfg)
    assert report.status == 0 and report.steps == 3
    assert len(levels) == len(set(levels)) == report.steps + 1


@pytest.mark.parametrize("snapshots_on,inverse", [(False, 7), (True, 19)])
def test_run_loop_transform_counts(tmp_path, monkeypatch, snapshots_on, inverse):
    """A 4-step 2D n=16 run with default physics makes 5 forward transforms,
    all while building the initial level, and 7 inverse ones: 3 in the
    initial condition and one per step for the length statistics.
    Full-state snapshots every step add the samples of u, mu and v: 3 more
    inverse transforms per step, and no forward one."""
    text = ("dim = 2\nn = 16\ntau = 1e-3\nt_end = 4e-3\n"
            f"output.trace_path = {tmp_path / 'trace.csv'}\n"
            f"output.snapshot_dir = {tmp_path / 'snaps'}\n")
    if snapshots_on:
        text += "output.snapshot_every = 1\noutput.full_state = true\n"
    cfg = parse_config(text)
    calls = {"fftn_norm": 0, "ifftn_norm": 0}
    modules = [m for name, m in sys.modules.items() if name.partition(".")[0] == "nemflow"]
    for name in calls:
        real = getattr(fields, name)

        def counted(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        for module in modules:  # every nemflow module's name for the transform
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counted)
    report = run_simulation(cfg)
    assert report.status == 0 and report.steps == 4
    assert calls == {"fftn_norm": 5, "ifftn_norm": inverse}


def test_failed_snapshot_write_leaves_no_temporary_file(tmp_path, monkeypatch):
    """A snapshot write that fails midway (a full disk) ends the run with
    exit 4, removes its temporary file, and leaves the earlier snapshot as it
    was written."""
    reference = run_simulation(parse_config(_config_text(
        tmp_path / "ref", t_end=1e-3, **{"output.snapshot_every": 1})))
    assert reference.status == 0
    real_open = open

    class FullDisk:
        """A file whose second write raises ENOSPC, after the first is on disk."""

        def __init__(self, stream):
            self.stream, self.writes = stream, 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.stream.close()

        def write(self, chunk):
            if self.writes == 1:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            self.writes += 1
            return self.stream.write(chunk)

    def failing_open(path, mode="r", *args, **kwargs):
        stream = real_open(path, mode, *args, **kwargs)
        return FullDisk(stream) if Path(path).name.startswith("snap_000002") else stream

    monkeypatch.setattr(snapshots, "open", failing_open, raising=False)
    report = run_simulation(parse_config(_config_text(tmp_path, **{"output.snapshot_every": 1})))
    assert report.status == 4 and report.steps == 2
    assert "No space left" in report.failure
    assert sorted(p.name for p in (tmp_path / "snaps").iterdir()) == ["snap_000001.nemf"]
    assert ((tmp_path / "snaps" / "snap_000001.nemf").read_bytes()
            == reference.snapshot_paths[0].read_bytes())


def test_snapshot_is_moved_into_place(tmp_path, monkeypatch):
    """The snapshot is written under a temporary name in the same directory
    that snapshot listings do not match, then renamed over the target."""
    renames = []
    real_replace = os.replace

    def spy(src, dst):
        renames.append((Path(src), Path(src).read_bytes(), Path(dst).exists()))
        real_replace(src, dst)

    monkeypatch.setattr(snapshots.os, "replace", spy)
    path = tmp_path / "snap_000001.nemf"
    write_snapshot(path, (8, 8), {"d": np.ones((2, 8, 8))})
    [(tmp, payload, existed)] = renames
    assert tmp.parent == tmp_path and re.match(r"snap_\d+\.nemf$", tmp.name) is None
    assert payload == path.read_bytes() and not existed
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_two_thirds_mode_run(tmp_path):
    """The production dealias default steps stably and keeps the balance."""
    cfg = parse_config(_config_text(
        tmp_path, dealias="two_thirds", t_end=5e-3, n=32,
    ))
    report = run_simulation(cfg)
    assert report.status == 0
    rows = report.trace_path.read_text().splitlines()[1:]
    assert len(rows) == 5
    assert all(float(r.split(",")[12]) > -1e-8 for r in rows)  # slack column


def test_3d_run_with_snapshots(tmp_path):
    cfg = parse_config(_config_text(
        tmp_path,
        dim=3,
        n=8,
        t_end=2e-3,
        **{"ic.seed": 5, "output.snapshot_every": 1},
    ))
    report = run_simulation(cfg)
    assert report.status == 0
    assert report.energy_checks_passed
    header = read_header(report.snapshot_paths[0])
    assert header.dim == 3
    assert header.fields == (("d", 3), ("u", 3))


def test_solver_failure_keeps_partial_outputs(tmp_path):
    cfg = parse_config(_config_text(
        tmp_path,
        **{
            "tau": 1e6,
            "t_end": 3e6,
            "gamma": 1e-4,
            "epsilon": 1e-9,
            "picard.max_iter": 3,
            "picard.tol": 1e-13,
            "picard.tau_min": 9e5,
            "ic.amplitude": 0.3,
        },
    ))
    report = run_simulation(cfg)
    assert report.status == 3
    assert report.failure is not None
    assert "pass_cap" in report.failure
    lines = report.trace_path.read_text().splitlines()
    assert lines[0] == CSV_HEADER  # partial outputs survive the failure


def test_readme_trace_header_matches_program():
    """The README's fixed trace header is the one the runner writes."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Energy trace CSV", 1)[1]
    block = section.split("```", 2)[1]
    assert block.strip() == CSV_HEADER


def test_trace_header_is_ledger_then_diagnostics():
    """Columns 2-15 are EnergyLedger's fields in declaration order, and the
    last four are the runner's diagnostics."""
    columns = CSV_HEADER.split(",")
    assert columns[0] == "step"
    assert [c.lower() for c in columns[1:15]] == [f.name for f in dataclasses.fields(EnergyLedger)]
    assert columns[15:] == ["min_len", "max_len", "div_u_max", "h2_d"]


def test_runner_steps_through_module_level_implicit_step(tmp_path, monkeypatch):
    """The benchmark times steps by replacing runner.implicit_step, so the run
    loop must call that name once per trace row."""
    calls, inner = [], runner.implicit_step

    def counting(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(runner, "implicit_step", counting)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(_config_text(tmp_path, t_end=2e-3))
    assert cli_main(["run", str(cfg_path)]) == 0
    rows = (tmp_path / "trace.csv").read_text().splitlines()[1:]
    assert len(rows) == 2
    assert len(calls) == len(rows)


@pytest.mark.parametrize("extra,ending", [
    pytest.param("gamma = 1e-100", "line_search after 1 evals", id="gamma = 1e-100"),
    pytest.param("eta = 1e200", "overflow after 0 evals", id="eta = 1e200"),
    pytest.param("epsilon = 1e200", "overflow after 0 evals", id="epsilon = 1e200"),
])
def test_overflowing_solve_is_solver_failure(tmp_path, capsys, extra, ending):
    """An overflow ends the attempt with its own named outcome: exit 3, no
    traceback and no warning (pytest makes warnings errors).  eta and epsilon
    overflow a residual norm at the previous level, so no start counts; with
    gamma the start counts, but every line-search trial's momentum residual
    overflows.  tau_min = tau allows one attempt."""
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        f"dim = 2\nn = 8\ntau = 1e-3\nt_end = 2e-3\npicard.tau_min = 1e-3\n{extra}\n"
        f"output.trace_path = {tmp_path / 'trace.csv'}\n"
    )
    assert cli_main(["run", str(cfg_path)]) == 3
    err = capsys.readouterr().err
    assert f"tau 0.001 {ending}," in err
    assert "Traceback" not in err


def test_energy_violation_exit_code(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(
        runner, "check_energy_inequality",
        lambda ledger, budget: False,
    )
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(_config_text(tmp_path))
    report = run_simulation(parse_config(cfg_path.read_text()))
    assert report.status == EXIT_ENERGY == 5
    assert not report.energy_checks_passed
    assert report.steps == 3
    assert len(report.trace_path.read_text().splitlines()) == 4  # outputs kept
    assert cli_main(["run", str(cfg_path)]) == 5
    assert "energy_checks=FAIL" in capsys.readouterr().out


def test_cli_check_and_run(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(_config_text(tmp_path))
    assert cli_main(["check", str(cfg_path)]) == 0
    assert cli_main(["run", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "steps=3" in out

    bad_path = tmp_path / "bad.cfg"
    bad_path.write_text(_config_text(tmp_path) + "alpha = 1.5\n")
    assert cli_main(["check", str(bad_path)]) == 2
    err = capsys.readouterr().err
    assert "alpha" in err


def test_cli_duplicate_alpha_conflict(tmp_path):
    # config helper writes alpha already; appending another must be an error
    cfg_path = tmp_path / "dup.cfg"
    cfg_path.write_text(_config_text(tmp_path) + "gamma = 0.2\n")
    assert cli_main(["check", str(cfg_path)]) == 2


def test_cli_missing_config(tmp_path):
    assert cli_main(["check", str(tmp_path / "absent.cfg")]) == 4


def test_cli_inspect(tmp_path, capsys):
    path = tmp_path / "s.nemf"
    write_snapshot(path, (8, 8), {"d": np.zeros((2, 8, 8))})
    assert cli_main(["inspect", str(path)]) == 0
    out = capsys.readouterr().out
    assert "dim: 2" in out
    assert "d(2)" in out

    bad = tmp_path / "bad.nemf"
    bad.write_bytes(b"garbage")
    assert cli_main(["inspect", str(bad)]) == 4

    # a field name that is not valid UTF-8 is a format error, not a crash
    name = b"\x01\x00\x00\x00d"
    assert path.read_bytes().count(name) == 1
    bad.write_bytes(path.read_bytes().replace(name, b"\x01\x00\x00\x00\xff"))
    assert cli_main(["inspect", str(bad)]) == 4
    with pytest.raises(SnapshotFormatError, match="UTF-8"):
        read_snapshot(bad)
