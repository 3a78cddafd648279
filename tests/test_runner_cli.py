import numpy as np
import pytest

from nemflow import runner
from nemflow.cli import main as cli_main
from nemflow.config import parse_config
from nemflow.diagnostics import InequalityCheck
from nemflow.runner import CSV_HEADER, EXIT_ENERGY, run_simulation
from nemflow.snapshots import (
    SnapshotFormatError,
    read_header,
    read_snapshot,
    write_snapshot,
)


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
    lines = report.trace_path.read_text().splitlines()
    assert lines[0] == CSV_HEADER  # partial outputs survive the failure


def test_energy_violation_exit_code(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(
        runner, "check_energy_inequality",
        lambda ledger, budget=None: InequalityCheck(False, -1.0, 0.0),
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
