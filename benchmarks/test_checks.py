"""The output checks must fire on corrupted outputs.

    python3 -m pytest benchmarks/test_checks.py

Each test runs the checks on the outputs of a small real run (2D n=8,
3 steps) after corrupting one thing.
"""

from __future__ import annotations

import os
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
from nemflow.cli import main as nemflow_main  # noqa: E402
from nemflow.snapshots import read_snapshot, write_snapshot  # noqa: E402

SEED = 3
SPEC = {**run.COMMON, "dim": 2, "n": 8, "dealias": "exact", "ic.amplitude": 0.2,
        "picard.tol": 1e-11, "t_end": 0.003}


@pytest.fixture(scope="module")
def clean_run(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("clean")
    (out / "run.cfg").write_text(run.config_text(SPEC, SEED), encoding="utf-8")
    cwd = os.getcwd()
    os.chdir(out)
    try:
        assert nemflow_main(["run", "run.cfg"]) == 0
    finally:
        os.chdir(cwd)
    return out


@pytest.fixture
def outputs(clean_run, tmp_path) -> Path:
    copy = tmp_path / "run"
    shutil.copytree(clean_run, copy)
    return copy


def _check(workdir: Path, reference: bytes | None = None):
    e0 = checks.initial_energy(SPEC, SEED)
    _, failed, reasons, _ = checks.check_round(SPEC, workdir, e0, reference)
    return failed, reasons


def test_clean_outputs_pass(outputs):
    reference = (outputs / "trace.csv").read_bytes()
    assert _check(outputs, reference) == (set(), [])


@pytest.mark.parametrize("columns,delta", [
    (("E_total",), 1e-6),             # total no longer the sum of its parts
    (("E_total", "E_well"), 1e-2),    # consistent parts, slack below -budget
])
def test_raised_energy_fails(outputs, columns, delta):
    trace = outputs / "trace.csv"
    lines = trace.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    cells = lines[2].split(",")
    for name in columns:
        col = header.index(name)
        cells[col] = repr(float(cells[col]) + delta)
    lines[2] = ",".join(cells)
    trace.write_text("\n".join(lines) + "\n", encoding="utf-8")
    failed, reasons = _check(outputs)
    assert failed == {2}
    assert any("energy law" in r for r in reasons)


def test_divergent_velocity_fails(outputs):
    path = outputs / "snapshots" / "snap_000002.nemf"
    header, fields = read_snapshot(path)
    x = np.arange(header.shape[0]) / header.shape[0]
    fields["u"][0] += 1e-6 * np.sin(2.0 * np.pi * x)[:, None]  # du_x/dx != 0
    write_snapshot(path, header.shape, fields)
    failed, reasons = _check(outputs)
    assert 2 in failed
    assert any("solenoidal" in r for r in reasons)


def test_trace_differing_by_one_byte_fails(outputs):
    trace = outputs / "trace.csv"
    reference = trace.read_bytes()
    body = bytearray(reference)
    last_digit = len(body) - 2  # before the final newline: last digit of h2_d
    body[last_digit] = ord("1") if body[last_digit] != ord("1") else ord("2")
    trace.write_bytes(bytes(body))
    failed, reasons = _check(outputs, reference)
    assert failed == {3}
    assert any("trace differs" in r for r in reasons)
