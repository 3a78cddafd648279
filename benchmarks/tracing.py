"""Spans around calls into each nemflow module, installed from outside the program.

A span records (name, start, end, parent).  Spans are kept in memory for the
whole run and summarised, or written out, only after the run returns.

nemflow modules bind the names they import (``from .operators import
from_padded``), so a wrapper has to replace the function in every namespace
that holds it, not just in the defining module: stepper and coupling each
look up their own from_padded.  Methods are replaced on their class.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# Traced callables per layer; each layer is the nemflow module of that name.
TRACED = {
    "fields": ("fftn_norm", "ifftn_norm"),
    "operators": (
        "to_padded", "from_padded", "padded_bundle", "padded_gradient",
        "grad_hat", "band_limit_hat", "leray_hat", "max_mode_divergence",
    ),
    "coupling": ("extra_velocity_hat", "director_transport_hat", "convective_hat"),
    "energetics": (
        "f_plus_hat", "chemical_potential_hat", "well_integral_hat",
        "elastic_energy_hat", "kinetic_energy_hat", "total_energy",
        "chemical_potential",
    ),
    "diagnostics": (
        "build_ledger", "director_length_stats", "spectral_divergence_max",
        "h2_diagnostic",
    ),
    "stepper": (
        "implicit_step", "_picard_attempt", "_gmres",
        "_Workspace.__init__", "_Workspace.terms", "_Workspace.jacobian_action",
        "_Workspace.precondition_vec", "_Workspace.split", "_Workspace.join",
    ),
    "snapshots": ("write_snapshot",),
    "initial": ("initial_condition",),
    "config": ("load_config",),
    "runner": ("run_simulation",),
}

FFT_SPANS = ("fields.fftn_norm", "fields.ifftn_norm")
STEP_SPAN = "stepper.implicit_step"


class Tracer:
    """In-memory span list; ``fft_elements`` counts complex elements
    transformed by fftn_norm/ifftn_norm (input array sizes)."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack = [-1]
        self.fft_elements = 0

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        is_fft = name in FFT_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if is_fft:
                self.fft_elements += args[0].size
            rec = [name, 0.0, 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Replace every traced callable in every loaded nemflow namespace."""
        replacements: dict[int, tuple[object, object]] = {}
        for layer, names in TRACED.items():
            module = importlib.import_module(f"nemflow.{layer}")
            for attr in names:
                owner, _, fname = attr.rpartition(".")
                if owner:
                    cls = getattr(module, owner)
                    raw = cls.__dict__[fname]
                    if isinstance(raw, staticmethod):
                        setattr(cls, fname, staticmethod(self.wrap(f"{layer}.{attr}", raw.__func__)))
                    else:
                        setattr(cls, fname, self.wrap(f"{layer}.{attr}", raw))
                else:
                    fn = getattr(module, fname)
                    replacements[id(fn)] = (fn, self.wrap(f"{layer}.{fname}", fn))
        for modname, module in list(sys.modules.items()):
            if modname != "nemflow" and not modname.startswith("nemflow."):
                continue
            for key, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, key, hit[1])

    def write(self, path) -> None:
        """One span per line: index, name, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as out:
            for i, (name, start, end, parent) in enumerate(self.spans):
                out.write(f"{i}\t{name}\t{start!r}\t{end!r}\t{parent}\n")


def _by_name(spans):
    """Per span name: call count, inclusive seconds, self seconds.

    Self time is a span's duration minus the durations of its direct
    children.  Inclusive seconds are only meaningful for names that never
    nest inside themselves, which holds for every name read as inclusive
    below.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    count: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    for i, (name, start, end, _) in enumerate(spans):
        dur = end - start
        count[name] = count.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + dur
        self_s[name] = self_s.get(name, 0.0) + dur - child[i]
    return count, total, self_s


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run, as {name: (value, unit)}.

    Snapshot and trace-file sizes are read from the output directory by the
    caller, not here.
    """
    count, total, self_s = _by_name(tracer.spans)

    def n(*names):
        return sum(count.get(x, 0) for x in names)

    def own(*names):
        return sum(self_s.get(x, 0.0) for x in names)

    def incl(*names):
        return sum(total.get(x, 0.0) for x in names)

    def layer(prefix):
        return [x for x in self_s if x.startswith(prefix + ".")]

    steps = n(STEP_SPAN)
    attempts = n("stepper._Workspace.__init__")
    coupling = layer("coupling")
    return {
        "stepper.steps": (steps, "count"),
        "stepper.attempts": (attempts, "count"),
        "stepper.accepted_per_attempt": (steps / attempts if attempts else 0.0, "ratio"),
        "stepper.residual_evals": (n("stepper._Workspace.terms"), "count"),
        "stepper.matvecs": (n("stepper._Workspace.jacobian_action"), "count"),
        "stepper.krylov_self_s": (own("stepper._gmres"), "s"),
        "stepper.jacobian_self_s": (own("stepper._Workspace.jacobian_action"), "s"),
        "stepper.precondition_self_s": (own("stepper._Workspace.precondition_vec"), "s"),
        "stepper.setup_self_s": (own("stepper._Workspace.__init__"), "s"),
        "stepper.terms_self_s": (own("stepper._Workspace.terms"), "s"),
        "stepper.other_self_s": (own(STEP_SPAN, "stepper._picard_attempt",
                                     "stepper._Workspace.split", "stepper._Workspace.join"), "s"),
        "coupling.calls": (n(*coupling), "count"),
        "coupling.self_s": (own(*coupling), "s"),
        "operators.padded_transforms": (n("operators.to_padded", "operators.from_padded"), "count"),
        "operators.self_s": (own(*layer("operators")), "s"),
        "fields.fft_calls": (n(*FFT_SPANS), "count"),
        "fields.fft_elements": (tracer.fft_elements, "count"),
        "fields.fft_s": (own(*FFT_SPANS), "s"),
        "energetics.self_s": (own(*layer("energetics")), "s"),
        "diagnostics.ledger_s": (incl("diagnostics.build_ledger"), "s"),
        "diagnostics.stats_s": (incl("diagnostics.director_length_stats",
                                     "diagnostics.spectral_divergence_max",
                                     "diagnostics.h2_diagnostic"), "s"),
        "snapshots.write_s": (incl("snapshots.write_snapshot"), "s"),
        "runner.self_s": (own("runner.run_simulation"), "s"),
        "initial.s": (incl("initial.initial_condition"), "s"),
        "config.parse_s": (incl("config.load_config"), "s"),
    }
