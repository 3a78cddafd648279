"""One benchmark round: a fresh process that runs one workload config through
the program's own entry point, ``nemflow.cli.main(["run", <config>])``.

    python3 benchmarks/round.py <config> <result.json> <run|trace|setup>

Run from the round's working directory.  In "run" mode the only hook is a
timestamp pair around each ``implicit_step`` call made by the runner; "setup"
mode stops the process at the first such call, to time set-up alone.  In
"trace" mode every call listed in tracing.TRACED is wrapped in a span and the
spans are written to spans.tsv after the run returns.

The result file holds the CLI exit status, CLOCK_MONOTONIC stamps of the
first step and of the return (comparable with the parent's spawn stamp),
per-step wall times, the process's peak resident memory and, when traced,
the per-layer metrics.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def peak_rss_kib() -> int:
    """VmHWM of this process: peak resident set since exec, in KiB."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


class SetupDone(Exception):
    """Raised at the first step of a set-up-only round."""


def main(argv: list[str]) -> int:
    config, result_path, mode = argv[0], Path(argv[1]), argv[2]

    import nemflow.cli
    import nemflow.runner

    first_step: list[float] = []
    step_s: list[float] = []
    tracer = None
    if mode == "trace":
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    else:
        inner = nemflow.runner.implicit_step

        def timed_step(*args, **kwargs):
            if not first_step:
                first_step.append(monotonic())
                if mode == "setup":
                    raise SetupDone
            t0 = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                step_s.append(time.perf_counter() - t0)

        nemflow.runner.implicit_step = timed_step

    try:
        status = nemflow.cli.main(["run", config])
    except SetupDone:
        status = 0
    returned = monotonic()
    peak = peak_rss_kib()

    result = {"status": status, "returned": returned, "peak_rss_kib": peak}
    if tracer is not None:
        # span clock is perf_counter; shift onto CLOCK_MONOTONIC for first_step
        offset = monotonic() - time.perf_counter()
        steps = [s for s in tracer.spans if s[0] == tracing.STEP_SPAN]
        first_step.append(steps[0][1] + offset if steps else returned)
        step_s = [end - start for _, start, end, _ in steps]
        result["layers"] = tracing.layer_metrics(tracer)
        tracer.write("spans.tsv")
    result["first_step"] = first_step[0] if first_step else returned
    result["step_s"] = step_s
    result_path.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
