"""Set-up probe: a fresh interpreter imports lorafix and completes one warm-up call.

    python3 perfbench/probe.py '<warm-up spec as JSON>'

The benchmark times this whole process for ``setup_s``. The probe imports
nothing of the benchmark, so the time is lorafix's own: interpreter start,
``import lorafix`` and the workload's first call. The same warm-up runs in
the benchmark's own process, untimed, before any measurement.

The probe prints one line, ``{"rss_kib": ...}``: its own peak resident set
plus that of its largest child (a pool worker of ``error-map``). This is
``peak_rss_mb``, free of anything the benchmark itself keeps in memory
(Linux only: it reads ``/proc/self/status``).

A spec holds either ``argv`` (one ``lorafix`` command line, run through
``lorafix.cli.main``) or one fix request: ``gws`` (three [x, y] gateway
positions), ``toa`` (three arrival times) and ``sf`` (the spreading factor of
one ``alpha_bounds`` design query).
"""

import contextlib
import io
import json
import resource
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def peak_rss_kib() -> int:
    """This process's peak resident set since it started, in KiB.

    ``ru_maxrss`` of a process started by fork and exec also holds its
    parent's peak from before the exec; the high-water mark of the process's
    own address space does not.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def run_warmup(spec: dict) -> None:
    from lorafix import cli, experiments, solver
    from lorafix.geometry import GatewayTriple, Position

    if "argv" in spec:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(spec["argv"])
        if code != 0:
            raise RuntimeError(f"warm-up exited {code}: {err.getvalue().strip()}")
        return
    gws = GatewayTriple(*(Position(float(x), float(y)) for x, y in spec["gws"]))
    obs = solver.ToAObservation(*spec["toa"])
    solver.solve_analytic(obs, gws)
    solver.solve_closed_form(obs, gws)
    experiments.alpha_bounds(sf=spec["sf"])


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    run_warmup(json.loads(sys.argv[1]))
    print(json.dumps({"rss_kib": peak_rss_kib() + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss}))
