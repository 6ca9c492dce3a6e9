"""Spans around lorafix's layer boundaries, recorded from outside the package.

A span is recorded by replacing the name a caller binds with a timing
wrapper: ``lorafix.experiments`` imports ``solve_closed_form_batch`` by name,
so the wrapper replaces ``lorafix.experiments.solve_closed_form_batch`` and
every call the experiments make goes through it. Nothing under ``src/``
changes, and :meth:`Tracer.uninstall` puts every original name back.

Pool workers: with the ``fork`` start method a worker inherits the wrapped
names, so its solver calls are traced in the worker. The spans a pool task
records there travel back to the parent with the task's result (see
:class:`_Shipped`). With another start method the workers import lorafix
afresh, record nothing, and only the parent's view of the pool remains.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from typing import NamedTuple

import numpy as np


class Span(NamedTuple):
    name: str
    pid: int
    sid: int
    parent: tuple | None  # (pid, sid) of the enclosing span, None at top level
    t0: float
    t1: float
    attrs: dict | None


# The tracer receiving spans shipped back from pool workers. A worker result is
# unpickled by the executor's own thread, which holds no reference to the
# tracer, so the receiving side must find it here.
_ACTIVE: Tracer | None = None


def _receive(result, spans):
    if _ACTIVE is not None:
        _ACTIVE.spans.extend(spans)
    return result


class _Shipped(tuple):
    """A pool task's result with the spans its worker recorded attached.

    Unpickling hands the spans to the parent's tracer and yields the plain
    tuple, so the experiment code sees exactly the result it would without
    tracing.
    """

    spans: list

    def __reduce__(self):
        return (_receive, (tuple(self), self.spans))


def _batch_attrs(args, out):
    toas = args[0]
    return {
        "rows": toas.shape[0],
        "fail_rows": out.ok.size - int(np.count_nonzero(out.ok)),
        "bytes": toas.nbytes + sum(a.nbytes for a in vars(out).values()),
    }


def _rows_attrs(args, out):
    return {"rows": int(len(args[0]))}


class Tracer:
    """Records spans in memory while installed; see the module docstring."""

    def __init__(self):
        self.pid = os.getpid()
        self.spans: list[Span] = []
        self._stack: list[tuple] = []
        self._seq = 0
        self._undo: list[tuple] = []
        self._patches: list[tuple] | None = None

    def _timed(self, name, fn, attrs=None):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer._seq += 1
            sid = (os.getpid(), tracer._seq)
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(sid)
            out = None
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                extra = attrs(args, out) if attrs is not None and out is not None else None
                tracer.spans.append(Span(name, sid[0], sid[1], parent, t0, t1, extra))

        return wrapper

    def _task(self, fn):
        """Wrap a pool task so a worker ships its spans back with the result."""
        tracer = self
        timed = self._timed("experiments.pool.task", fn)

        def task(*args):
            mark = len(tracer.spans)
            out = timed(*args)
            if os.getpid() == tracer.pid:
                return out
            shipped = _Shipped(out)
            shipped.spans = tracer.spans[mark:]
            del tracer.spans[mark:]
            return shipped

        return task

    def _pool_class(self):
        tracer = self

        class TracedPool(ProcessPoolExecutor):
            def __enter__(self):
                tracer._seq += 1
                self._sid = (os.getpid(), tracer._seq)
                self._parent = tracer._stack[-1] if tracer._stack else None
                tracer._stack.append(self._sid)
                self._t0 = time.perf_counter()
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    t1 = time.perf_counter()
                    tracer._stack.pop()
                    tracer.spans.append(
                        Span(
                            "experiments.pool",
                            self._sid[0],
                            self._sid[1],
                            self._parent,
                            self._t0,
                            t1,
                            {"workers": self._max_workers},
                        )
                    )

        return TracedPool

    def _build(self) -> list[tuple]:
        """The (module, name, wrapper) replacements, built once per tracer."""
        from lorafix import cli, experiments, solver

        patches = [
            (module, attr, self._timed(name, getattr(module, attr), attrs))
            for module, attr, name, attrs in (
                (cli, "main", "cli.main", None),
                (cli, "sweep_emax", "experiments.sweep_emax", None),
                (cli, "error_map", "experiments.error_map", None),
                (experiments, "sample_points_in_triangle", "geometry.sample_points_in_triangle", None),
                (experiments, "forward_toa_batch", "solver.forward_toa_batch", _rows_attrs),
                (experiments, "solve_closed_form_batch", "solver.solve_closed_form_batch", _batch_attrs),
                (solver, "solve_closed_form_batch", "solver.solve_closed_form_batch", _batch_attrs),
                (solver, "solve_analytic", "solver.solve_analytic", None),
                (solver, "solve_closed_form", "solver.solve_closed_form", None),
                (experiments, "time_on_air", "lora_phy.time_on_air", None),
            )
        ]
        patches.append((experiments, "_map_chunk", self._task(experiments._map_chunk)))
        patches.append((experiments, "ProcessPoolExecutor", self._pool_class()))
        return patches

    def install(self):
        """Replace the bound names of every traced layer boundary.

        Cheap after the first call, so a run can trace every other operation.
        """
        global _ACTIVE
        if self._patches is None:
            self._patches = self._build()
        for module, attr, wrapper in self._patches:
            self._undo.append((module, attr, getattr(module, attr)))
            setattr(module, attr, wrapper)
        _ACTIVE = self

    def uninstall(self):
        global _ACTIVE
        while self._undo:
            module, attr, value = self._undo.pop()
            setattr(module, attr, value)
        _ACTIVE = None


def _self_time(spans: list[Span], name: str) -> float:
    """Summed duration of ``name`` spans minus their same-process children."""
    child_s: dict[tuple, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None and s.parent[0] == s.pid:
            child_s[s.parent] += s.t1 - s.t0
    return sum(s.t1 - s.t0 - child_s[(s.pid, s.sid)] for s in spans if s.name == name)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Aggregate spans into the per-layer metrics, keyed by metric name."""
    calls: dict[str, int] = defaultdict(int)
    secs: dict[str, float] = defaultdict(float)
    attrs: dict[str, int] = defaultdict(int)
    for s in spans:
        calls[s.name] += 1
        secs[s.name] += s.t1 - s.t0
        for k, v in (s.attrs or {}).items():
            attrs[f"{s.name}.{k}"] += v

    batch = "solver.solve_closed_form_batch"
    m = {
        f"{batch}.calls": calls[batch],
        f"{batch}.rows": attrs[f"{batch}.rows"],
        f"{batch}.s": secs[batch],
        f"{batch}.rows_per_s": attrs[f"{batch}.rows"] / secs[batch] if secs[batch] else 0.0,
        f"{batch}.us_per_call": 1e6 * secs[batch] / calls[batch] if calls[batch] else 0.0,
        f"{batch}.fail_rows": attrs[f"{batch}.fail_rows"],
        f"{batch}.bytes_io_computed": attrs[f"{batch}.bytes"],
        "solver.forward_toa_batch.calls": calls["solver.forward_toa_batch"],
        "solver.forward_toa_batch.rows": attrs["solver.forward_toa_batch.rows"],
        "solver.forward_toa_batch.s": secs["solver.forward_toa_batch"],
        "geometry.sample_points_in_triangle.s": secs["geometry.sample_points_in_triangle"],
        "solver.solve_analytic.calls": calls["solver.solve_analytic"],
        "solver.solve_analytic.s": secs["solver.solve_analytic"],
        "solver.solve_closed_form.calls": calls["solver.solve_closed_form"],
        "solver.solve_closed_form.s": secs["solver.solve_closed_form"],
        "experiments.sweep_emax.self_s": _self_time(spans, "experiments.sweep_emax"),
        "experiments.error_map.self_s": _self_time(spans, "experiments.error_map"),
        "lora_phy.time_on_air.calls": calls["lora_phy.time_on_air"],
        "lora_phy.time_on_air.s": secs["lora_phy.time_on_air"],
        "cli.main.self_s": _self_time(spans, "cli.main"),
    }

    # Pool: the parent waits from entering the pool to its shutdown; each
    # worker is busy for the tasks it ran. Sums are over every pool opened.
    busy: dict[tuple, dict[int, float]] = defaultdict(lambda: defaultdict(float))
    shipped = 0
    for s in spans:
        if s.name == "experiments.pool.task" and s.pid != s.parent[0]:
            busy[s.parent][s.pid] += s.t1 - s.t0
        if s.pid != os.getpid():
            shipped += 1
    wait = busy_max = busy_mean = 0.0
    for s in spans:
        if s.name == "experiments.pool":
            per_worker = busy[(s.pid, s.sid)].values()
            wait += s.t1 - s.t0
            busy_max += max(per_worker, default=0.0)
            busy_mean += sum(per_worker) / s.attrs["workers"]
    m["experiments.pool.wait_s"] = wait
    m["experiments.pool.worker_busy_max_s"] = busy_max
    m["experiments.pool.worker_busy_mean_s"] = busy_mean
    m["experiments.pool.worker_spans"] = shipped
    return m
