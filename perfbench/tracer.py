"""In-memory span tracer that wraps the public functions of ``gpbounds``.

Each wrapped call becomes a span (id, parent id, name, start, end, work).
``Kernel.iso`` runs about a million times in a learning-curve run, far too
often to keep one span per call, so it is a *counted* probe: its calls and
time are added to the innermost open span instead.  A span's self time is
its duration minus its child spans and counted calls, so the self times of
one runner call add up to that call's duration.

Patching replaces a function wherever it is looked up: every module of the
package that binds the same object (``from .kernels import kernel_matrix``
in ``gpbounds.gp``, the re-exports in ``gpbounds``) gets the wrapper, and
methods are replaced on their class.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    work: float = 0.0
    failed: bool = False
    child_s: float = 0.0
    counted: dict = field(default_factory=dict)   # name -> [calls, seconds]

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[Span] = []

    def span(self, name, fn, work=None, failure=None):
        """Wrap ``fn`` so each call records a span.  ``work(args, kwargs,
        result)`` gives the span's work count; an exception of type
        ``failure`` marks the span failed."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._open[-1] if tracer._open else None
            sp = Span(len(tracer.spans), parent.id if parent else None, name,
                      tracer.clock())
            tracer.spans.append(sp)
            tracer._open.append(sp)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                sp.failed = failure is not None and isinstance(exc, failure)
                raise
            finally:
                sp.end = tracer.clock()
                tracer._open.pop()
                if parent is not None:
                    parent.child_s += sp.end - sp.start
            if work is not None:
                sp.work = float(work(args, kwargs, result))
            return result

        return wrapper

    def count(self, name, fn):
        """Wrap ``fn`` so each call adds one call and its duration to the
        innermost open span, without a span of its own.  Calls made while
        no span is open are not recorded."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = tracer.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = tracer.clock() - t0
                if tracer._open:
                    parent = tracer._open[-1]
                    slot = parent.counted.setdefault(name, [0, 0.0])
                    slot[0] += 1
                    slot[1] += dt
                    parent.child_s += dt

        return wrapper

    def self_times(self) -> dict:
        """Per-name totals: calls, self seconds, work, failures.  Counted
        probes appear under their own name."""
        out: dict = {}

        def slot(name):
            return out.setdefault(name, {"calls": 0, "self_s": 0.0,
                                         "work": 0.0, "failures": 0})

        for sp in self.spans:
            s = slot(sp.name)
            s["calls"] += 1
            s["self_s"] += sp.self_s
            s["work"] += sp.work
            s["failures"] += int(sp.failed)
            for name, (calls, secs) in sp.counted.items():
                c = slot(name)
                c["calls"] += calls
                c["self_s"] += secs
        return out

    def dump(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as fh:
            for sp in self.spans:
                fh.write(json.dumps({
                    "id": sp.id, "parent": sp.parent, "name": sp.name,
                    "start": sp.start, "end": sp.end, "self_s": sp.self_s,
                    "work": sp.work, "failed": sp.failed,
                    "counted": sp.counted}) + "\n")


@contextmanager
def patched(tracer: Tracer):
    """Install the tracer's wrappers on ``gpbounds`` for the duration."""
    from gpbounds import bounds, convergence, curves, experiments, gp, kernels

    def query_points(args, kwargs, result):
        return np.size(result)

    def factor_flops(args, kwargs, result):
        n = args[1].n if len(args) > 1 else kwargs["train"].n
        return n ** 3 / 3.0

    def row_count(args, kwargs, result):
        return len(result) if isinstance(result, list) else len(result.rows)

    functions = [
        (kernels.kernel_matrix, tracer.span("kernels.gram", kernels.kernel_matrix, query_points)),
        (kernels.lipschitz_constant, tracer.span("kernels.lipschitz", kernels.lipschitz_constant)),
        (bounds.bound_report, tracer.span("bounds.report", bounds.bound_report)),
        (bounds.ball_count, tracer.span("bounds.ball_count", bounds.ball_count)),
        (curves.e1_bound, tracer.span("curves.e1", curves.e1_bound, failure=curves.QuadratureError)),
        (curves.e2_bound, tracer.span("curves.e2", curves.e2_bound, failure=curves.QuadratureError)),
        (curves.e_rho_bound, tracer.span("curves.e_rho", curves.e_rho_bound, failure=curves.QuadratureError)),
        (curves.monte_carlo_curve, tracer.span("curves.mc", curves.monte_carlo_curve)),
        (experiments.run_variance_experiment,
         tracer.span("experiments.run", experiments.run_variance_experiment, row_count)),
        (experiments.run_learning_curve,
         tracer.span("experiments.run", experiments.run_learning_curve, row_count)),
    ]
    methods = [
        (kernels.Kernel, "iso", tracer.count("kernels.iso", kernels.Kernel.iso)),
        (gp.GPPosterior, "__init__",
         tracer.span("gp.factor", gp.GPPosterior.__init__, factor_flops,
                     failure=gp.FactorizationError)),
        (gp.GPPosterior, "variance",
         tracer.span("gp.solve", gp.GPPosterior.variance, query_points)),
        (gp.GPPosterior, "variance_batch",
         tracer.span("gp.solve", gp.GPPosterior.variance_batch, query_points)),
        (convergence.Density, "sample",
         tracer.span("convergence.sample", convergence.Density.sample, query_points)),
    ]

    undo = []
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "gpbounds" or name.startswith("gpbounds.")]
    for original, wrapper in functions:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    undo.append((mod, attr, original))
    for cls, attr, wrapper in methods:
        undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
