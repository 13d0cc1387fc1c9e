"""Span tracing from outside the package.

``install`` replaces public functions at the module attributes their callers
look them up through (``exact_dp.bellman_optimum`` is reached by the CLI and
by ``exact_dp.error_curve`` through the ``exact_dp`` namespace;
``strategy.step`` is reached by the simulator as ``montecarlo.step``).  Each
call records a span (name, start, end, parent, job id) in memory, plus a
count read off its arguments or return value.  ``layer_metrics`` turns the
spans into self times and counts per layer.

Per-DP-step states, integer bit lengths and ``lru_cache`` hit rates need
spans inside the program (ROADMAP item 5); they are not measured here.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time
from pathlib import Path

# Span fields, by index.
NAME, START, END, PARENT, JOB, COUNT, CPU = range(7)

LAYER_TIMES = {
    "exact_dp.bellman_s": "exact_dp.bellman",
    "exact_dp.verify_s": "exact_dp.verify",
    "exact_dp.forward_s": "exact_dp.forward",
    "chain.derive_s": "chain.derive",
    "chain.reach_s": "chain.reach",
    "bounds.s": "bounds",
    "cubicfield.s": "cubicfield",
    "montecarlo.batch_s": "montecarlo.batch",
    "montecarlo.scalar_s": "montecarlo.scalar",
    "strategy.step_s": "strategy.step",
    "serialize.s": "serialize",
}
LAYER_COUNTS = {
    "exact_dp.bellman_states": "exact_dp.bellman",
    "exact_dp.forward_steps": "exact_dp.forward",
    "chain.table_states": "chain.derive",
    "montecarlo.trial_steps": "montecarlo.batch",
    "strategy.steps": "strategy.step",
    "serialize.bytes": "serialize",
}


def _bound(fn):
    sig = inspect.signature(fn)
    return lambda args, kwargs: sig.bind(*args, **kwargs).arguments


def _conditionings(rule) -> int:
    return 1 if rule.equivariant else 3


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = -1
        self.originals: list[tuple] = []

    def wrap(self, fn, name, count=None, cpu: bool = False):
        """Return ``fn`` recording one span per call.

        ``name`` is a layer name or a function of the bound arguments;
        ``count(arguments, result)`` gives the span's work count, which is
        1 per call by default.  With ``cpu`` the span also records the CPU
        seconds of the process and its children.
        """
        bind = _bound(fn) if (count or callable(name)) else None
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            arguments = bind(args, kwargs) if bind else None
            span = [name(arguments) if callable(name) else name, 0.0, 0.0,
                    stack[-1] if stack else -1, self.job, 1, None]
            stack.append(len(spans))
            spans.append(span)
            c0 = _cpu_s() if cpu else 0.0
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if cpu:
                span[CPU] = _cpu_s() - c0
            if count:
                span[COUNT] = count(arguments, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the traced functions; ``uninstall`` puts the originals back."""
        from fblab import bounds, chain, cubicfield, exact_dp, montecarlo, serialize

        def patch(obj, attr, *a, **kw):
            fn = getattr(obj, attr)
            self.originals.append((obj, attr, fn))
            setattr(obj, attr, self.wrap(fn, *a, **kw))

        patch(exact_dp, "bellman_optimum", "exact_dp.bellman",
              count=lambda a, r: sum((k + 1) * (k + 2) // 2 for k in range(a["n"] + 1)))
        patch(exact_dp, "optimal_query_report", "exact_dp.verify")
        patch(exact_dp, "forward_error_prob", "exact_dp.forward",
              count=lambda a, r: a["n"] * _conditionings(a["rule"]))
        patch(exact_dp, "error_curve", "exact_dp.forward",
              count=lambda a, r: 0 if a["rule"] == "optimal"
              else a["n_max"] * _conditionings(a["rule"]))
        patch(chain, "derive_transitions", "chain.derive", count=lambda a, r: len(r.entries))
        patch(chain, "reach_prob", "chain.reach")
        patch(chain, "closed_form_loop_bound_exact", "cubicfield")
        patch(cubicfield.CubicExt, "compare", "cubicfield")
        for attr in ("bound_report", "simplex_event_report", "optimal_loop_density"):
            patch(bounds, attr, "bounds")
        patch(montecarlo, "run_trials",
              lambda a: "montecarlo.scalar" if a["rule"].kind == "table" else "montecarlo.batch",
              count=lambda a, r: 0 if a["rule"].kind == "table" else a["trials"] * a["n"],
              cpu=True)
        patch(montecarlo, "simulate_trajectory", "montecarlo.scalar")
        patch(montecarlo, "step", "strategy.step")
        for attr in ("dumps", "dumps_line", "csv_text"):
            patch(serialize, attr, "serialize", count=lambda a, r: len(r.encode()))

    def uninstall(self) -> None:
        while self.originals:
            obj, attr, fn = self.originals.pop()
            setattr(obj, attr, fn)

    def write(self, path: Path) -> None:
        with path.open("w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s[NAME], "start": s[START], "end": s[END],
                                     "parent": s[PARENT], "job": s[JOB]}) + "\n")


def _cpu_s() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def layer_metrics(
    spans: list[list], job_walls: list[float], job_scales: list[float]
) -> dict[str, float]:
    """Self times, counts and rates per layer from one traced pass.

    Times are rescaled by each job's speed factor, like ``wall_s``.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    self_s: dict[str, float] = {}
    counts: dict[str, int] = {}
    top_level = [0.0] * len(job_walls)
    mc_wall = mc_cpu = 0.0
    for i, s in enumerate(spans):
        duration = s[END] - s[START]
        self_s[s[NAME]] = self_s.get(s[NAME], 0.0) + (duration - child[i]) * job_scales[s[JOB]]
        counts[s[NAME]] = counts.get(s[NAME], 0) + s[COUNT]
        if s[PARENT] < 0:
            top_level[s[JOB]] += duration
        if s[CPU] is not None:
            mc_wall += duration
            mc_cpu += s[CPU]
    out = {m: self_s.get(n, 0.0) for m, n in LAYER_TIMES.items()}
    out.update({m: float(counts.get(n, 0)) for m, n in LAYER_COUNTS.items()})
    out["chain.reach_calls"] = float(counts.get("chain.reach", 0))
    batch_s = out["montecarlo.batch_s"]
    out["montecarlo.batch_steps_per_s"] = out["montecarlo.trial_steps"] / batch_s if batch_s else 0.0
    out["montecarlo.cpu_util"] = mc_cpu / mc_wall if mc_wall else 0.0
    out["cli.self_s"] = sum((w - t) * k for w, t, k in zip(job_walls, top_level, job_scales))
    return out
