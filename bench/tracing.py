"""Spans around actionlab's public entry points, for the traced runs.

The program is not instrumented: the Tracer replaces entry points from
outside (kind-class methods on the classes, module functions in every
actionlab module that binds them) and restores them afterwards.  Each call
becomes one span (name, start, end, parent, count) kept in memory; the spans
of a round are turned into the per-layer metrics listed in PER_LAYER.
"""
from __future__ import annotations

import inspect
import statistics
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

import actionlab as al

KINDS = ((al.Quadratic, "quadratic"), (al.MaxLinear, "max_linear"),
         (al.LogSumExp, "log_sum_exp"), (al.Indicator, "indicator"),
         (al.SquaredDistance, "squared_distance"))
SCOPES = ("convex", "action", "minimize", "gamma")

#: per-layer metric -> (unit, better)
PER_LAYER = {}
for _kind in ("max_linear", "log_sum_exp", "quadratic", "indicator", "squared_distance"):
    PER_LAYER[f"convex.prox.{_kind}.points"] = ("count", "lower")
    PER_LAYER[f"convex.prox.{_kind}.busy_s"] = ("s", "lower")
    PER_LAYER[f"convex.prox.{_kind}.points_per_s"] = ("1/s", "higher")
PER_LAYER.update({
    "minnorm.hull_projection.calls": ("count", "lower"),
    "minnorm.hull_projection.busy_s": ("s", "lower"),
    "minnorm.min_norm_point.calls": ("count", "lower"),
    "minnorm.min_norm_point.busy_s": ("s", "lower"),
    "sets.project.points": ("count", "lower"),
    "sets.project.busy_s": ("s", "lower"),
    "convex.subgradient.calls": ("count", "lower"),
    "convex.subgradient.busy_s": ("s", "lower"),
    "convex.slope.calls": ("count", "lower"),
    "convex.slope.busy_s": ("s", "lower"),
    "minimize.solves": ("count", "lower"),
    "minimize.iterations": ("count", "lower"),
    "minimize.converged": ("count", "higher"),
    "minimize.self_s": ("s", "lower"),
    "minimize.iters_per_s": ("1/s", "higher"),
    "minimize.prox_batches_per_iter": ("count/iter", "lower"),
    "minimize.prox_points_per_iter": ("count/iter", "lower"),
    "oracle.grid_oracle.graph_nodes": ("count", "lower"),
    "oracle.grid_oracle.busy_s": ("s", "lower"),
    "oracle.grid_oracle.nodes_per_s": ("1/s", "higher"),
    "action.discrete_action.busy_s": ("s", "lower"),
    "action.interpolation_path.busy_s": ("s", "lower"),
    "action.recovery_path.busy_s": ("s", "lower"),
    "experiments.resolvent.self_s": ("s", "lower"),
    "experiments.value.self_s": ("s", "lower"),
    "experiments.limsup.self_s": ("s", "lower"),
    "experiments.slope_lsc.self_s": ("s", "lower"),
    **{f"verify.{s}.busy_s": ("s", "lower") for s in SCOPES},
    "verify.samples": ("count", "higher"),
    "serialize.dumps.busy_s": ("s", "lower"),
    "serialize.dumps.bytes": ("count", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "import.numpy_s": ("s", "lower"),
    "import.scipy_s": ("s", "lower"),
    "import.actionlab_self_s": ("s", "lower"),
    "families.build_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
})


def _rows(X) -> int:
    return int(X.shape[0]) if np.ndim(X) == 2 else 1


def _arg(fn, name):
    """Reads argument `name` of a call to fn, wherever the caller put it."""
    sig = inspect.signature(fn)
    return lambda args, kwargs: sig.bind(*args, **kwargs).arguments[name]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        #: (name id, start, end, parent index, outermost of its name,
        #:  inside a minimize_action span, count)
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._open = defaultdict(int)
        self._undo: list[tuple] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name, count=None):
        """fn recording one span per call; name(args, kwargs) may pick the
        span name per call, count(args, kwargs, result) its count."""
        fixed = None if callable(name) else self._id(name)
        minimize = self._id("minimize")
        spans, stack, opened = self.spans, self._stack, self._open

        def wrapper(*args, **kwargs):
            nid = fixed if fixed is not None else self._id(name(args, kwargs))
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            outer = opened[nid] == 0
            in_min = opened[minimize] > 0
            stack.append(idx)
            opened[nid] += 1
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                opened[nid] -= 1
                stack.pop()
                n = count(args, kwargs, result) if count and result is not None else 0
                spans[idx] = (nid, start, end, parent, outer, in_min, n)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for cls, kind in KINDS:
            for meth, name, count in (
                    ("prox_many", f"convex.prox.{kind}", lambda a, k, r: _rows(a[2])),
                    ("slope_many", "convex.slope", lambda a, k, r: _rows(a[1])),
                    ("subgradient_many", "convex.subgradient", lambda a, k, r: _rows(a[1]))):
                self._patch_attr(cls, meth, self._wrap(getattr(cls, meth), name, count))
        for cls in (al.Ball, al.Box, al.Halfspace):
            self._patch_attr(cls, "project_many",
                             self._wrap(cls.project_many, "sets.project",
                                        lambda a, k, r: _rows(a[1])))
        convex = sys.modules["actionlab.convex"]
        self._patch_attr(convex, "hull_projection_with_gap",
                         self._wrap(convex.hull_projection_with_gap,
                                    "minnorm.hull_projection"))
        self._patch_attr(convex, "min_norm_point",
                         self._wrap(convex.min_norm_point, "minnorm.min_norm_point"))

        grid_arg = _arg(al.grid_oracle, "grid")
        steps_arg = _arg(al.grid_oracle, "time_steps")
        scopes_arg = _arg(al.verify_suite, "scopes")

        def verify_name(args, kwargs):
            scopes = scopes_arg(args, kwargs)
            scopes = SCOPES if scopes is None else (scopes,) if isinstance(scopes, str) else scopes
            return "verify." + "+".join(scopes)

        def graph_nodes(args, kwargs, result):
            cells = grid_arg(args, kwargs).cells
            return int(np.prod([c + 1 for c in cells])) * int(steps_arg(args, kwargs))

        for fn, name, count in (
                (al.minimize_action, "minimize",
                 lambda a, k, r: (r.iterations, int(r.converged))),
                (al.discrete_action, "action.discrete_action", None),
                (al.interpolation_path, "action.interpolation_path", None),
                (al.recovery_path, "action.recovery_path", None),
                (al.grid_oracle, "oracle.grid_oracle", graph_nodes),
                (al.resolvent_convergence_table, "experiments.resolvent", None),
                (al.gamma_value_experiment, "experiments.value", None),
                (al.gamma_limsup_experiment, "experiments.limsup", None),
                (al.slope_semicontinuity_table, "experiments.slope_lsc", None),
                (al.verify_suite, verify_name,
                 lambda a, k, r: sum(c.samples for c in r.checks)),
                (sys.modules["actionlab.serialize"].dumps, "serialize.dumps",
                 lambda a, k, r: len(r.encode())),
                (sys.modules["actionlab.cli"].main, "cli.main", None)):
            self._patch_everywhere(fn, self._wrap(fn, name, count))

    def _patch_attr(self, owner, attr, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _patch_everywhere(self, fn, new) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "actionlab" or mod_name.startswith("actionlab.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patch_attr(mod, attr, new)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def metrics(self, first: int) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since index `first`."""
        spans = self.spans[first:]
        names = self.names
        child = [0.0] * len(spans)
        for nid, start, end, parent, *_ in spans:
            if parent >= first:
                child[parent - first] += end - start
        busy = defaultdict(float)
        own = defaultdict(float)
        calls = defaultdict(int)
        total = defaultdict(int)
        iterations = converged = min_batches = min_points = 0
        for i, (nid, start, end, parent, outer, in_min, n) in enumerate(spans):
            name = names[nid]
            calls[name] += 1
            own[name] += end - start - child[i]
            if outer:
                busy[name] += end - start
            if name == "minimize":
                if n:
                    iterations += n[0]
                    converged += n[1]
                continue
            total[name] += n
            if in_min and name.startswith("convex.prox."):
                min_batches += 1
                min_points += n

        def rate(num, den):
            return num / den if den > 0 else 0.0

        out = {}
        for _, kind in KINDS:
            key = f"convex.prox.{kind}"
            out[f"{key}.points"] = total[key]
            out[f"{key}.busy_s"] = busy[key]
            out[f"{key}.points_per_s"] = rate(total[key], busy[key])
        for key in ("minnorm.hull_projection", "minnorm.min_norm_point",
                    "convex.subgradient", "convex.slope"):
            out[f"{key}.calls"] = calls[key]
            out[f"{key}.busy_s"] = busy[key]
        out["sets.project.points"] = total["sets.project"]
        out["sets.project.busy_s"] = busy["sets.project"]
        out.update({
            "minimize.solves": calls["minimize"],
            "minimize.iterations": iterations,
            "minimize.converged": converged,
            "minimize.self_s": own["minimize"],
            "minimize.iters_per_s": rate(iterations, busy["minimize"]),
            "minimize.prox_batches_per_iter": rate(min_batches, iterations),
            "minimize.prox_points_per_iter": rate(min_points, iterations),
            "oracle.grid_oracle.graph_nodes": total["oracle.grid_oracle"],
            "oracle.grid_oracle.busy_s": busy["oracle.grid_oracle"],
            "oracle.grid_oracle.nodes_per_s": rate(total["oracle.grid_oracle"],
                                                   busy["oracle.grid_oracle"]),
            "verify.samples": sum(v for k, v in total.items() if k.startswith("verify.")),
            "serialize.dumps.busy_s": busy["serialize.dumps"],
            "serialize.dumps.bytes": total["serialize.dumps"],
            "cli.main.self_s": own["cli.main"],
        })
        for key in ("discrete_action", "interpolation_path", "recovery_path"):
            out[f"action.{key}.busy_s"] = busy[f"action.{key}"]
        for key in ("resolvent", "value", "limsup", "slope_lsc"):
            out[f"experiments.{key}.self_s"] = own[f"experiments.{key}"]
        for scope in SCOPES:
            out[f"verify.{scope}.busy_s"] = busy[f"verify.{scope}"]
        return out

    def write(self, path) -> None:
        """Every span as CSV: index, name, start and end in seconds, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_s,end_s,parent,count\n")
            for i, (nid, start, end, parent, _, _, n) in enumerate(self.spans):
                if isinstance(n, tuple):
                    n = n[0]
                fh.write(f"{i},{self.names[nid]},{start:.9f},{end:.9f},{parent},{n}\n")


def median_metrics(rounds: list[dict]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}


def import_times(stderr: str) -> dict[str, float]:
    """Import cost per package from the output of `python -X importtime`.

    numpy and scipy: the cumulative time of each of the package's modules
    imported from outside the package, so imports they trigger in other
    packages count too.  actionlab: the self time of its own modules.
    """
    entries = []  # (depth, package, self seconds, cumulative seconds)
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[0].strip().isdigit():
            continue
        name = parts[2][1:]
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, name.strip().split(".")[0],
                        int(parts[0]) * 1e-6, int(parts[1]) * 1e-6))
    sums = defaultdict(float)
    stack = []  # ancestors of the current entry; the log lists children first
    for depth, package, own, cumulative in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        parent = stack[-1][1] if stack else None
        stack.append((depth, package))
        if package == "actionlab":
            sums[package] += own
        elif parent != package:
            sums[package] += cumulative
    return {"import.numpy_s": sums["numpy"], "import.scipy_s": sums["scipy"],
            "import.actionlab_self_s": sums["actionlab"]}
