"""The benchmark's tracer (bench/tracing.py) wraps the package's entry points
from outside and must keep up with their names: a smoke test of one traced
solve."""
import importlib.util
import pathlib

import actionlab
import actionlab.cli  # noqa: F401  (Tracer.install reads sys.modules["actionlab.cli"])
from actionlab import LogSumExp, MinimizeConfig

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
METHODS = ("prox_many", "slope_many", "subgradient_many")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_records_a_solve_and_restores_every_kind():
    tracing = _load_tracing()
    before = {(cls, m): getattr(cls, m) for cls, _ in tracing.KINDS for m in METHODS}
    inherited = {cls: {m for m in METHODS if m not in vars(cls)}
                 for cls, _ in tracing.KINDS}
    minimize_action = actionlab.minimize_action
    tracer = tracing.Tracer()
    tracer.install()
    try:
        f = LogSumExp([[1.0, 0.0], [0.0, 1.0], [-0.5, -0.5]], 0.1)
        res = actionlab.minimize_action(f, [-1.0, 0.0], [1.0, 0.5], 1.0,
                                        MinimizeConfig(N=16))
    finally:
        tracer.uninstall()
    names = {tracer.names[span[0]] for span in tracer.spans}
    assert {"minimize", "convex.prox.log_sum_exp"} <= names
    metrics = tracer.metrics(0)
    assert metrics["minimize.solves"] == 1
    assert metrics["minimize.iterations"] == res.iterations > 0
    assert actionlab.minimize_action is minimize_action
    for (cls, m), fn in before.items():
        assert getattr(cls, m) is fn, (cls.__name__, m)
        if m in inherited[cls]:
            delattr(cls, m)  # uninstall left the inherited method as the kind's own
