import json
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from actionlab.action import Path, discrete_action
from actionlab.convex import (Indicator, LogSumExp, MaxLinear, Quadratic,
                              SquaredDistance, prox)
from actionlab.errors import ConfigError
from actionlab.families import MoscoFamily
from actionlab.serialize import (breakdown_to_dict, dumps, family_from_dict,
                                 function_from_dict, function_to_dict, loads,
                                 path_from_csv, path_to_csv, region_from_dict,
                                 region_to_dict, report_rows_to_csv, to_plain)
from actionlab.sets import Ball, Box, Halfspace

FUNCTIONS = [
    Quadratic(np.array([[2.0, 0.3], [0.3, 1.0]]), np.array([0.1, -0.2]), 0.7),
    Quadratic(np.array([[-0.4]]), np.array([1.0]), 0.0),
    MaxLinear(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])),
    LogSumExp(np.array([[1.0], [-1.0]]), 0.25),
    Indicator(Ball(np.array([0.5, 0.5]), 2.0)),
    Indicator(Box(np.array([-1.0]), np.array([1.0]))),
    Indicator(Halfspace(np.array([1.0, 2.0]), 3.0)),
    SquaredDistance(Ball(np.zeros(2), 1.0), 4.0),
]


@pytest.mark.parametrize("f", FUNCTIONS, ids=lambda f: type(f).__name__)
def test_function_round_trip(f):
    doc = loads(dumps(function_to_dict(f)))
    g = function_from_dict(doc)
    assert type(g) is type(f)
    assert g.lam == pytest.approx(f.lam, abs=1e-12)
    X = np.array([[0.3, -0.4], [1.5, 0.2]])[:, :f.dim]
    np.testing.assert_allclose(g.value_many(X), f.value_many(X), atol=1e-12)


def test_declared_lambda_cross_checked():
    doc = function_to_dict(FUNCTIONS[0])
    doc["lambda"] = doc["lambda"] + 0.5
    with pytest.raises(ConfigError, match="modulus"):
        function_from_dict(doc)


def test_function_document_shape_errors():
    with pytest.raises(ConfigError):
        function_from_dict({"params": {}})
    with pytest.raises(ConfigError):
        function_from_dict({"kind": "cubic", "params": {}})
    with pytest.raises(ConfigError):
        function_from_dict("not a mapping")


def test_region_round_trip():
    for region in (Ball(np.array([1.0, 2.0]), 0.5),
                   Box(np.array([0.0, 0.0]), np.array([1.0, 2.0])),
                   Halfspace(np.array([0.0, 1.0]), 4.0)):
        back = region_from_dict(loads(dumps(region_to_dict(region))))
        assert type(back) is type(region)
        X = np.array([[0.1, 0.4], [5.0, 5.0]])
        np.testing.assert_array_equal(back.contains_many(X),
                                      region.contains_many(X))
    with pytest.raises(ConfigError):
        region_from_dict({"kind": "ball"})
    with pytest.raises(ConfigError):
        region_from_dict({"type": "torus"})


def test_dumps_is_deterministic_and_sorted():
    text = dumps({"b": 1, "a": [2.5, {"z": 0, "y": 1}]})
    assert text == dumps({"a": [2.5, {"y": 1, "z": 0}], "b": 1})
    assert text.index('"a"') < text.index('"b"')
    assert text.endswith("\n")


def test_dumps_handles_infinity():
    # JSON extension: report rows can carry infinite costs
    text = dumps({"cost": math.inf})
    assert "Infinity" in text
    assert loads(text)["cost"] == math.inf
    with pytest.raises(json.JSONDecodeError):
        json.loads("{invalid")


def test_path_csv_round_trip_exact():
    t = np.array([0.0, 1.0 / 3.0, 1.0])
    nodes = np.array([[0.1, -0.2], [math.pi, math.e], [1e-17, 2.0]])
    p = Path(t, nodes)
    text = path_to_csv(p)
    assert text.splitlines()[0] == "t,x0,x1"
    q = path_from_csv(text)
    # %.17g keeps every double bit-exact through the text form
    assert np.array_equal(q.times, p.times)
    assert np.array_equal(q.nodes, p.nodes)


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, width=64),
                min_size=4, max_size=12))
def test_path_csv_round_trip_hypothesis(xs):
    n = len(xs)
    t = np.linspace(0.0, 1.0, n)
    p = Path(t, np.asarray(xs)[:, None])
    q = path_from_csv(path_to_csv(p))
    assert np.array_equal(q.nodes, p.nodes)
    assert np.array_equal(q.times, p.times)


def test_path_csv_rejects_malformed():
    with pytest.raises(ConfigError):
        path_from_csv("t,x0\n0,1\n")
    with pytest.raises(ConfigError):
        path_from_csv("time,x0\n0,1\n1,2\n")
    with pytest.raises(ConfigError):
        path_from_csv("t,x0\n0,1\n1,2,3\n")


def test_breakdown_dict_uses_N_key():
    f = Quadratic(np.array([[1.0]]), np.zeros(1), 0.0)
    b = discrete_action(f, Path.straight([0.0], [1.0], intervals=4))
    doc = breakdown_to_dict(b)
    assert doc["N"] == 4
    assert doc["total"] == pytest.approx(doc["kinetic"] + doc["slope_term"])
    assert doc["rule"] in ("midpoint", "node-trapezoid")


def test_report_rows_csv_layout():
    rows = [{"b": 1.5, "a": 2, "ok": True},
            {"a": 3, "c": [1.0, 2.0]}]
    text = report_rows_to_csv(rows)
    lines = text.splitlines()
    assert lines[0] == "a,b,c,ok"
    assert lines[1] == "2,1.5,,true"
    assert lines[2] == "3,,[1 2],"
    assert report_rows_to_csv([]) == "\n"


def test_family_from_dict_builders():
    fam = family_from_dict({
        "builder": "logsumexp_to_max",
        "vectors": [[1.0], [-1.0]],
        "epsilons": [0.5, 0.2, 0.08],
        "x0": [-1.0], "x1": [1.0],
    })
    assert isinstance(fam, MoscoFamily)
    assert fam.size == 3

    perm = family_from_dict({
        "builder": "logsumexp_to_max",
        "points": [[0.0], [1.0]],
        "epsilons": [0.4, 0.1],
        "x0": [0.0, 0.0], "x1": [1.0, 1.0],
    })
    assert perm.dim == 2
    assert perm.limit.function.vectors.shape == (2, 2)

    pen = family_from_dict({
        "builder": "penalty_to_indicator",
        "region": {"type": "ball", "center": [0.0, 0.0], "radius": 1.5},
        "penalties": [1.0, 4.0],
        "x0": [-1.0, 0.0], "x1": [1.0, 0.0],
    })
    assert isinstance(pen.limit.function, Indicator)

    const = family_from_dict({
        "builder": "constant",
        "function": {"kind": "quadratic",
                     "params": {"Q": [[1.0]], "b": [0.0], "c": 0.0}},
        "x0": [0.0], "x1": [1.0], "size": 3,
    })
    assert const.size == 3

    with pytest.raises(ConfigError):
        family_from_dict({"builder": "mystery"})
    with pytest.raises(ConfigError):
        family_from_dict({})


BALL = {"type": "ball", "center": [0.0], "radius": 1.0}
QUADRATIC_1D = {"kind": "quadratic", "params": {"Q": [[1.0]], "b": [0.0]}}


@pytest.mark.parametrize("parse, doc, missing", [
    (function_from_dict, {"kind": "quadratic", "params": {"Q": [[1.0]]}}, "b"),
    (function_from_dict, {"kind": "max_linear", "params": {}}, "vectors"),
    (function_from_dict, {"kind": "log_sum_exp",
                          "params": {"vectors": [[1.0]]}}, "epsilon"),
    (function_from_dict, {"kind": "indicator", "params": {}}, "region"),
    (function_from_dict, {"kind": "squared_distance",
                          "params": {"region": BALL}}, "weight"),
    (region_from_dict, {"type": "ball", "center": [0.0]}, "radius"),
    (region_from_dict, {"type": "box", "lo": [0.0]}, "hi"),
    (region_from_dict, {"type": "halfspace", "normal": [1.0]}, "offset"),
    (family_from_dict, {"builder": "logsumexp_to_max", "vectors": [[1.0]],
                        "x0": [0.0], "x1": [1.0]}, "epsilons"),
    (family_from_dict, {"builder": "penalty_to_indicator", "region": BALL,
                        "x0": [0.0], "x1": [0.5]}, "penalties"),
    (family_from_dict, {"builder": "constant", "x0": [0.0], "x1": [1.0]},
     "function"),
    (function_from_dict, {"kind": "quadratic", "params": [1]}, "params"),
    # non-numeric values: the error quotes the value
    (function_from_dict, {"kind": "log_sum_exp",
                          "params": {"vectors": [[1.0]], "epsilon": "a"}}, "a"),
    (family_from_dict, {"builder": "constant", "function": QUADRATIC_1D,
                        "x0": [0.0], "x1": [1.0], "size": "x"}, "x"),
    (lambda lines: path_from_csv("\n".join(lines)), ["t,x0", "0,0", "1,b"], "b"),
    # unknown keys: params are the constructor's arguments, anything else is
    # refused rather than dropped, also inside a nested region
    (function_from_dict, {"kind": "quadratic",
                          "params": {"Q": [[1.0]], "b": [0.0], "C": 1.0}}, "C"),
    (function_from_dict, {"kind": "quadratic",
                          "params": {"Q": [[1.0]], "b": [0.0], "lam": 1.0}},
     "lam"),
    (region_from_dict, {**BALL, "rim": 0.1}, "rim"),
    (function_from_dict, {"kind": "indicator",
                          "params": {"region": {**BALL, "centre": [0.0]}}},
     "centre"),
    (function_from_dict, {"kind": "squared_distance",
                          "params": {"region": {**BALL, "tint": 1},
                                     "weight": 1.0}}, "tint"),
    (family_from_dict, {"builder": "penalty_to_indicator",
                        "region": {**BALL, "inner": 0.1}, "penalties": [1.0],
                        "x0": [0.0], "x1": [0.5]}, "inner"),
], ids=lambda v: v if isinstance(v, str) else None)
def test_missing_parameter_is_a_config_error(parse, doc, missing):
    with pytest.raises(ConfigError, match=repr(missing)):
        parse(doc)



def test_subclass_of_a_kind_is_written_under_its_base_kind():
    @dataclass(frozen=True)
    class Tagged(MaxLinear):
        tag: str = "extra"

    class Shifted(Quadratic):
        pass

    for sub, base in ((Tagged([[1.0, 0.0], [0.0, 1.0]]),
                       MaxLinear([[1.0, 0.0], [0.0, 1.0]])),
                      (Shifted([[2.0]], [1.0], 0.5), Quadratic([[2.0]], [1.0], 0.5))):
        doc = function_to_dict(sub)
        # only the base kind's parameters are written
        assert doc == function_to_dict(base)
        assert type(function_from_dict(loads(dumps(doc)))) is type(base)


def test_to_plain_encodes_results_regions_and_numpy_values():
    r = prox(FUNCTIONS[0], 0.5, [1.0, -1.0])
    assert to_plain(r) == {
        "resolvent_point": r.resolvent_point.tolist(),
        "envelope_value": float(r.envelope_value),
        "moreau_gradient": r.moreau_gradient.tolist(),
        "tau": 0.5, "solver_residual": float(r.solver_residual)}
    ball = Ball(np.array([0.5, 0.5]), 2.0)
    plain = to_plain({"region": ball, "f": FUNCTIONS[4], "n": np.int64(3),
                      "ok": np.bool_(True), "xs": (np.float64(0.25),)})
    assert plain == {"region": region_to_dict(ball),
                     "f": function_to_dict(FUNCTIONS[4]),
                     "n": 3, "ok": True, "xs": [0.25]}
    assert type(plain["n"]) is int and type(plain["ok"]) is bool
    assert type(plain["xs"][0]) is float
