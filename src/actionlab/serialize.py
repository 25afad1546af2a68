"""JSON and CSV codecs shared by the library and the CLI.

Function descriptors travel as {"kind", "lambda", "params"} with matrices
row-major; paths travel as CSV with header t,x0,...,x{d-1} at 17 significant
digits.  dumps() pins key order so reruns emit byte-identical documents.
Infinite values serialize as the bare literal Infinity (accepted back by
loads); the action functional is extended-real, so this is deliberate.
"""

from __future__ import annotations

import io
import json
from collections.abc import Mapping

import numpy as np

from .action import ActionBreakdown, Path
from .convex import (ConvexFunction, Indicator, LogSumExp, MaxLinear,
                     ProxResult, Quadratic, SquaredDistance)
from .errors import ConfigError, malformed_input, real_number
from .minimize import MinimizeResult
from .sets import Ball, Box, ConvexRegion, Halfspace

_LAMBDA_TOL = 1e-9


def dumps(obj) -> str:
    """Deterministic JSON: sorted keys, two-space indent, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=True) + "\n"


def loads(text: str):
    return json.loads(text)


def region_to_dict(region: ConvexRegion) -> dict:
    if isinstance(region, Ball):
        return {"type": "ball", "center": region.center.tolist(),
                "radius": float(region.radius)}
    if isinstance(region, Box):
        return {"type": "box", "lo": region.lo.tolist(), "hi": region.hi.tolist()}
    if isinstance(region, Halfspace):
        return {"type": "halfspace", "normal": region.normal.tolist(),
                "offset": float(region.offset)}
    raise ConfigError(f"unknown region {type(region).__name__}")


@malformed_input("region document")
def region_from_dict(doc: dict) -> ConvexRegion:
    try:
        kind = doc["type"]
    except (TypeError, KeyError):
        raise ConfigError("region document needs a 'type' field") from None
    if kind == "ball":
        return Ball(doc["center"], doc["radius"])
    if kind == "box":
        return Box(doc["lo"], doc["hi"])
    if kind == "halfspace":
        return Halfspace(doc["normal"], doc["offset"])
    raise ConfigError(f"unknown region type {kind!r}")


def function_to_dict(f: ConvexFunction) -> dict:
    if isinstance(f, Quadratic):
        params = {"Q": f.Q.tolist(), "b": f.b.tolist(), "c": float(f.c)}
        kind = "quadratic"
    elif isinstance(f, MaxLinear):
        params = {"vectors": f.vectors.tolist()}
        kind = "max_linear"
    elif isinstance(f, LogSumExp):
        params = {"vectors": f.vectors.tolist(), "epsilon": float(f.epsilon)}
        kind = "log_sum_exp"
    elif isinstance(f, Indicator):
        params = {"region": region_to_dict(f.region)}
        kind = "indicator"
    elif isinstance(f, SquaredDistance):
        params = {"region": region_to_dict(f.region), "weight": float(f.weight)}
        kind = "squared_distance"
    else:
        raise ConfigError(f"unknown function kind {type(f).__name__}")
    return {"kind": kind, "lambda": float(f.lam), "params": params}


@malformed_input("function document")
def function_from_dict(doc: dict) -> ConvexFunction:
    """Rebuild a function, cross-checking the declared modulus.

    The modulus is structural (spectrum for quadratics, zero otherwise); a
    document claiming anything else is rejected rather than trusted.
    """
    try:
        kind = doc["kind"]
        params = doc["params"]
    except (TypeError, KeyError):
        raise ConfigError("function document needs 'kind' and 'params'") from None
    if not isinstance(params, Mapping):
        raise ConfigError("function 'params' must be an object")
    if kind == "quadratic":
        f = Quadratic(params["Q"], params["b"], params.get("c", 0.0))
    elif kind == "max_linear":
        f = MaxLinear(params["vectors"])
    elif kind == "log_sum_exp":
        f = LogSumExp(params["vectors"], params["epsilon"])
    elif kind == "indicator":
        f = Indicator(region_from_dict(params["region"]))
    elif kind == "squared_distance":
        f = SquaredDistance(region_from_dict(params["region"]), params["weight"])
    else:
        raise ConfigError(f"unknown function kind {kind!r}")
    if "lambda" in doc:
        declared = real_number(doc["lambda"], "lambda")
        if abs(declared - f.lam) > _LAMBDA_TOL * (1.0 + abs(f.lam)):
            raise ConfigError(
                f"declared modulus {declared} disagrees with the structural "
                f"value {f.lam}")
    return f


@malformed_input("family document")
def family_from_dict(doc: dict):
    """Build a family from {"builder": ..., ...} (see the CLI docs)."""
    from .families import (constant_family, family_logsumexp_to_max,
                           family_penalty_to_indicator, permutation_vectors)
    try:
        builder = doc["builder"]
    except (TypeError, KeyError):
        raise ConfigError("family document needs a 'builder' field") from None
    if builder == "logsumexp_to_max":
        vectors = (permutation_vectors(doc["points"]) if "points" in doc
                   else doc["vectors"])
        return family_logsumexp_to_max(vectors, doc["epsilons"],
                                       doc["x0"], doc["x1"])
    if builder == "penalty_to_indicator":
        return family_penalty_to_indicator(region_from_dict(doc["region"]),
                                           doc["penalties"], doc["x0"],
                                           doc["x1"])
    if builder == "constant":
        return constant_family(function_from_dict(doc["function"]),
                               doc["x0"], doc["x1"], doc.get("size", 6))
    raise ConfigError(f"unknown family builder {builder!r}")


def path_to_csv(path: Path) -> str:
    header = "t," + ",".join(f"x{i}" for i in range(path.dim))
    out = io.StringIO()
    out.write(header + "\n")
    for t, row in zip(path.times, path.nodes):
        out.write("%.17g" % t)
        for v in row:
            out.write(",%.17g" % v)
        out.write("\n")
    return out.getvalue()


@malformed_input("path CSV")
def path_from_csv(text: str) -> Path:
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if len(lines) < 3:
        raise ConfigError("path CSV needs a header and at least two rows")
    header = lines[0].split(",")
    if header[0] != "t" or any(h != f"x{i}" for i, h in enumerate(header[1:])):
        raise ConfigError("path CSV header must be t,x0,...,x{d-1}")
    d = len(header) - 1
    if d < 1:
        raise ConfigError("path CSV needs at least one coordinate column")
    times = []
    nodes = []
    for ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != d + 1:
            raise ConfigError("path CSV row width does not match the header")
        times.append(float(cells[0]))
        nodes.append([float(c) for c in cells[1:]])
    return Path(np.asarray(times), np.asarray(nodes))


def breakdown_to_dict(b: ActionBreakdown) -> dict:
    return {
        "kinetic": float(b.kinetic),
        "slope_term": float(b.slope_term),
        "total": float(b.total),
        "rule": b.rule,
        "N": int(b.intervals),
    }


def prox_result_to_dict(r: ProxResult) -> dict:
    return {
        "resolvent_point": r.resolvent_point.tolist(),
        "envelope_value": float(r.envelope_value),
        "moreau_gradient": r.moreau_gradient.tolist(),
        "tau": float(r.tau),
        "solver_residual": float(r.solver_residual),
    }


def minimize_result_to_dict(res: MinimizeResult) -> dict:
    return {
        "value_smoothed": float(res.value_smoothed),
        "value_true": float(res.value_true),
        "iterations": int(res.iterations),
        "converged": bool(res.converged),
        "tau_schedule": [float(t) for t in res.tau_schedule],
    }


def _csv_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return "%.17g" % v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (list, tuple)):
        return "[" + " ".join(_csv_cell(u) for u in v) + "]"
    return str(v)


def report_rows_to_csv(rows) -> str:
    """Flatten report rows to CSV; the column set is the sorted key union."""
    rows = list(rows)
    if not rows:
        return "\n"
    cols = sorted({k for row in rows for k in row})
    out = io.StringIO()
    out.write(",".join(cols) + "\n")
    for row in rows:
        out.write(",".join(_csv_cell(row[k]) if k in row else "" for k in cols))
        out.write("\n")
    return out.getvalue()
