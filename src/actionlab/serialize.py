"""JSON and CSV codecs shared by the library and the CLI.

Function descriptors travel as {"kind", "lambda", "params"} and regions as
{"type", ...}.  The names come from the two tables below and the parameters
are the class's dataclass init fields, so a document is read back by calling
the class with them; a kind or region type is added by one table entry.
Matrices are row-major; paths travel as CSV with header t,x0,...,x{d-1} at 17
significant digits.  `to_plain` turns any report, result or failure record
into JSON-ready data, and dumps() pins key order so reruns emit
byte-identical documents.  Infinite values serialize as the bare literal
Infinity (accepted back by loads); the action functional is extended-real,
so this is deliberate.
"""

from __future__ import annotations

import io
import json
from collections.abc import Mapping
from dataclasses import fields, is_dataclass

import numpy as np

from .action import ActionBreakdown, Path
from .convex import (ConvexFunction, Indicator, LogSumExp, MaxLinear, Quadratic,
                     SquaredDistance)
from .errors import ConfigError, malformed_input, real_number
from .minimize import MinimizeResult
from .sets import Ball, Box, ConvexRegion, Halfspace

_LAMBDA_TOL = 1e-9

# The only place the document names of the kinds and regions are spelled.
# Writing takes the first class an object is an instance of, so a subclass
# of a kind is written under its base kind's name.
_KINDS = {"quadratic": Quadratic, "max_linear": MaxLinear,
          "log_sum_exp": LogSumExp, "indicator": Indicator,
          "squared_distance": SquaredDistance}
_REGIONS = {"ball": Ball, "box": Box, "halfspace": Halfspace}


def dumps(obj) -> str:
    """Deterministic JSON: sorted keys, two-space indent, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=True) + "\n"


def loads(text: str):
    return json.loads(text)


def to_plain(obj):
    """obj as JSON-ready data: containers element by element, numpy arrays
    and scalars as Python lists and numbers, a function or region as its
    document, and any other dataclass as the dict of its init fields."""
    if isinstance(obj, dict):
        return {k: to_plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return to_plain(obj.tolist())
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)) and not isinstance(obj, bool):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, ConvexFunction):
        return function_to_dict(obj)
    if isinstance(obj, ConvexRegion):
        return region_to_dict(obj)
    if is_dataclass(obj):
        return _init_fields(type(obj), obj)
    return obj


def _init_fields(cls, obj) -> dict:
    return {fld.name: to_plain(getattr(obj, fld.name))
            for fld in fields(cls) if fld.init}


def _entry(table: dict, obj, what: str) -> tuple[str, dict]:
    """The name of the first table class obj is an instance of, and obj's
    values of that class's init fields."""
    for name, cls in table.items():
        if isinstance(obj, cls):
            return name, _init_fields(cls, obj)
    raise ConfigError(f"unknown {what} {type(obj).__name__}")


def _table_class(table: dict, name, what: str):
    try:
        return table[name]
    except (KeyError, TypeError):
        raise ConfigError(f"unknown {what} {name!r}") from None


def region_to_dict(region: ConvexRegion) -> dict:
    name, params = _entry(_REGIONS, region, "region")
    return {"type": name, **params}


@malformed_input("region document")
def region_from_dict(doc: dict) -> ConvexRegion:
    """Rebuild a region; a missing or unknown key is a ConfigError naming it."""
    try:
        cls = _table_class(_REGIONS, doc["type"], "region type")
    except (TypeError, KeyError):
        raise ConfigError("region document needs a 'type' field") from None
    return cls(**{k: v for k, v in doc.items() if k != "type"})


def function_to_dict(f: ConvexFunction) -> dict:
    kind, params = _entry(_KINDS, f, "function kind")
    return {"kind": kind, "lambda": float(f.lam), "params": params}


@malformed_input("function document")
def function_from_dict(doc: dict) -> ConvexFunction:
    """Rebuild a function, cross-checking the declared modulus.

    The params are the kind's constructor arguments (a nested region is read
    first); a missing or unknown key is a ConfigError naming it.  The
    modulus is structural (spectrum for quadratics, zero otherwise); a
    document claiming anything else is rejected rather than trusted.
    """
    try:
        kind = doc["kind"]
        params = doc["params"]
    except (TypeError, KeyError):
        raise ConfigError("function document needs 'kind' and 'params'") from None
    if not isinstance(params, Mapping):
        raise ConfigError("function 'params' must be an object")
    cls = _table_class(_KINDS, kind, "function kind")
    if "region" in params:
        params = {**params, "region": region_from_dict(params["region"])}
    f = cls(**params)
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
