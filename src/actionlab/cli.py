"""Command-line front end.

Subcommands: prox, slope, interpolate, minimize, gamma, verify.  Inputs come
from --config (a JSON file) with individual flags overriding; CSV artifacts
land in --csv-dir (default: current directory; prox, slope and verify ignore
it).  Every command prints one JSON document to stdout at full double
precision; verify exits nonzero when any check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import serialize
from .action import (Path, coarsened_interpolation_bound, discrete_action,
                     interpolation_bound, interpolation_path)
from .convex import prox, slope
from .errors import ActionLabError, ConfigError, as_point, malformed_input, real_number
from .experiments import (gamma_limsup_experiment, gamma_value_experiment,
                          resolvent_convergence_table,
                          slope_semicontinuity_table)
from .minimize import MinimizeConfig, minimize_action
from .verify import SCOPES, verify_suite

_EXPERIMENTS = ("resolvent", "value", "limsup", "slope_lsc")


def _floats(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated numbers, got {text!r}") from exc


def _points(text: str) -> list[list[float]]:
    return [_floats(chunk) for chunk in text.split(";") if chunk.strip()]


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path!r}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path!r}: {exc}") from exc


def _setting(args, config: dict, key: str, default=None, required: bool = False):
    flag = getattr(args, key.replace("-", "_"), None)
    if flag is not None:
        return flag
    if key in config:
        return config[key]
    if required:
        raise ActionLabError(f"missing required setting {key!r} "
                             f"(flag --{key} or config key)")
    return default


def _document(args, config: dict, key: str):
    """The function or family document, read from --<key> FILE or the
    config."""
    read = {"function": serialize.function_from_dict,
            "family": serialize.family_from_dict}[key]
    if getattr(args, key, None):
        return read(_load_json(getattr(args, key)))
    if key in config:
        return read(config[key])
    raise ActionLabError(f"no {key} given (--{key} FILE or config)")


def _minimize_config(args, config: dict) -> MinimizeConfig:
    flags = {}
    for key, attr in (("N", "n"), ("max_iters", "max_iters"),
                      ("grad_tol", "grad_tol")):
        v = getattr(args, attr, None)
        if v is not None:
            flags[key] = v
    with malformed_input("the 'minimize' config section"):
        return MinimizeConfig(**{**config.get("minimize", {}), **flags})


def _write_csv(csv_dir: str, name: str, text: str) -> str:
    os.makedirs(csv_dir, exist_ok=True)
    target = os.path.join(csv_dir, name)
    with open(target, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return target


def _emit(doc: dict) -> None:
    sys.stdout.write(serialize.dumps(doc))


def _cmd_prox(args, config) -> int:
    f = _document(args, config, "function")
    tau = _setting(args, config, "tau", required=True)
    x = _setting(args, config, "point", required=True)
    result = prox(f, tau, x)
    _emit(serialize.to_plain(result))
    return 0


def _cmd_slope(args, config) -> int:
    f = _document(args, config, "function")
    x = as_point(_setting(args, config, "point", required=True), f.dim, "point")
    _emit({"point": x.tolist(), "slope": float(slope(f, x))})
    return 0


def _cmd_interpolate(args, config) -> int:
    f = _document(args, config, "function")
    tau = real_number(_setting(args, config, "tau", required=True), "tau")
    delta = real_number(_setting(args, config, "delta", required=True), "delta")
    x0 = _setting(args, config, "x0", required=True)
    xd = _setting(args, config, "xd", required=True)
    path = interpolation_path(f, tau, delta, x0, xd,
                              _setting(args, config, "samples", 256))
    target = _write_csv(args.csv_dir, "interpolate_path.csv",
                        serialize.path_to_csv(path))
    breakdown = discrete_action(f, path)
    doc = {
        "bound": interpolation_bound(f, tau, delta, x0, xd),
        "coarsened_bound": (coarsened_interpolation_bound(f, tau, x0, xd)
                            if abs(delta - tau) <= 1e-12 else None),
        "action": serialize.breakdown_to_dict(breakdown),
        "csv": target,
    }
    _emit(doc)
    return 0


def _cmd_minimize(args, config) -> int:
    f = _document(args, config, "function")
    delta = _setting(args, config, "delta", required=True)
    x0 = _setting(args, config, "x0", required=True)
    xd = _setting(args, config, "xd", required=True)
    cfg = _minimize_config(args, config)
    result = minimize_action(f, x0, xd, delta, cfg)
    target = _write_csv(args.csv_dir, "minimize_path.csv",
                        serialize.path_to_csv(result.path))
    doc = serialize.minimize_result_to_dict(result)
    doc["csv"] = target
    _emit(doc)
    return 0


def _gamma_path(args, config, family) -> Path:
    source = _setting(args, config, "gamma-csv")
    if source:
        try:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read {source!r}: {exc.strerror}") from exc
        return serialize.path_from_csv(text)
    return Path.straight(family.limit.start, family.limit.end,
                         intervals=_setting(args, config, "gamma-intervals", 64))


def _cmd_gamma(args, config) -> int:
    family = _document(args, config, "family")
    kind = _setting(args, config, "experiment", required=True)
    if kind not in _EXPERIMENTS:
        raise ActionLabError(f"experiment must be one of {_EXPERIMENTS}")
    if kind == "resolvent":
        tau = _setting(args, config, "tau", required=True)
        probes = _setting(args, config, "probes", required=True)
        report = resolvent_convergence_table(family, tau, probes)
    elif kind == "value":
        delta = _setting(args, config, "delta", 1.0)
        report = gamma_value_experiment(family, delta,
                                        _minimize_config(args, config))
    elif kind == "limsup":
        taus = _setting(args, config, "taus", required=True)
        if isinstance(taus, str):
            taus = _floats(taus)
        report = gamma_limsup_experiment(family, _gamma_path(args, config, family),
                                         taus)
    else:
        probes = _setting(args, config, "probes", required=True)
        report = slope_semicontinuity_table(family, probes)
    target = _write_csv(args.csv_dir, f"gamma_{kind}.csv",
                        serialize.report_rows_to_csv(report.rows))
    doc = report.to_dict()
    doc["csv"] = target
    _emit(doc)
    return 0


def _cmd_verify(args, config) -> int:
    scopes = _setting(args, config, "scope")
    if isinstance(scopes, str):
        scopes = tuple(s.strip() for s in scopes.split(","))
    joins = args.function or "function" in config
    extra = [_document(args, config, "function")] if joins else []
    report = verify_suite(scopes=scopes, seed=_setting(args, config, "seed", 0),
                          samples=_setting(args, config, "samples"), extra_functions=extra)
    for line in report.summary_lines():
        sys.stderr.write(line + "\n")
    _emit(report.to_dict())
    return 0 if report.ok else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="actionlab",
        description="Proximal calculus, action functionals, and convergence "
                    "experiments for lambda-convex functions.")
    sub = parser.add_subparsers(dest="command", required=True)
    no_csv = "accepted and ignored: this command writes no CSV"

    def common(p, csv_help="directory for CSV output"):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--csv-dir", default=".", help=csv_help)
        p.add_argument("--function", help="JSON file with a function descriptor")

    def minimize_flags(p):
        p.add_argument("--n", type=int, help="interior resolution N")
        p.add_argument("--max-iters", type=int)
        p.add_argument("--grad-tol", type=float)

    p = sub.add_parser("prox", help="resolvent, envelope, and gradient at a point")
    common(p, no_csv)
    p.add_argument("--tau", type=float)
    p.add_argument("--point", type=_floats)
    p.set_defaults(handler=_cmd_prox)

    p = sub.add_parser("slope", help="metric slope at a point")
    common(p, no_csv)
    p.add_argument("--point", type=_floats)
    p.set_defaults(handler=_cmd_slope)

    p = sub.add_parser("interpolate", help="constructed path between endpoints "
                                           "with its action bound")
    common(p)
    p.add_argument("--tau", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--x0", type=_floats)
    p.add_argument("--xd", type=_floats)
    p.add_argument("--samples", type=int)
    p.set_defaults(handler=_cmd_interpolate)

    p = sub.add_parser("minimize", help="endpoint-constrained action minimization")
    common(p)
    p.add_argument("--delta", type=float)
    p.add_argument("--x0", type=_floats)
    p.add_argument("--xd", type=_floats)
    minimize_flags(p)
    p.set_defaults(handler=_cmd_minimize)

    p = sub.add_parser("gamma", help="family convergence experiments")
    common(p)
    p.add_argument("--family", help="JSON file with a family descriptor")
    p.add_argument("--experiment", choices=_EXPERIMENTS)
    p.add_argument("--tau", type=float)
    p.add_argument("--taus", help="comma-separated taus for limsup")
    p.add_argument("--delta", type=float)
    p.add_argument("--probes", type=_points,
                   help="semicolon-separated points, e.g. '-1;0.5;2'")
    p.add_argument("--gamma-csv", help="CSV path for the base curve")
    p.add_argument("--gamma-intervals", type=int)
    minimize_flags(p)
    p.set_defaults(handler=_cmd_gamma)

    p = sub.add_parser("verify", help="run the seeded invariant suite")
    common(p, no_csv)
    p.add_argument("--scope", help=f"comma-separated subset of {SCOPES}")
    p.add_argument("--seed", type=int)
    p.add_argument("--samples", type=int)
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _load_json(args.config) if args.config else {}
        if not isinstance(config, dict):
            raise ConfigError(f"config {args.config!r} must hold a JSON object")
        return args.handler(args, config)
    except ActionLabError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
