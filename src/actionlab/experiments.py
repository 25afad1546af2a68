"""Convergence experiments over families: resolvent tables, minimal-value
runs, recovery-curve audits, and slope semicontinuity probes.

Every experiment returns an ExperimentReport whose rows are plain dicts
(JSON-ready) and whose flags list the audit violations; an empty flag tuple
means the report is clean.  Reports are deterministic functions of their
inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import serialize
from .action import (Path, _check_path, discrete_action, recovery_action_bound,
                     recovery_path, recovery_tolerance)
from .convex import as_point, slope
from .errors import (ConfigError, malformed_input, real_number, real_schedule,
                     whole_number)
from .families import MoscoFamily, eventually_decreasing
from .minimize import MinimizeConfig, _config, minimize_action

_ENDPOINT_TOL = 1e-8


@dataclass(frozen=True)
class ExperimentReport:
    kind: str
    rows: tuple[dict, ...]
    limit_row: dict | None
    metadata: dict
    flags: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.flags

    def to_dict(self) -> dict:
        return {**serialize.to_plain(self), "ok": self.ok}


def _check_probes(family: MoscoFamily, probes) -> list[np.ndarray]:
    with malformed_input("probes"):
        pts = [as_point(p, family.dim, f"probe[{i}]") for i, p in enumerate(probes)]
    if not pts:
        raise ConfigError("at least one probe point is required")
    return pts


def resolvent_convergence_table(family: MoscoFamily, tau: float,
                                probes) -> ExperimentReport:
    """Gaps |J_{f_h,tau}(p) - J_{f,tau}(p)| per (member, probe).

    All probes go through one resolvent batch per member and one for the
    limit.  Each probe's gap column is audited for eventual decrease; final
    gaps per probe land in the metadata.
    """
    pts = _check_probes(family, probes)
    tau = family.limit.function.require_admissible(tau)
    for mem in family.members:
        mem.function.require_admissible(tau)

    P = np.array(pts)
    limit_points, _ = family.limit.function.prox_many(tau, P)
    Y = np.array([mem.function.prox_many(tau, P)[0] for mem in family.members])
    gaps = np.linalg.norm(Y - limit_points, axis=2).tolist()  # [member][probe]
    rows = [{"member": h, "probe": j, "gap": g}
            for h, member_gaps in enumerate(gaps) for j, g in enumerate(member_gaps)]
    flags = [f"resolvent gap not eventually decreasing at probe {j}"
             for j, col in enumerate(zip(*gaps)) if not eventually_decreasing(col)]

    metadata = {
        "label": family.label,
        "members": family.size,
        "tau": tau,
        "probes": [p.tolist() for p in pts],
        "final_gaps": gaps[-1],
    }
    limit_row = {"resolvents": [q.tolist() for q in limit_points]}
    return ExperimentReport("resolvent", tuple(rows), limit_row, metadata,
                            tuple(flags))


def gamma_value_experiment(family: MoscoFamily, delta: float,
                           config: MinimizeConfig | None = None) -> ExperimentReport:
    """Minimal action per member versus the limit's, with a gap audit.

    Rows report each member's optimized value, its absolute gap to the limit
    value, and the optimizer's convergence flag; non-convergence and a
    non-decreasing gap tail both raise flags.
    """
    cfg = _config(config)
    delta = real_number(delta, "delta", positive=True)
    limit_res = minimize_action(family.limit.function, family.limit.start,
                                family.limit.end, delta, cfg)
    limit_value = float(limit_res.value_true)

    rows = []
    flags = []
    gaps = []
    for h, mem in enumerate(family.members):
        res = minimize_action(mem.function, mem.start, mem.end, delta, cfg)
        gap = abs(float(res.value_true) - limit_value)
        gaps.append(gap)
        rows.append({
            "member": h,
            "value": float(res.value_true),
            "gap_to_limit": gap,
            "iterations": int(res.iterations),
            "converged": bool(res.converged),
        })
        if not res.converged:
            flags.append(f"member {h} optimizer did not converge")
    if not limit_res.converged:
        flags.append("limit optimizer did not converge")
    if not eventually_decreasing(gaps):
        flags.append("value gap to the limit is not eventually decreasing")

    scale = max(abs(limit_value), 1e-12)
    metadata = {
        "label": family.label,
        "members": family.size,
        "delta": delta,
        "N": cfg.N,
        "final_gap": gaps[-1],
        "final_relative_gap": gaps[-1] / scale,
    }
    limit_row = {
        "value": limit_value,
        "iterations": int(limit_res.iterations),
        "converged": bool(limit_res.converged),
    }
    return ExperimentReport("value", tuple(rows), limit_row, metadata,
                            tuple(flags))


def gamma_limsup_experiment(family: MoscoFamily, gamma: Path,
                            tau_schedule) -> ExperimentReport:
    """Recovery curves of gamma under every member, audited against the bound.

    gamma must live on [0, 1], join the limit endpoints, and carry finite
    action under the limit function.  For each (member, tau) the recovery
    curve's action is checked against
    (1 + tau*lambda)^-2 (action(gamma) + 472 tau S^2) plus the published
    tolerance; violations are flagged.
    """
    taus = real_schedule(tau_schedule, "tau_schedule")
    _check_path(family.limit.function, gamma, "gamma")
    for name, target, node in (("start", family.limit.start, gamma.nodes[0]),
                               ("end", family.limit.end, gamma.nodes[-1])):
        if float(np.linalg.norm(node - target)) > _ENDPOINT_TOL:
            raise ConfigError(f"gamma {name} must match the limit endpoint")

    base = discrete_action(family.limit.function, gamma)
    A = float(base.total)
    if not math.isfinite(A):
        raise ConfigError("gamma must have finite action under the limit")

    lam = family.uniform_lambda
    S = family.slope_bound_S
    rows = []
    flags = []
    for tau in taus:
        bound = recovery_action_bound(A, tau, lam, S)
        tol = recovery_tolerance(A, tau, lam, S)
        for h, mem in enumerate(family.members):
            rp = recovery_path(mem.function, tau, gamma, mem.start, mem.end)
            act = float(discrete_action(mem.function, rp).total)
            ok = act <= bound + tol
            rows.append({
                "member": h,
                "tau": tau,
                "action": act,
                "bound": bound,
                "tolerance": tol,
                "gap_to_limit": act - A,
                "ok": bool(ok),
            })
            if not ok:
                flags.append(
                    f"recovery bound violated for member {h} at tau {tau:g}")

    metadata = {
        "label": family.label,
        "members": family.size,
        "taus": list(taus),
        "uniform_lambda": lam,
        "slope_bound_S": S,
        "gamma_intervals": gamma.intervals,
    }
    limit_row = {"action": A, "kinetic": float(base.kinetic)}
    return ExperimentReport("limsup", tuple(rows), limit_row, metadata,
                            tuple(flags))


def slope_semicontinuity_table(family: MoscoFamily, probes,
                               margin: float = 1e-6,
                               window: int = 3) -> ExperimentReport:
    """Surrogate lower-semicontinuity audit of the slope along the family.

    Member slopes may sit below the limit slope at every finite index (they
    typically climb toward it), so a finite table cannot bound the liminf
    directly.  The evidence demanded instead: the final member's deficit
    (limit slope - member slope)^+ is at most margin, and the deficits are
    eventually decreasing.  Probes where the limit slope is infinite only
    pass if the member slopes also diverge; choose probes inside the limit's
    domain unless that divergence is the point.
    """
    window = whole_number(window, "window")
    margin = real_number(margin, "margin")
    pts = _check_probes(family, probes)
    rows = []
    flags = []
    for j, p in enumerate(pts):
        member_slopes = [float(slope(m.function, p)) for m in family.members]
        limit_slope = float(slope(family.limit.function, p))
        if np.isinf(limit_slope):
            deficits = [0.0 if np.isinf(s) else np.inf for s in member_slopes]
        else:
            deficits = [max(limit_slope - s, 0.0) for s in member_slopes]
        ok = deficits[-1] <= margin and eventually_decreasing(
            deficits, window=window)
        rows.append({
            "probe": j,
            "limit_slope": limit_slope,
            "member_slopes": member_slopes,
            "final_deficit": deficits[-1],
            "ok": bool(ok),
        })
        if not ok:
            flags.append(f"slope semicontinuity fails at probe {j}")
    metadata = {
        "label": family.label,
        "members": family.size,
        "margin": margin,
        "window": window,
        "probes": [p.tolist() for p in pts],
    }
    return ExperimentReport("slope_lsc", tuple(rows), None, metadata,
                            tuple(flags))
