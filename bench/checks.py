"""Independent references for the benchmark's output checks.

Nothing here imports actionlab.  Each helper recomputes a quantity from its
definition (closed forms, non-negative least squares, gradients coded by
hand), so a check cannot pass merely because the program agrees with itself.
"""
from __future__ import annotations

import math

import numpy as np

#: 2|f(xd) - f(x0)| <= action holds for the exact integral; the chord-midpoint
#: quadrature the program reports may undershoot it by this share.
ENERGY_SLACK = 1e-3
#: allowed spread of |v|^2 - |grad f|^2 along a smooth solve, as a share of
#: mean |v|^2 + mean |grad f|^2
CONSERVATION_TOL = 0.05
#: the program's Wolfe exit certifies a duality gap of at most this times
#: (1 + R^2), R the radius of the shifted hull (minnorm.py)
WOLFE_GAP = 1e-12


class Unconverged(Exception):
    """The program reported that it did not reach its stopping rule."""


class Wrong(Exception):
    """An output disagrees with an independent computation or property."""


def require(ok, message: str) -> None:
    if not ok:
        raise Wrong(message)


def close(got: float, want: float, rel: float, what: str) -> None:
    require(abs(got - want) <= rel * abs(want),
            f"{what}: {got!r} is not within {rel:g} of {want!r}")


# ---------------------------------------------------------------------------
# minimal actions with closed forms

def quadratic_action(Q, a, b, delta: float) -> float:
    """Minimal action of f(x) = x'Qx/2 from a to b over [0, delta].

    In the eigenbasis of Q the problem splits into scalar problems
    x'' = q^2 x, each with value |q|((a^2 + b^2) cosh(|q|delta) - 2ab) /
    sinh(|q|delta), or (b - a)^2/delta when q = 0.
    """
    w, V = np.linalg.eigh(np.asarray(Q, dtype=float))
    ca = V.T @ np.atleast_1d(np.asarray(a, dtype=float))
    cb = V.T @ np.atleast_1d(np.asarray(b, dtype=float))
    total = 0.0
    for q, x, y in zip(np.abs(w), ca, cb):
        if q * delta < 1e-8:
            total += (y - x) ** 2 / delta
        else:
            qd = q * delta
            total += q * ((x * x + y * y) * math.cosh(qd) - 2.0 * x * y) / math.sinh(qd)
    return float(total)


def abs_action(a: float, b: float, delta: float) -> float:
    """Minimal action of f(x) = |x| from a <= 0 to b >= 0 over [0, delta].

    Away from the kink the slope is 1 and at the kink it is 0, so the path
    runs at constant speed for a time u <= delta and rests at 0 for the
    rest: min over u in (0, delta] of (|a| + |b|)^2/u + u.
    """
    if a > 0.0 or b < 0.0:
        raise ValueError("endpoints must lie on either side of the kink")
    s = abs(a) + abs(b)
    return 2.0 * s if s <= delta else s * s / delta + delta


def check_lower_bounds(value: float, x0, xd, delta: float, f0: float,
                       fd: float) -> None:
    """value >= |xd - x0|^2/delta (exact for piecewise-linear paths) and
    value >= 2|f(xd) - f(x0)| up to ENERGY_SLACK * (1 + value)."""
    disp = np.asarray(xd, dtype=float) - np.asarray(x0, dtype=float)
    kinetic = float(disp @ disp) / delta
    require(value >= kinetic * (1.0 - 1e-12) - 1e-12,
            f"action {value!r} below the kinetic bound {kinetic!r}")
    energy = 2.0 * abs(fd - f0)
    require(value >= energy - ENERGY_SLACK * (1.0 + value),
            f"action {value!r} below the energy bound {energy!r}")


def conservation_residual(times, nodes, grad) -> float:
    """max_i |e_i - mean e| / (mean |v|^2 + mean |grad f|^2) for
    e_i = |v_i|^2 - |grad f(m_i)|^2 at chord midpoints m_i.

    A stationary path of the action conserves e, so a converged smooth
    solve keeps this small.
    """
    t = np.asarray(times, dtype=float)
    X = np.asarray(nodes, dtype=float)
    V = np.diff(X, axis=0) / np.diff(t)[:, None]
    G = grad(0.5 * (X[:-1] + X[1:]))
    v2 = np.einsum("ij,ij->i", V, V)
    g2 = np.einsum("ij,ij->i", G, G)
    e = v2 - g2
    scale = float(v2.mean() + g2.mean())
    return float(np.abs(e - e.mean()).max()) / scale if scale > 0 else 0.0


def midpoint_action(times, nodes, slope) -> float:
    """Kinetic term plus chord-midpoint quadrature of slope^2."""
    t = np.asarray(times, dtype=float)
    X = np.asarray(nodes, dtype=float)
    dt = np.diff(t)
    D = np.diff(X, axis=0)
    s = slope(0.5 * (X[:-1] + X[1:]))
    return float((np.einsum("ij,ij->i", D, D) / dt).sum() + (dt * s * s).sum())


# ---------------------------------------------------------------------------
# functions coded independently of the program

def lse_value(A, eps: float, X) -> np.ndarray:
    """eps * log((1/m) sum_i exp(<a_i, x>/eps)) per row of X."""
    S = np.atleast_2d(X) @ np.asarray(A, dtype=float).T / eps
    top = S.max(axis=1)
    return eps * (top + np.log(np.exp(S - top[:, None]).mean(axis=1)))


def lse_grad(A, eps: float, X) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    S = np.atleast_2d(X) @ A.T / eps
    W = np.exp(S - S.max(axis=1, keepdims=True))
    return (W / W.sum(axis=1, keepdims=True)) @ A


def max_value(A, X) -> np.ndarray:
    return (np.atleast_2d(X) @ np.asarray(A, dtype=float).T).max(axis=1)


def ball_project(center, radius: float, X) -> np.ndarray:
    D = np.atleast_2d(X) - center
    n = np.linalg.norm(D, axis=1, keepdims=True)
    scale = np.where(n > radius, radius / np.where(n > 0, n, 1.0), 1.0)
    return center + D * scale


def ball_distance(center, radius: float, X) -> np.ndarray:
    return np.maximum(np.linalg.norm(np.atleast_2d(X) - center, axis=1) - radius, 0.0)


# ---------------------------------------------------------------------------
# resolvents

def hull_residual(A, p) -> float:
    """Distance-like residual of p from conv{rows of A}: the NNLS residual of
    sum_i w_i a_i = p, sum_i w_i = 1, w >= 0."""
    # imported here so that set-up probes, which import this module, do not
    # pay for scipy.optimize, which the program does not use
    from scipy.optimize import nnls

    A = np.asarray(A, dtype=float)
    M = np.vstack([A.T, np.ones(A.shape[0])])
    rhs = np.concatenate([np.asarray(p, dtype=float), [1.0]])
    return float(nnls(M, rhs)[1])


def projection_excess(A, Z, P) -> np.ndarray:
    """Per row, the largest violation of <a_i - p, z - p> <= 0, the condition
    for p to be the projection of z onto conv{a_i}.

    The tolerance follows the program's stated Wolfe exit: a certified gap
    g <= WOLFE_GAP (1 + R^2), R = max_i |a_i - z|, puts p within e = sqrt(g)
    of the projection, which moves each inner product by at most
    e (|z - p| + |a_i - p|) + e^2.
    """
    A = np.asarray(A, dtype=float)
    Z = np.atleast_2d(Z)
    P = np.atleast_2d(P)
    radius = np.linalg.norm(A[None] - Z[:, None], axis=2).max(axis=1)
    e = np.sqrt(WOLFE_GAP * (1.0 + radius * radius))[:, None]
    AP = A[None] - P[:, None]
    inner = np.einsum("kmd,kd->km", AP, Z - P)
    tol = (e * (np.linalg.norm(Z - P, axis=1)[:, None] + np.linalg.norm(AP, axis=2))
           + e * e + 1e-12)
    return (inner - tol).max(axis=1)


def check_max_linear_resolvents(A, tau: float, X, Y) -> None:
    """Y = J_tau(X) for f = max_i <a_i, x>: p = (x - y)/tau lies in conv{a_i}
    (NNLS; in dimension one the hull is the interval [min a, max a]) and is
    the projection of x/tau onto it."""
    A = np.asarray(A, dtype=float)
    X = np.atleast_2d(X)
    Y = np.atleast_2d(Y)
    require(Y.shape == X.shape, f"resolvent shape {Y.shape} != {X.shape}")
    require(np.all(np.isfinite(Y)), "non-finite resolvent")
    P = (X - Y) / tau
    scale = 1.0 + float(np.abs(A).max())
    if A.shape[1] == 1:
        slack = 1e-12 * scale
        require(np.all((P >= A.min() - slack) & (P <= A.max() + slack)),
                "resolvent gradient leaves the hull interval")
    else:
        for i, p in enumerate(P):
            r = hull_residual(A, p)
            require(r <= 1e-9 * scale,
                    f"row {i}: (x - y)/tau is {r:.3e} outside conv(a_i)")
    excess = projection_excess(A, X / tau, P)
    worst = int(np.argmax(excess))
    require(excess[worst] <= 0.0,
            f"row {worst}: projection condition violated by {excess[worst]:.3e}")


def check_lse_resolvents(A, eps: float, tau: float, X, Y) -> None:
    """|y + tau grad f(y) - x| within 1e-10 (1 + |x|); the program stops its
    Newton solve at 1e-11 (1 + |x|)."""
    X = np.atleast_2d(X)
    Y = np.atleast_2d(Y)
    R = Y + tau * lse_grad(A, eps, Y) - X
    worst = float((np.linalg.norm(R, axis=1) / (1.0 + np.linalg.norm(X, axis=1))).max())
    require(worst <= 1e-10, f"resolvent equation residual {worst:.3e}")


def smoothed_max_gap_bound(tau: float, eps: float, m: int) -> float:
    """|J_tau^{f_eps}(x) - J_tau^{f}(x)| <= sqrt(tau eps log m) when
    0 <= f - f_eps <= eps log m: adding the two strong-convexity
    inequalities of the resolvent objectives gives |y - z|^2/tau <= eps log m."""
    return math.sqrt(tau * eps * math.log(m))


# ---------------------------------------------------------------------------
# grid oracle and recovery estimate

def speed_bias(lo, hi, cells, steps: int, delta: float) -> float:
    """Kinetic overestimate of the layered grid: velocities are quantized in
    steps q_j = h_j T / delta, and alternating step counts to emulate an
    intermediate speed costs at most q_j^2/4 per unit time."""
    h = (np.asarray(hi, dtype=float) - np.asarray(lo, dtype=float)) / np.asarray(cells)
    q = h * steps / delta
    return float((q * q).sum() / 4.0 * delta)


def recovery_bound(action: float, tau: float, lam: float, S: float) -> float:
    """(1 + tau lambda)^-2 (action + 472 tau S^2) plus the stated slack
    2 tau bound + 1e-3 (1 + bound): the curve is rescaled from
    [-tau, 1 + tau] to [0, 1], which scales its kinetic term by 1 + 2 tau."""
    bound = (action + 472.0 * tau * S * S) / (1.0 + tau * lam) ** 2
    return bound + 2.0 * tau * bound + 1e-3 * (1.0 + abs(bound))
