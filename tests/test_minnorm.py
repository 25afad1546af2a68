import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import minimize as scipy_minimize

import actionlab
from actionlab.errors import ConfigError
from actionlab.minnorm import (_affine_weights, hull_projection,
                               hull_projection_with_gap, min_norm_point,
                               min_norm_point_with_gap)
from test_convex import nnls_projection


def qp_oracle(points: np.ndarray) -> np.ndarray:
    """Min-norm point of the hull via SLSQP on the simplex weights."""
    m = points.shape[0]

    def objective(w):
        x = w @ points
        return float(x @ x)

    res = scipy_minimize(
        objective,
        np.full(m, 1.0 / m),
        method="SLSQP",
        bounds=[(0.0, 1.0)] * m,
        constraints=[{"type": "eq", "fun": lambda w: w.sum() - 1.0}],
        options={"ftol": 1e-14, "maxiter": 400},
    )
    assert res.success, res.message
    return res.x @ points


def test_segment_example():
    x = min_norm_point(np.array([[1.0, 0.0], [0.0, 1.0]]))
    np.testing.assert_allclose(x, [0.5, 0.5], atol=1e-10)


def test_interval_straddling_origin():
    x = min_norm_point(np.array([[2.0], [-1.0]]))
    assert x == pytest.approx(0.0, abs=1e-12)


def test_interval_one_side():
    x = min_norm_point(np.array([[2.0], [0.5]]))
    assert x[0] == pytest.approx(0.5, abs=1e-12)


def test_singleton():
    np.testing.assert_allclose(min_norm_point(np.array([[3.0, -4.0]])), [3.0, -4.0])


def test_origin_inside_hull():
    pts = np.array([[1.0, 0.0], [-1.0, 0.5], [0.0, -1.0]])
    x, gap = min_norm_point_with_gap(pts)
    assert np.linalg.norm(x) <= 1e-8
    assert gap <= 1e-10 * (1.0 + float(np.max(np.sum(pts**2, axis=1))))


def test_duplicated_points():
    pts = np.array([[1.0, 1.0], [1.0, 1.0], [3.0, 3.0]])
    np.testing.assert_allclose(min_norm_point(pts), [1.0, 1.0], atol=1e-10)


@pytest.mark.parametrize("seed", range(8))
def test_against_qp_oracle(seed):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(rng.integers(2, 7), rng.integers(2, 4))) * 2.0
    ours = min_norm_point(pts)
    ref = qp_oracle(pts)
    # both optimize the same strictly convex objective over the hull
    assert np.linalg.norm(ours) <= np.linalg.norm(ref) + 1e-7
    np.testing.assert_allclose(ours, ref, atol=5e-5)


def test_hull_projection_translates():
    pts = np.array([[1.0, 0.0], [0.0, 1.0]])
    p = hull_projection(pts, np.array([1.0, 1.0]))
    np.testing.assert_allclose(p, [0.5, 0.5], atol=1e-10)


@given(st.integers(0, 10_000))
def test_result_lies_in_hull_and_is_optimal(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 8))
    d = int(rng.integers(1, 5))
    pts = rng.normal(size=(m, d)) * 3.0
    x, gap = min_norm_point_with_gap(pts)
    scale = 1.0 + float(np.max(np.sum(pts**2, axis=1)))
    # optimality: <x, p> >= |x|^2 - gap for every vertex p
    assert np.all(pts @ x >= float(x @ x) - gap - 1e-9 * scale)
    assert gap <= 1e-8 * scale


def _shifted_gap(A, z, p):
    """Wolfe's gap |q|^2 - min_j <a_j - z, q> at q = p - z, recomputed here."""
    q = p - z
    return float(q @ q - ((A - z) @ q).min())


@pytest.mark.parametrize("d, m", [(3, 4), (3, 40), (4, 12), (10, 30), (10, 120)])
def test_batched_projection_matches_nnls(d, m):
    rng = np.random.default_rng(10 * d + m)
    A = rng.normal(size=(m, d))
    # rows inside the hull, near it and far from it
    Z = rng.normal(size=(24, d)) * np.repeat([0.2, 1.0, 3.0, 30.0], 6)[:, None]
    P, gaps = hull_projection_with_gap(A, Z)
    assert P.shape == Z.shape and gaps.shape == (24,)
    for z, p, gap in zip(Z, P, gaps):
        R2 = 1.0 + float(np.max(np.sum((A - z) ** 2, axis=1)))
        assert 0.0 <= gap <= 1e-14 * R2
        assert _shifted_gap(A, z, p) <= 1e-13 * R2
        np.testing.assert_allclose(p, nnls_projection(A, z), rtol=0.0,
                                   atol=1e-7 * math.sqrt(R2))
        single, _ = hull_projection_with_gap(A, z)
        np.testing.assert_allclose(p, single, rtol=0.0, atol=1e-12 * math.sqrt(R2))


@pytest.mark.parametrize("seed", range(4))
def test_batched_min_norm_matches_qp_oracle(seed):
    rng = np.random.default_rng(100 + seed)
    d = (3, 4, 10, 10)[seed]
    pts = rng.normal(size=(int(rng.integers(d, 3 * d)), d)) + 0.5
    x = min_norm_point(pts)
    ref = qp_oracle(pts)
    assert np.linalg.norm(x) <= np.linalg.norm(ref) + 1e-7
    np.testing.assert_allclose(x, ref, atol=5e-5)


def _degenerate_cases():
    rng = np.random.default_rng(3)
    B = rng.normal(size=(5, 3))
    square = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, 1.0], [-1.0, 1.0, 1.0],
                       [-1.0, -1.0, 1.0], [0.0, 0.0, 1.0], [0.5, 0.0, 1.0]])
    line = (np.outer(np.linspace(-1.0, 2.0, 5), [1.0, 2.0, 0.0, -1.0])
            + [0.0, 0.0, 3.0, 0.0])
    cases = {
        "duplicated": (np.vstack([B, B, B[:2]]), 2.0 * rng.normal(size=(20, 3))),
        "coplanar": (square, np.vstack([[0.3, 0.2, 5.0], [3.0, 0.1, -2.0],
                                        [0.2, -0.4, 1.0], rng.normal(size=(10, 3))])),
        "collinear": (line, np.vstack([rng.normal(size=(10, 4)), line[2]])),
        "single": (B[:1], rng.normal(size=(5, 3))),
        "all-equal": (np.tile(B[0], (4, 1)),
                      np.vstack([B[0], rng.normal(size=(5, 3))])),
        "inside": (B, np.vstack([B.mean(axis=0), 0.3 * B[0] + 0.7 * B[1]])),
        "vertex": (B, B),
    }
    return [pytest.param(A, Z, id=name) for name, (A, Z) in cases.items()]


@pytest.mark.parametrize("A, Z", _degenerate_cases())
def test_degenerate_hulls_project_without_error(A, Z):
    P, gaps = hull_projection_with_gap(A, Z)
    for z, p, gap in zip(Z, P, gaps):
        R2 = 1.0 + float(np.max(np.sum((A - z) ** 2, axis=1)))
        assert gap <= 1e-14 * R2
        np.testing.assert_allclose(p, nnls_projection(A, z), rtol=0.0,
                                   atol=1e-7 * math.sqrt(R2))


def test_rank_deficient_corral_falls_back_to_least_squares():
    # a corral holding one point twice makes the KKT matrix singular
    Pc = np.array([[[1.0, 2.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 0.0]],
                   [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]]])
    used = np.array([[True, True, False], [True, True, False]])
    alpha = _affine_weights(Pc, used)
    assert np.all(np.isfinite(alpha))
    np.testing.assert_allclose(alpha.sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(alpha[:, 2], 0.0)
    np.testing.assert_allclose(alpha[1], [0.5, 0.5, 0.0], atol=1e-12)
    np.testing.assert_allclose(alpha[0] @ Pc[0], [1.0, 2.0, 0.0], atol=1e-12)


def test_iteration_cap_returns_the_honest_gap():
    rng = np.random.default_rng(8)
    pts = rng.normal(size=(40, 6)) + 0.3
    x, gap = min_norm_point_with_gap(pts, max_iter=1)
    assert gap == pytest.approx(_shifted_gap(pts, np.zeros(6), x), rel=1e-9)
    assert gap > 1e-6
    _, full_gap = min_norm_point_with_gap(pts)
    assert full_gap <= 1e-14 * (1.0 + float(np.max(np.sum(pts**2, axis=1))))
    mask = rng.random((5, 40)) < 0.6
    X, gaps = min_norm_point_with_gap(pts, mask=mask, max_iter=2)
    for x, g, row in zip(X, gaps, mask):
        assert g == pytest.approx(_shifted_gap(pts[row], np.zeros(6), x), rel=1e-9)


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_masked_rows_match_subset_calls(d):
    rng = np.random.default_rng(d)
    pts = rng.normal(size=(9, d)) + 0.4
    mask = rng.random((30, 9)) < 0.5
    mask[np.arange(30), rng.integers(0, 9, 30)] = True
    X, gaps = min_norm_point_with_gap(pts, mask=mask)
    for x, g, row in zip(X, gaps, mask):
        ref, ref_gap = min_norm_point_with_gap(pts[row])
        if d == 1:
            np.testing.assert_array_equal(x, ref)
        np.testing.assert_allclose(x, ref, rtol=0.0, atol=1e-12)
        assert g <= 1e-14 * (1.0 + float(np.max(np.sum(pts[row] ** 2, axis=1))))


def test_mask_is_validated():
    pts = np.eye(3)
    with pytest.raises(ConfigError):
        min_norm_point(pts, mask=np.ones((2, 4), dtype=bool))
    with pytest.raises(ConfigError):
        min_norm_point(pts, mask=np.array([[True, False, False], [False] * 3]))
    with pytest.raises(ConfigError):
        hull_projection_with_gap(pts, np.ones((2, 2)))
    with pytest.raises(ConfigError):
        hull_projection_with_gap(pts, [[np.nan, 0.0, 0.0]])


def _textbook_wolfe(P, major_cycles):
    """Wolfe's algorithm written out one corral at a time: start at the
    shortest point, then per major cycle add the most improving point and
    run minor cycles (step toward the corral's affine minimizer until a
    weight reaches zero, drop it) until the affine minimizer lies inside.
    Returns the iterate and the smallest minor-cycle step theta taken."""
    m, d = P.shape
    corral = [int(np.argmin(np.sum(P * P, axis=1)))]
    w = np.ones(1)
    x = P[corral[0]]
    tol = 1e-14 * (1.0 + float(np.max(np.sum(P * P, axis=1))))
    least_theta = 1.0
    for _ in range(major_cycles):
        j = int(np.argmin(P @ x))
        if x @ x - P[j] @ x <= tol or j in corral or len(corral) == min(m, d + 1):
            break
        corral.append(j)
        w = np.append(w, 0.0)
        while True:
            n = len(corral)
            M = np.ones((n + 1, n + 1))
            M[:n, :n] = P[corral] @ P[corral].T
            M[n, n] = 0.0
            a = np.linalg.solve(M, np.eye(n + 1)[n])[:n]
            blocking = a <= 1e-12
            step = blocking & (w > a)
            theta = min(1.0, float(np.min(w[step] / (w[step] - a[step])))) \
                if step.any() else 1.0
            least_theta = min(least_theta, theta)
            w = np.maximum((1.0 - theta) * w + theta * a, 0.0)
            keep = w > 1e-14
            if blocking.any() and keep.all():
                keep[np.argmin(w)] = False
            corral = [c for c, k in zip(corral, keep) if k]
            w = w[keep] / w[keep].sum()
            x = w @ P[corral]
            if not blocking.any():
                break
    return x, least_theta


def test_minor_cycle_steps_part_way_like_textbook_wolfe():
    # the third major cycle's affine minimizer leaves the hull, so the minor
    # cycle must stop where a weight reaches zero (theta < 1); jumping to the
    # affine minimizer and dropping negative weights gives another iterate
    P = np.array([[0.6, 0.4, 1.1], [0.6, 0.0, 0.9], [1.8, 1.4, -0.2],
                  [-0.8, -0.1, 0.5], [-1.8, 0.3, -0.7]])
    for k in (1, 2, 3):
        ref, least_theta = _textbook_wolfe(P, k)
        x, _ = min_norm_point_with_gap(P, max_iter=k)
        np.testing.assert_allclose(x, ref, rtol=0.0, atol=1e-12)
    assert least_theta < 0.9


def test_blocked_minor_cycle_forces_a_drop():
    # the minor cycle here is blocked while rounding keeps every corral weight
    # above the drop tolerance; without the forced drop of the smallest weight
    # the corral never changes and the loop does not end, so the call runs in
    # a subprocess whose timeout turns a hang into a failure
    code = ("import json\n"
            "from actionlab.minnorm import min_norm_point_with_gap\n"
            "x, gap = min_norm_point_with_gap("
            "[[-1, -1e-13], [1, -1e-13], [0, 1]])\n"
            "print(json.dumps([x.tolist(), gap]))")
    env = {**os.environ,
           "PYTHONPATH": os.path.dirname(os.path.dirname(actionlab.__file__))}
    try:
        run = subprocess.run([sys.executable, "-c", code], env=env, timeout=30,
                             capture_output=True, text=True, check=True)
    except subprocess.TimeoutExpired:
        pytest.fail("min_norm_point_with_gap did not return within 30 s")
    x, gap = json.loads(run.stdout)
    # the origin is in the hull; the returned point is within the gap of it
    assert np.linalg.norm(x) <= 1e-12
    assert 0.0 <= gap <= 1e-12
