import dataclasses
import math
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_bvp
from scipy.linalg import solve_banded

import actionlab
from actionlab import minimize
from actionlab.action import Path, discrete_action, dubois_reymond_residual
from actionlab.convex import (Indicator, LogSumExp, MaxLinear, Quadratic,
                              SquaredDistance, prox)
from actionlab.errors import ConfigError, SolverError
from actionlab.minimize import (MinimizeConfig, _block_tridiagonal_solve,
                                _minimize_paths, _schedule, closed_form_value,
                                minimize_action)
from actionlab.sets import Ball, Box, Halfspace

HALF_SQ = Quadratic(np.array([[1.0]]), np.zeros(1), 0.0)
TRIANGLE = np.array([[1.0, 0.0], [0.0, 1.0], [-0.5, -0.5]])


def test_free_case_exact():
    zero = Quadratic(np.zeros((2, 2)), np.zeros(2), 0.0)
    res = minimize_action(zero, [0.0, 1.0], [2.0, -1.0], 0.7,
                          MinimizeConfig(N=64))
    want = closed_form_value("free", delta=0.7, x0=[0.0, 1.0], xd=[2.0, -1.0])
    assert res.value_true == pytest.approx(want, rel=1e-6)
    assert res.converged


def test_quadratic_1d_matches_closed_form():
    res = minimize_action(HALF_SQ, [1.0], [2.0], 1.0, MinimizeConfig(N=256))
    want = closed_form_value("quadratic_1d", a=1.0, b=2.0, delta=1.0)
    assert want == pytest.approx((5.0 * math.cosh(1.0) - 4.0) / math.sinh(1.0))
    assert res.value_true == pytest.approx(want, rel=1e-2)
    assert res.value_smoothed <= res.value_true + 1e-9


def test_quadratic_general_against_bvp_oracle():
    """Euler-Lagrange BVP for integrand v^2 + c^2 x^2 is x'' = c^2 x."""
    c, a, b, delta = 1.7, 0.3, 1.1, 0.8

    def ode(t, y):
        return np.vstack([y[1], c * c * y[0]])

    def bc(ya, yb):
        return np.array([ya[0] - a, yb[0] - b])

    t = np.linspace(0.0, delta, 200)
    sol = solve_bvp(ode, bc, t, np.vstack([np.linspace(a, b, 200),
                                           np.zeros(200)]), tol=1e-10)
    assert sol.success
    tt = np.linspace(0.0, delta, 4001)
    x, v = sol.sol(tt)
    oracle = np.trapezoid(v * v + c * c * x * x, tt)
    analytic = c * ((a * a + b * b) * math.cosh(c * delta)
                    - 2 * a * b) / math.sinh(c * delta)
    assert oracle == pytest.approx(analytic, rel=1e-6)

    f = Quadratic(np.array([[c]]), np.zeros(1), 0.0)
    res = minimize_action(f, [a], [b], delta, MinimizeConfig(N=128))
    assert res.value_true == pytest.approx(oracle, rel=1e-2)


def test_minimizer_nearly_conserves_energy():
    res = minimize_action(HALF_SQ, [1.0], [2.0], 1.0, MinimizeConfig(N=128))
    assert dubois_reymond_residual(HALF_SQ, res.path) <= 0.2


def test_endpoints_bit_equal():
    x0 = [0.1 + 0.2, -1.0 / 3.0]
    xd = [math.pi, math.e]
    zero = Quadratic(np.zeros((2, 2)), np.zeros(2), 0.0)
    res = minimize_action(zero, x0, xd, 1.0, MinimizeConfig(N=16))
    assert np.array_equal(res.path.nodes[0], np.asarray(x0))
    assert np.array_equal(res.path.nodes[-1], np.asarray(xd))


def test_stage_energies_monotone_decrease():
    res = minimize_action(HALF_SQ, [0.0], [1.5], 1.0, MinimizeConfig(N=64))
    assert len(res.stage_energies) == len(res.tau_schedule)
    for trace in res.stage_energies:
        assert len(trace) >= 1
        assert all(b <= a for a, b in zip(trace, trace[1:]))
    # a stage's accepted steps are its energies after the first, and the
    # smoothed value is the last stage's last energy
    assert res.iterations == sum(len(t) - 1 for t in res.stage_energies) > 0
    assert res.value_smoothed == res.stage_energies[-1][-1]


def test_non_convergence_reported_not_raised():
    cfg = MinimizeConfig(N=64, max_iters=1, grad_tol=1e-14)
    res = minimize_action(HALF_SQ, [1.0], [2.0], 1.0, cfg)
    assert not res.converged
    assert np.isfinite(res.value_true)


def _dense(diag, off):
    """The symmetric block-tridiagonal matrix as one dense array."""
    n, d = diag.shape[:2]
    A = np.zeros((n * d, n * d))
    for j in range(n):
        A[j * d:(j + 1) * d, j * d:(j + 1) * d] = diag[j]
        if j + 1 < n:
            A[j * d:(j + 1) * d, (j + 1) * d:(j + 2) * d] = off[j]
            A[(j + 1) * d:(j + 2) * d, j * d:(j + 1) * d] = off[j].T
    return A


@pytest.mark.parametrize("curved", [True, False], ids=["K", "K0"])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 31, 32, 33, 255, 511])
def test_block_tridiagonal_solve_matches_banded(n, d, curved):
    """Block cyclic reduction against a banded LU solve of the same
    Gauss-Newton Hessian, below and above the dense base case; K = 0 is the
    kinetic part alone."""
    rng = np.random.default_rng(100 * n + d)
    dt = 0.7 / (n + 1)
    K = rng.normal(size=(n + 1, d, d)) * 3.0 if curved else np.zeros((n + 1, d, d))
    S = 2.0 * np.einsum("kij,kil->kjl", K, K)
    eye = np.eye(d)
    diag = (4.0 / dt) * eye + 0.25 * dt * (S[:-1] + S[1:])
    off = -(2.0 / dt) * eye + 0.25 * dt * S[1:-1]
    b = rng.normal(size=(n, d))
    A = _dense(diag, off)
    # the same matrix in LAPACK banded storage: bandwidth 2d - 1 each side
    u = 2 * d - 1
    ab = np.zeros((2 * u + 1, n * d))
    for k in range(-u, u + 1):
        diagonal = np.diagonal(A, k)
        if k >= 0:
            ab[u - k, k:] = diagonal
        else:
            ab[u - k, :k] = diagonal
    want = solve_banded((u, u), ab, b.reshape(-1)).reshape(n, d)
    got, ok = _block_tridiagonal_solve(diag[None], off[None], b[None])
    assert ok.tolist() == [True]
    np.testing.assert_allclose(got[0], want, rtol=0, atol=1e-11 * np.abs(want).max())


@pytest.mark.parametrize("shift", [0.5, 1.5], ids=["definite", "indefinite"])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [7, 33, 200])
def test_block_tridiagonal_solve_tests_definiteness(n, d, shift):
    """With definite=True the solve flags the path unsolved exactly when the
    matrix is not positive definite, below and above the dense base case, and a
    definite system solves as np.linalg.solve.  The matrix is a Gauss-Newton
    structure shifted by shift times its least eigenvalue; at n = 200 that
    shift keeps every diagonal block positive definite, so only the Schur
    complements of the reduction see the sign."""
    rng = np.random.default_rng([n, d])
    K = rng.normal(size=(n + 1, d, d))
    S = K @ K.transpose(0, 2, 1)
    eye = np.eye(d)
    diag = 2.0 * eye + S[:-1] + S[1:]
    off = -eye + S[1:-1]
    A = _dense(diag, off)
    low = np.linalg.eigvalsh(A)[0]
    diag = diag - shift * low * eye
    A -= shift * low * np.eye(n * d)
    if n == 200:
        assert np.all(np.linalg.eigvalsh(diag)[:, 0] > 0.0)
    b = rng.normal(size=(n, d))
    got, ok = _block_tridiagonal_solve(diag[None], off[None], b[None], definite=True)
    if shift < 1.0:
        want = np.linalg.solve(A, b.reshape(-1)).reshape(n, d)
        assert ok.tolist() == [True]
        np.testing.assert_allclose(got[0], want, rtol=0, atol=1e-9 * np.abs(want).max())
    else:
        assert ok.tolist() == [False]


def _gauss_newton_blocks(rng, n, d, k):
    """k Gauss-Newton block-tridiagonal systems (diag, off, rhs) with a
    leading path axis."""
    dt = 0.7 / (n + 1)
    K = rng.normal(size=(k, n + 1, d, d)) * 3.0
    S = 2.0 * np.einsum("pkij,pkil->pkjl", K, K)
    eye = np.eye(d)
    diag = (4.0 / dt) * eye + 0.25 * dt * (S[:, :-1] + S[:, 1:])
    off = -(2.0 / dt) * eye + 0.25 * dt * S[:, 1:-1]
    return diag, off, rng.normal(size=(k, n, d))


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 5, 32, 33, 255])
def test_block_tridiagonal_solve_of_paths_is_each_paths_own_solve(n, d):
    """A batch of k systems gives every path the bits of its one-path
    solve, in the dense base case (n d <= 32) and through reduction levels,
    with and without the definiteness test."""
    rng = np.random.default_rng([n, d, 7])
    diag, off, rhs = _gauss_newton_blocks(rng, n, d, 4)
    for definite in (False, True):
        got, ok = _block_tridiagonal_solve(diag, off, rhs, definite)
        assert ok.tolist() == [True] * 4
        for p in range(4):
            one, one_ok = _block_tridiagonal_solve(diag[p:p + 1], off[p:p + 1],
                                                   rhs[p:p + 1], definite)
            assert one_ok.tolist() == [True]
            assert np.array_equal(got[p], one[0])


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [7, 33, 200])
def test_block_tridiagonal_solve_flags_only_the_indefinite_path(n, d):
    """With definite=True, a batch mixing positive definite systems with an
    indefinite one (the structure of the definiteness test above, shifted by
    0.5 or 1.5 times its least eigenvalue) flags only the indefinite path,
    raises nothing, warns nothing, and still gives the definite paths their
    one-path bits."""
    rng = np.random.default_rng([n, d, 11])
    K = rng.normal(size=(3, n + 1, d, d))
    S = K @ K.transpose(0, 1, 3, 2)
    eye = np.eye(d)
    diag = 2.0 * eye + S[:, :-1] + S[:, 1:]
    off = -eye + S[:, 1:-1]
    for p, shift in enumerate((0.5, 1.5, 0.5)):
        low = np.linalg.eigvalsh(_dense(diag[p], off[p]))[0]
        diag[p] -= shift * low * eye
    rhs = rng.normal(size=(3, n, d))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, ok = _block_tridiagonal_solve(diag, off, rhs, definite=True)
    assert ok.tolist() == [True, False, True]
    for p in (0, 2):
        one = _block_tridiagonal_solve(diag[p:p + 1], off[p:p + 1], rhs[p:p + 1],
                                       definite=True)[0][0]
        assert np.array_equal(got[p], one)


def _first_indefinite_level(A, d):
    """Block cyclic reduction of the dense symmetric A with d x d blocks,
    written out on dense Schur complements: the level whose odd diagonal
    blocks, or whose dense base case, first fail to be positive definite (0
    for A's own odd blocks), or None when A is positive definite."""
    level = 0
    while len(A) > minimize._DENSE_SIZE:
        blocks = np.arange(len(A)).reshape(-1, d)
        odd, even = blocks[1::2].ravel(), blocks[0::2].ravel()
        D = A[np.ix_(odd, odd)]
        if any(np.linalg.eigvalsh(D[i:i + d, i:i + d])[0] <= 0.0 for i in range(0, len(D), d)):
            return level
        A = A[np.ix_(even, even)] - A[np.ix_(even, odd)] @ np.linalg.solve(D, A[np.ix_(odd, even)])
        level += 1
    try:
        np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        return level
    return None


@pytest.mark.parametrize("d", [1, 2, 3])
def test_block_tridiagonal_solve_finds_indefiniteness_in_a_schur_complement(d):
    """A lockstep batch whose odd diagonal blocks are positive definite, with
    paths whose indefiniteness first shows in a reduced level's Schur
    complement or in the dense base case, and two uncoupled paths (off = 0)
    with one odd block that only its own test can see: indefinite with a
    positive leading entry, or negative definite.  The mask equals a
    per-path dense Cholesky test, nothing warns, and every definite path
    keeps the bits of its one-path solve."""
    n = 100
    rng = np.random.default_rng([n, d, 29])
    K = rng.normal(size=(7, n + 1, d, d))
    S = K @ K.transpose(0, 1, 3, 2)
    eye = np.eye(d)
    diag = 2.0 * eye + S[:, :-1] + S[:, 1:]
    off = -eye + S[:, 1:-1]
    for p, shift in enumerate((0.5, 1.01, 1.5, 2.0, 0.0, 0.0, 0.5)):
        diag[p] -= shift * np.linalg.eigvalsh(_dense(diag[p], off[p]))[0] * eye
    assert np.linalg.eigvalsh(diag[:, 1::2])[..., 0].min() > 0.0
    off[4:6] = 0.0
    diag[4, 1] = 2.0 - eye if d > 1 else -eye     # d > 1: 1 on, 2 off the diagonal
    diag[5, 3] = -eye
    rhs = rng.normal(size=(7, n, d))
    dense = [_dense(diag[p], off[p]) for p in range(7)]
    levels = [_first_indefinite_level(A, d) for A in dense]
    assert levels[0] is levels[6] is None and levels[4] == levels[5] == 0
    assert min(levels[1:4]) >= 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, ok = _block_tridiagonal_solve(diag, off, rhs, definite=True)
    cholesky = []
    for A in dense:
        try:
            np.linalg.cholesky(A)
            cholesky.append(True)
        except np.linalg.LinAlgError:
            cholesky.append(False)
    assert ok.tolist() == cholesky == [True, False, False, False, False, False, True]
    for p in (0, 6):
        one = _block_tridiagonal_solve(diag[p:p + 1], off[p:p + 1], rhs[p:p + 1],
                                       definite=True)[0][0]
        assert np.array_equal(got[p], one)


def _solve_in_lockstep(f, X0, XD, delta, cfg):
    """The lockstep results of the paths X0 -> XD on f (or on f[p] for a list
    f), after checking that each equals its own minimize_action run bit for
    bit."""
    fs = f if isinstance(f, list) else [f] * len(X0)
    results = _minimize_paths(fs, np.array(X0, dtype=float), np.array(XD, dtype=float),
                              delta, cfg)
    assert len(results) == len(X0)
    for g, res, x0, xd in zip(fs, results, X0, XD):
        solo = minimize_action(g, x0, xd, delta, cfg)
        assert np.array_equal(res.path.nodes, solo.path.nodes)
        assert np.array_equal(res.path.times, solo.path.times)
        assert type(res.value_smoothed) is float
        assert res.value_smoothed == solo.value_smoothed
        assert res.value_true == solo.value_true
        assert res.iterations == solo.iterations
        assert res.converged == solo.converged
        assert res.tau_schedule == solo.tau_schedule
        assert res.stage_energies == solo.stage_energies
    return results


def _stage_steps(results):
    return [tuple(len(t) - 1 for t in res.stage_energies) for res in results]


class _NewtonLog:
    """While installed, one list per stage run, with one [trials, fallback]
    entry per stop test the stage makes: the line-search trials that
    followed it, and whether the exact Newton Hessian of some path was
    indefinite, so that its step fell back to Gauss-Newton.  A stop test
    reads the kinetic bound or forms a Newton system; `systems` counts the
    systems.  With every_stage_last set, each stage runs as the schedule's
    last."""

    def __init__(self, monkeypatch):
        self.stages, self.every_stage_last, self.formed = [], False, 0
        stage, derivatives = minimize._stage, minimize._Objective.derivatives
        system, evaluate = minimize._Objective.newton_system, minimize._Objective.evaluate
        solve = minimize._block_tridiagonal_solve

        def logged_stage(obj, Z, cfg, last):
            self.stages.append([])
            return stage(obj, Z, cfg, last or self.every_stage_last)

        def logged_derivatives(obj, *args):
            self.stages[-1].append([0, False])
            return derivatives(obj, *args)

        def logged_system(obj, *args):
            self.formed += 1
            return system(obj, *args)

        def logged_evaluate(obj, Z, start=None):
            if start is not None:       # a line-search trial
                self.stages[-1][-1][0] += 1
            return evaluate(obj, Z, start)

        def logged_solve(diag, off, rhs, definite=False):
            x, ok = solve(diag, off, rhs, definite)
            self.stages[-1][-1][1] |= not ok.all()
            return x, ok

        monkeypatch.setattr(minimize, "_stage", logged_stage)
        monkeypatch.setattr(minimize._Objective, "derivatives", logged_derivatives)
        monkeypatch.setattr(minimize._Objective, "newton_system", logged_system)
        monkeypatch.setattr(minimize._Objective, "evaluate", logged_evaluate)
        monkeypatch.setattr(minimize, "_block_tridiagonal_solve", logged_solve)

    def systems(self):
        return self.formed

    def predicted(self, res):
        """Per stage of res, the last solve run, whether it ended on a
        predicted stop: it made no stop test after its last step."""
        stages = self.stages[-len(res.stage_energies):]
        return [len(s) == len(t) - 1 for s, t in zip(stages, res.stage_energies)]


# a smoothed-max solve whose exact Newton Hessian is indefinite at some
# iterates (test_indefinite_newton_hessian_falls_back_to_gauss_newton)
_PINNED_INDEFINITE = (
    LogSumExp([[-0.49444450585153754, 1.4798528194875031],
               [1.3806964913899755, -0.6978025109498175],
               [1.1326671991485069, -1.5920459987975748]], 0.25),
    [0.3286597671033301, -0.5602006706537357], [-2.653717049784881, -1.91228770000378],
    1.0, MinimizeConfig(N=24, max_iters=60, grad_tol=1e-6))

_LOCKSTEP_CASES = {
    "quadratic": (
        Quadratic([[2.0, 0.5], [0.5, 1.0]], [0.0, 0.0]),
        [[1.0, 0.0], [0.0, 0.0], [-1.5, 0.5]], [[0.0, 2.0], [0.0, 0.0], [1.0, 1.0]],
        1.0, MinimizeConfig(N=24)),
    # lambda = -0.9 caps no tau of this quadratic: it runs only its last one,
    # tau = 0, on f itself
    "quadratic_negative": (
        Quadratic([[-0.9, 0.0], [0.0, 0.5]], [0.0, 0.0]),
        [[0.0, 1.0], [0.0, 0.0], [0.5, -0.5]], [[1.0, 0.0], [0.0, 0.0], [-0.5, 1.5]],
        2.0, MinimizeConfig(N=24)),
    "log_sum_exp": (
        LogSumExp(TRIANGLE, 0.1),
        [[-1.0, 0.0], [0.3, -0.2], [-0.6, 0.0]], [[1.0, 0.5], [1.2, 0.9], [0.5, 0.5]],
        1.0, MinimizeConfig(N=32)),
    # the first path ends its first stage on a measured stop, the second on
    # a predicted one (test_predicted_stop_follows_only_full_exact_steps)
    "log_sum_exp_predicted": (
        _PINNED_INDEFINITE[0], [_PINNED_INDEFINITE[1], [1.0, -1.0]],
        [_PINNED_INDEFINITE[2], [-1.0, 1.0]], *_PINNED_INDEFINITE[3:]),
    # the first two paths end at the line search's no-descent exit
    "max_linear_1d": (
        MaxLinear([[3.197], [1.509], [3.038]]),
        [[0.398], [-1.0], [1.617]], [[0.034], [1.0], [1.866]],
        3.0, MinimizeConfig(N=32)),
    "max_linear_2d": (
        MaxLinear(TRIANGLE),
        [[-1.0, 0.0], [0.3, -0.2], [-0.6, 0.0]], [[1.0, 0.5], [1.2, 0.9], [0.5, 0.5]],
        1.0, MinimizeConfig(N=32)),
    # the second path matches its one-path solve only when every row pads its
    # face matrix to all five vectors, whatever faces the other rows touch
    "max_linear_3d": (
        MaxLinear([[-0.853, 0.413, 1.11], [0.864, 1.662, 1.442], [1.673, -1.894, -0.251],
                   [-0.06, -1.739, -1.977], [1.322, 1.933, 1.138]]),
        [[-0.738, 0.821, -0.803], [0.963, -0.881, 1.13], [1.951, 1.945, 1.531]],
        [[1.651, 0.833, 0.218], [1.693, -1.641, -0.519], [0.424, -0.089, 1.171]],
        1.0, MinimizeConfig(N=32)),
    "indicator_ball": (
        Indicator(Ball(np.zeros(2), 1.0)),
        [[1.0, 0.0], [-0.6, -0.8]], [[-1.0, 0.0], [0.0, 1.0]],
        1.0, MinimizeConfig(N=32)),
    "indicator_box": (
        Indicator(Box([-1.0, -0.5], [1.0, 0.5])),
        [[-1.0, -0.5], [0.5, 0.5]], [[1.0, 0.5], [-0.5, -0.5]],
        1.0, MinimizeConfig(N=32)),
    "squared_distance_ball": (
        SquaredDistance(Ball(np.zeros(2), 1.0), 2.0),
        [[-2.0, 0.0], [0.0, 0.0], [1.5, 1.5]], [[2.0, 0.5], [0.5, 0.0], [-1.5, 1.0]],
        1.0, MinimizeConfig(N=24)),
}


@pytest.mark.parametrize("kind", list(_LOCKSTEP_CASES))
def test_lockstep_paths_equal_one_path_solves(kind, monkeypatch):
    """Every path of a lockstep run is bit-equal to its own minimize_action
    run: nodes, both values, iterations, converged and stage energies.  Apart
    from the indicators, whose straight chords are already minimal, the
    paths of a run take different step counts, so they leave the lockstep at
    different times."""
    f, X0, XD, delta, cfg = _LOCKSTEP_CASES[kind]
    results = _solve_in_lockstep(f, X0, XD, delta, cfg)
    if not isinstance(f, Indicator):
        assert len(set(_stage_steps(results))) > 1
    if kind == "quadratic_negative":
        assert results[0].tau_schedule == (0.0,)
    if kind == "log_sum_exp_predicted":
        log = _NewtonLog(monkeypatch)
        ends = [log.predicted(minimize_action(f, x0, xd, delta, cfg))[0]
                for x0, xd in zip(X0, XD)]
        assert ends == [False, True]


def test_lockstep_path_that_exhausts_max_iters():
    # one Newton step reaches the quadratic's minimizer in its one stage, but
    # the stop is only tested before a step, so max_iters = 1 ends that stage
    # of the moving path unconverged while the resting one converges
    results = _solve_in_lockstep(
        Quadratic([[2.0, 0.5], [0.5, 1.0]], [0.0, 0.0]),
        [[1.0, 0.0], [0.0, 0.0]], [[0.0, 2.0], [0.0, 0.0]], 1.0,
        MinimizeConfig(N=24, max_iters=1))
    assert [r.converged for r in results] == [False, True]
    assert _stage_steps(results) == [(1,), (0,)]


def test_lockstep_path_that_finds_no_descent():
    # the first path stops unconverged with fewer than max_iters steps in
    # every stage: its line search found no descent
    f, X0, XD, delta, cfg = _LOCKSTEP_CASES["max_linear_1d"]
    results = _solve_in_lockstep(f, X0, XD, delta, cfg)
    assert [r.converged for r in results] == [False, False, True]
    assert max(_stage_steps(results)[0]) < cfg.max_iters


_Q1, _Q4 = Quadratic([[1.0]], [0.0]), Quadratic([[4.0]], [0.0])
_MIXED_CASES = {
    "quadratics": ([_Q1, _Q4], [[1.0], [1.0]], [[2.0], [2.0]], 1.0),
    "quadratics_interleaved": ([_Q1, _Q4, _Q1], [[1.0], [1.0], [0.5]],
                               [[2.0], [2.0], [-1.0]], 1.0),
    "max_linear": ([MaxLinear([[1.0], [-1.0]]), MaxLinear([[2.0], [-2.0]])],
                   [[-1.0], [-1.0]], [[1.0], [1.0]], 3.0),
    "log_sum_exp_and_quadratic": ([LogSumExp(TRIANGLE, 0.1), Quadratic(np.eye(2), np.zeros(2))],
                                  [[-1.0, 0.0], [-1.0, 0.0]], [[1.0, 0.5], [1.0, 0.5]], 1.0),
}


@pytest.mark.parametrize("kind", list(_MIXED_CASES))
def test_paths_on_unrelated_functions_are_their_own_solves(kind):
    """_minimize_paths groups its paths by unit member itself, so a path whose
    function shares none with the others' gets the bits of its own solve, in
    input order (a single run on the first function gave the second quadratic
    33.276 for 19.433, the second max_linear 10.189 for 8.017)."""
    fs, X0, XD, delta = _MIXED_CASES[kind]
    _solve_in_lockstep(fs, X0, XD, delta, MinimizeConfig(N=32))


def test_one_unit_member_per_function_object(monkeypatch, lockstep_runs):
    """Smoothed maxima over the same vectors share a unit member, so they run
    as one lockstep run, and each function object builds its unit member once."""
    calls, unit_scale = [], minimize._unit_scale
    monkeypatch.setattr(minimize, "_unit_scale", lambda g: calls.append(g) or unit_scale(g))
    f, g = LogSumExp(TRIANGLE, 0.1), LogSumExp(TRIANGLE, 0.2)
    X0 = np.array([[-1.0, 0.0], [0.0, -1.0], [-1.0, 0.5], [0.5, 0.5], [1.0, 1.0]])
    results = _minimize_paths([f, g, f, f, g], X0, -X0, 1.0, MinimizeConfig(N=16))
    assert len(calls) == 2 and calls[0] is f and calls[1] is g
    assert lockstep_runs == [5]
    for h, res, x0 in zip([f, g, f, f, g], results, X0):
        solo = minimize_action(h, x0, -x0, 1.0, MinimizeConfig(N=16))
        assert res.value_true == pytest.approx(solo.value_true, rel=1e-9, abs=0.0)


def test_indefinite_newton_hessian_falls_back_to_gauss_newton(monkeypatch):
    # the exact Newton Hessian of this smoothed-max solve is indefinite at
    # some iterates (the first of its tau = 0.1 stage); steps solved from it
    # anyway stop at value_true 14.482 and report converged there
    log = _NewtonLog(monkeypatch)
    res = minimize_action(*_PINNED_INDEFINITE)
    assert res.converged
    assert any(fallback for stage in log.stages for _, fallback in stage)
    assert res.value_true == pytest.approx(14.262323084983452, rel=1e-6)


def test_early_stages_end_on_the_predicted_stop(monkeypatch):
    """On the N = 512 smoothed triangle solve every stage before the last
    ends on Newton's predicted stop, so the solve forms 9 Newton systems
    where confirming each stop takes 12, and ends bit-equal."""
    log = _NewtonLog(monkeypatch)
    f, cfg = LogSumExp(TRIANGLE, 0.1), MinimizeConfig(N=512)
    res = minimize_action(f, [-1.0, 0.0], [1.0, 0.5], 1.0, cfg)
    assert log.systems() == 9
    assert log.predicted(res) == [True, True, True, False]
    log.stages, log.every_stage_last, log.formed = [], True, 0
    confirmed = minimize_action(f, [-1.0, 0.0], [1.0, 0.5], 1.0, cfg)
    assert log.systems() == 12
    assert log.predicted(confirmed) == [False] * 4
    assert np.array_equal(res.path.nodes, confirmed.path.nodes)
    assert res.value_true == confirmed.value_true
    assert res.stage_energies == confirmed.stage_energies
    assert res.converged and confirmed.converged


@pytest.mark.parametrize("d", [1, 2, 3])
def test_kinetic_bound_dominates_the_gauss_newton_decrement(d):
    """g^T H_kin^-1 g from prefix sums is at least the decrement g^T H^-1 g of
    a dense Gauss-Newton Hessian H = H_kin + PSD chord blocks, and equals it
    when every chord block is zero; N = 1 has no unknowns and reads 0."""
    rng = np.random.default_rng(d)
    for N in (1, 2, 3, 8, 17, 64):
        dt = rng.uniform(0.01, 1.0) / N
        obj = minimize._Objective(HALF_SQ, 0.1, np.zeros((1, d)), np.ones((1, d)), dt)
        B = rng.normal(size=(1, N, d, d)) * rng.uniform(0.0, 10.0, size=(1, N, 1, 1))
        S = B @ B.swapaxes(-1, -2) * (rng.random(size=(1, N, 1, 1)) < 0.7)
        g = rng.normal(size=(1, N - 1, d))
        for slopes in (S, np.zeros_like(S)):
            diag, off = obj.hessian(slopes)
            H = np.zeros((N - 1, d, N - 1, d))
            for j in range(N - 1):
                H[j, :, j] = diag[0, j]
                if j + 1 < N - 1:
                    H[j, :, j + 1] = off[0, j]
                    H[j + 1, :, j] = off[0, j].T
            n = (N - 1) * d
            exact = float(g.ravel() @ np.linalg.solve(H.reshape(n, n), g.ravel())) if n else 0.0
            bound = obj.kinetic_decrement(g)
            assert bound.shape == (1,)
            if slopes is S:
                assert bound[0] >= exact * (1.0 - 1e-12)
            else:
                assert bound[0] == pytest.approx(exact, rel=1e-12, abs=0.0)


def test_certified_stop_forms_no_newton_system(monkeypatch):
    """Where the kind has no curvature term, a stop that the kinetic bound
    certifies ends the stage without a Newton system: a quadratic solve forms
    one system and makes one block solve (two before), and the stages of
    the N = 32 max_linear triangle solve form 5 systems (9 before)."""
    log = _NewtonLog(monkeypatch)
    solves, logged_solve = [], minimize._block_tridiagonal_solve
    monkeypatch.setattr(minimize, "_block_tridiagonal_solve",
                        lambda *args, **kw: solves.append(1) or logged_solve(*args, **kw))
    res = minimize_action(HALF_SQ, [1.0], [2.0], 1.0, MinimizeConfig(N=64))
    assert res.converged and res.iterations == 1
    assert log.systems() == 1 and len(solves) == 1
    assert log.predicted(res) == [False]
    log.formed = 0
    res = minimize_action(MaxLinear(TRIANGLE), [-1.0, 0.0], [1.0, 0.5], 1.0, MinimizeConfig(N=32))
    assert log.systems() == 5
    assert res.iterations == 5 and len(res.stage_energies) == 4


@pytest.mark.parametrize("f, x0, xd, delta, N", [
    (HALF_SQ, [1.0], [2.0], 1.0, 1),
    (Quadratic(np.zeros((2, 2)), np.zeros(2)), [0.3, -1.2], [1.7, 0.4], 0.7, 64),
], ids=["one_interval", "free_2d_straight"])
def test_certified_stop_at_the_start(f, x0, xd, delta, N, monkeypatch):
    # N = 1 has no interior node, and the straight segment is the free
    # minimizer: both stop at their first stop test, with no solve and no warning
    log = _NewtonLog(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = minimize_action(f, x0, xd, delta, MinimizeConfig(N=N))
    assert res.converged and res.iterations == 0
    assert log.systems() == 0 and log.stages == [[[0, False]]]


@pytest.mark.parametrize("f, x0, xd, delta, cfg", [
    (LogSumExp(TRIANGLE, 0.1), [-1.0, 0.0], [1.0, 0.5], 1.0, MinimizeConfig(N=512)),
    _PINNED_INDEFINITE,
    (Quadratic([[2.0, 0.5], [0.5, 1.0]], [0.3, -0.2]), [1.0, -0.5], [-0.5, 2.0],
     1.0, MinimizeConfig(N=64)),
], ids=["log_sum_exp", "pinned_indefinite", "quadratic"])
def test_predicted_stop_never_ends_the_last_stage(f, x0, xd, delta, cfg, monkeypatch):
    # the last stage, the only one of a quadratic, ends on a Newton system
    # whose decrement met the stop: no line search followed it
    log = _NewtonLog(monkeypatch)
    res = minimize_action(f, x0, xd, delta, cfg)
    assert res.converged
    assert not log.predicted(res)[-1]
    assert log.stages[-1][-1][0] == 0


def test_predicted_stop_follows_only_full_exact_steps(monkeypatch):
    """On the pinned indefinite case, a stage ends on a predicted stop only
    after a full step (one line-search trial) of an exact Newton direction.
    With every path's Newton Hessian reported indefinite, or every first
    trial rejected, no stage ends on one."""
    f, x0, xd, delta, cfg = _PINNED_INDEFINITE
    log = _NewtonLog(monkeypatch)
    res = minimize_action(f, x0, xd, delta, cfg)
    predicted = log.predicted(res)
    assert predicted == [False, True, True, False]
    for stage, ended in zip(log.stages, predicted):
        if ended:
            assert stage[-1] == [1, False]
    early = [entry for stage in log.stages[:-1] for entry in stage]
    assert [1, True] in early and max(trials for trials, _ in early) > 1

    logged_solve, logged_evaluate = minimize._block_tridiagonal_solve, minimize._Objective.evaluate

    def indefinite(diag, off, rhs, definite=False):
        x, ok = logged_solve(diag, off, rhs, definite)
        return x, ok & (not definite)

    monkeypatch.setattr(minimize, "_block_tridiagonal_solve", indefinite)
    fallback = minimize_action(f, x0, xd, delta, cfg)
    assert fallback.converged and not any(log.predicted(fallback))
    monkeypatch.setattr(minimize, "_block_tridiagonal_solve", logged_solve)

    def first_trial_rejected(obj, Z, start=None):
        energy, resolved = logged_evaluate(obj, Z, start)
        if start is not None and log.stages[-1][-1][0] == 1:
            energy = np.full_like(energy, np.inf)
        return energy, resolved

    monkeypatch.setattr(minimize._Objective, "evaluate", first_trial_rejected)
    backtracked = minimize_action(f, x0, xd, delta, cfg)
    assert backtracked.converged and not any(log.predicted(backtracked))


def test_predicted_stop_needs_newton_s_quadratic_rate(monkeypatch):
    # in this solve's second stage Newton converges only linearly (decrements
    # 1.0e-4, 1.2e-5, 2.6e-6) towards an iterate whose Hessian is indefinite;
    # a small decrement alone would end that stage after 3 steps, and the
    # solve at 13.19; going on, it escapes in 55 steps to end at 10.184.
    # Each stage before the last ends on a predicted stop all the same.
    log = _NewtonLog(monkeypatch)
    f = LogSumExp([[-0.8532103694885715], [-2.0881189356839425]], 0.03)
    res = minimize_action(f, [-1.3227835973529674], [-0.7376580223265896], 3.0,
                          MinimizeConfig(N=16, grad_tol=1e-6))
    assert res.converged
    assert len(res.stage_energies[1]) - 1 == 55
    assert log.predicted(res) == [True, True, True, False]
    assert res.value_true == pytest.approx(10.184356297983411, rel=1e-9)


def test_indicator_path_stays_feasible():
    ball = Ball(np.zeros(2), 1.0)
    f = Indicator(ball)
    res = minimize_action(f, [1.0, 0.0], [0.0, 1.0], 1.0, MinimizeConfig(N=64))
    assert ball.contains_many(res.path.nodes).all()
    # the chord is interior, so nothing obstructs the free optimum
    want = closed_form_value("free", delta=1.0, displacement=[-1.0, 1.0])
    assert res.value_true == pytest.approx(want, rel=1e-6)


def test_indicator_endpoint_outside_its_region_is_not_converged():
    # every path from outside the region has infinite action, so there is no
    # minimum to reach however the stages end; a feasible path in the same
    # lockstep run still converges
    f = Indicator(Ball(np.zeros(2), 1.5))
    out, inside = _solve_in_lockstep(f, [[-2.0, 0.0], [-1.0, 0.0]], [[1.0, 0.5]] * 2, 1.0,
                                     MinimizeConfig(N=32))
    assert out.value_true == math.inf and math.isfinite(out.value_smoothed)
    assert not out.converged
    assert inside.converged and inside.value_true == pytest.approx(4.25, rel=1e-6)


# the kinds whose phi_tau is convex, made to run a four-stage continuation
# that ends at their own one tau (0 where f is C^{1,1})
class _ContinuedQuadratic(Quadratic):
    _tau_factors = (0.5, 0.1, 0.02) + Quadratic._tau_factors


class _ContinuedIndicator(Indicator):
    _tau_factors = (0.5, 0.1, 0.02) + Indicator._tau_factors


class _ContinuedSquaredDistance(SquaredDistance):
    _tau_factors = (0.5, 0.1, 0.02) + SquaredDistance._tau_factors


def _continued(f):
    if isinstance(f, Quadratic):
        return _ContinuedQuadratic(f.Q, f.b, f.c)
    if isinstance(f, Indicator):
        return _ContinuedIndicator(f.region)
    return _ContinuedSquaredDistance(f.region, f.weight)


def test_negative_curvature_schedule_is_admissible():
    f = Quadratic(np.array([[-0.9]]), np.zeros(1), 0.0)
    sched = _schedule(2.0, _continued(f))
    assert len(sched) == 4 and all(b < a for a, b in zip(sched, sched[1:]))
    for tau in sched:
        assert 1.0 + tau * f.lam > 0.1
    # the quadratic itself runs the continuation's last tau, 0: f itself,
    # which needs no cap
    assert _schedule(2.0, f) == sched[-1:] == (0.0,)
    res = minimize_action(f, [0.0], [1.0], 2.0, MinimizeConfig(N=48))
    assert np.isfinite(res.value_true)


_CONVEX_KIND_CASES = {
    "quadratic": (Quadratic([[2.0, 0.5], [0.5, 1.0]], [0.3, -0.2]),
                  [1.0, -0.5], [-0.5, 2.0], 1.0, 1e-9),
    # lambda < 0 caps the schedule: 1 + tau lambda stays positive
    "quadratic_negative": (Quadratic([[-0.9, 0.3], [0.3, 0.5]], [0.0, 0.1]),
                           [0.0, 1.0], [1.5, -0.5], 2.0, 1e-9),
    "indicator_ball": (Indicator(Ball([0.0, 0.0], 1.0)),
                       [0.6, -0.8], [-0.8, 0.0], 1.0, 1e-9),
    "indicator_box": (Indicator(Box([-1.0, -0.5], [1.0, 0.5])),
                      [-1.0, 0.5], [0.7, -0.5], 0.3, 1e-9),
    "indicator_halfspace": (Indicator(Halfspace([1.0, 1.0], 0.5)),
                            [0.5, -1.0], [-2.0, 1.0], 3.0, 1e-9),
    "squared_distance_ball": (SquaredDistance(Ball([0.0, 0.0], 1.0), 2.0),
                              [-2.0, 0.5], [2.0, 1.5], 1.0, 1e-6),
    "squared_distance_box": (SquaredDistance(Box([-1.0, -0.5], [1.0, 0.5]), 0.7),
                             [-2.5, 1.5], [2.0, -1.0], 3.0, 1e-6),
}


@pytest.mark.parametrize("kind", list(_CONVEX_KIND_CASES))
def test_convex_kind_runs_one_stage_that_agrees_with_continuation(kind):
    """A kind whose phi_tau is convex has a strictly convex E_tau, so the
    four-stage continuation reaches the minimizer its last stage alone does:
    the one-stage solve runs that last tau and agrees with it to within the
    stop tolerance, in no more iterations."""
    f, x0, xd, delta, rel = _CONVEX_KIND_CASES[kind]
    cfg = MinimizeConfig(N=64)
    one = minimize_action(f, x0, xd, delta, cfg)
    continued = minimize_action(_continued(f), x0, xd, delta, cfg)
    assert len(continued.tau_schedule) == 4
    assert one.tau_schedule == continued.tau_schedule[-1:]
    assert (one.tau_schedule == (0.0,)) == (not isinstance(f, Indicator))
    assert len(one.stage_energies) == 1
    assert one.converged == continued.converged
    assert one.iterations <= continued.iterations
    assert one.value_true == pytest.approx(continued.value_true, rel=rel)


@pytest.mark.parametrize("f, last", [(LogSumExp(TRIANGLE, 0.1), 0.0),
                                     (MaxLinear(TRIANGLE), 0.004)],
                         ids=["log_sum_exp", "max_linear"])
def test_nonconvex_objective_kinds_keep_the_continuation(f, last):
    # the smoothed max is C^{1,1}, so its last stage runs on f itself
    res = minimize_action(f, [-1.0, 0.0], [1.0, 0.5], 1.0, MinimizeConfig(N=32))
    assert len(res.tau_schedule) == 4 == len(res.stage_energies)
    assert res.tau_schedule == pytest.approx((0.5, 0.1, 0.02, last))


@pytest.mark.parametrize("delta", [1e-155, 1e-200, 1e-250, 1e-300])
def test_ball_indicator_solves_at_tiny_delta(delta):
    # 1/tau^2 overflows at these deltas, so the ball's curvature term must
    # not form it: times the zero curvature inside the ball it gives nan (a
    # RuntimeWarning, which is an error in this suite)
    f = Indicator(Ball([0.0, 0.0], 1.5))
    res = minimize_action(f, [-1.0, 0.0], [1.0, 0.3], delta, MinimizeConfig(N=16))
    assert res.converged
    assert res.value_true * delta == pytest.approx(4.09, rel=1e-9)


# ---------------------------------------------------------------------------
# the last stage at tau = 0, on f itself

def _dense_quadratic_minimum(f, x0, xd, delta, N):
    """The exact discrete minimum of kinetic + dt sum |Q m_i + b|^2 over the
    interior nodes, by dense least squares: every residual is affine in them."""
    d, dt = f.dim, delta / N
    n = (N - 1) * d
    A = np.zeros((2 * N, d, N + 1, d))      # residuals r = A x, x all N + 1 nodes
    i, eye = np.arange(N), np.eye(d)
    A[i, :, i + 1], A[i, :, i] = eye / math.sqrt(dt), -eye / math.sqrt(dt)
    A[N + i, :, i] = A[N + i, :, i + 1] = 0.5 * math.sqrt(dt) * f.Q
    A = A.reshape(2 * N * d, (N + 1) * d)
    c = np.concatenate([np.zeros(N * d), np.tile(math.sqrt(dt) * f.b, N)])
    c += A[:, :d] @ np.asarray(x0, float) + A[:, -d:] @ np.asarray(xd, float)
    z = np.linalg.lstsq(A[:, d:-d], -c, rcond=None)[0] if n else np.zeros(0)
    r = A[:, d:-d] @ z + c
    return float(r @ r)


def _random_quadratic_solves(count):
    """(f, x0, xd, delta, N) for count seeded quadratics in 1-3 d with b != 0,
    every other one with lambda < 0, some of them stiff."""
    rng = np.random.default_rng(2034)
    for k in range(count):
        d = int(rng.integers(1, 4))
        w = np.exp(rng.uniform(np.log(0.1), np.log(100.0), size=d))
        if k % 2:
            w[0] = -rng.uniform(0.1, 20.0)
        R = np.linalg.qr(rng.normal(size=(d, d)))[0]
        f = Quadratic((R * w) @ R.T, rng.normal(size=d))
        x0, xd = rng.uniform(-2.0, 2.0, size=(2, d))
        yield (f, x0, xd, float(rng.choice([0.3, 1.0, 3.0])),
               int(rng.choice([8, 16, 32, 64])))


def _lower_bound(f, res):
    """value_smoothed - g^T H_kin^-1 g / 2, from the objective's gradient g at
    the final path: below the discrete minimum where the last stage's phi is
    convex (Boyd and Vandenberghe, sec. 9.1.2)."""
    nodes, N = res.path.nodes, res.path.intervals
    obj = minimize._Objective(f, res.tau_schedule[-1], nodes[:1], nodes[-1:],
                              float(res.path.times[-1]) / N)
    Z = nodes[None, 1:-1]
    grad = obj.derivatives(Z, obj.evaluate(Z)[1])[0]
    return res.value_smoothed - 0.5 * float(obj.kinetic_decrement(grad)[0])


def test_stiff_quadratic_reaches_the_exact_discrete_minimum():
    # at tau = 0.004 delta the q = 100 quadratic ended at 528.571; one
    # Newton step on f itself reaches the dense least-squares minimum
    f = Quadratic([[100.0]], [0.0])
    res = minimize_action(f, [1.0], [2.0], 1.0, MinimizeConfig(N=256))
    exact = _dense_quadratic_minimum(f, [1.0], [2.0], 1.0, 256)
    assert exact == pytest.approx(500.0, rel=1e-9)
    assert res.tau_schedule == (0.0,) and res.iterations == 1 and res.converged
    assert abs(res.value_true - exact) <= 1e-9 * exact


def test_random_quadratics_reach_the_exact_discrete_minimum():
    """On 120 seeded quadratics, positive semidefinite and lambda < 0 alike,
    the solve is within 1e-9 of the dense discrete minimum, and
    L = value_smoothed - g^T H_kin^-1 g / 2 brackets it from below: L <= the
    minimum <= value_true, up to rounding (1e-12), within 1e-6 of each other."""
    for f, x0, xd, delta, N in _random_quadratic_solves(120):
        res = minimize_action(f, x0, xd, delta, MinimizeConfig(N=N))
        exact = _dense_quadratic_minimum(f, x0, xd, delta, N)
        assert res.converged and res.tau_schedule == (0.0,)
        assert abs(res.value_true - exact) <= 1e-9 * exact, (f, x0, xd, delta, N)
        low, slack = _lower_bound(f, res), 1e-12 * exact
        assert low <= exact + slack and exact <= res.value_true + slack
        assert res.value_true - low <= 1e-6 * exact


@pytest.mark.parametrize("weight", [1.0, 4.0, 16.0, 64.0])
def test_ball_squared_distance_lower_bound(weight):
    # phi_0 = 4 w^2 dist^2 is convex too, so L bounds the true action below
    f = SquaredDistance(Ball([0.0, 0.0], 1.5), weight)
    rng = np.random.default_rng(int(weight))
    for x0, xd in rng.uniform(-3.0, 3.0, size=(4, 2, 2)):
        res = minimize_action(f, x0, xd, 1.0, MinimizeConfig(N=64))
        assert res.converged
        assert _lower_bound(f, res) <= res.value_true * (1.0 + 1e-12)


def test_stiff_ball_squared_distance_reaches_the_long_schedule_value():
    # weight 64 (curvature 128): tau = 0.004 ended at 82.045; a schedule with
    # five more factors of 5 reached 76.454431
    f = SquaredDistance(Ball([0.0, 0.0], 1.5), 64.0)
    res = minimize_action(f, [-2.0, 0.3], [2.0, 0.0], 1.0, MinimizeConfig(N=128))
    assert res.converged and res.tau_schedule == (0.0,)
    assert res.value_true <= 76.4545


@pytest.mark.parametrize("f, x0, xd", [
    (Quadratic([[2.0, 0.5], [0.5, -0.4]], [0.3, -0.2]), [1.0, -0.5], [-0.5, 2.0]),
    (SquaredDistance(Ball([0.0, 0.0], 1.0), 8.0), [-2.0, 0.5], [2.0, 1.5]),
    (SquaredDistance(Box([-1.0, -0.5], [1.0, 0.5]), 3.0), [-2.5, 1.5], [2.0, -1.0]),
    (LogSumExp(TRIANGLE, 0.02), [-1.0, 0.0], [1.0, 0.5]),
], ids=["quadratic", "squared_distance_ball", "squared_distance_box", "log_sum_exp"])
def test_value_smoothed_is_value_true_at_tau_zero(f, x0, xd):
    res = minimize_action(f, x0, xd, 1.0, MinimizeConfig(N=64))
    assert res.tau_schedule[-1] == 0.0 and res.converged
    assert res.value_smoothed == pytest.approx(res.value_true, rel=1e-14, abs=0.0)


_TAU_ZERO_KINDS = {
    "quadratic": Quadratic([[2.0, 0.5], [0.5, -0.4]], [0.3, -0.2]),
    "quadratic_3d": Quadratic([[3.0, 0.5, 0.0], [0.5, 1.0, -0.2], [0.0, -0.2, 0.5]],
                              [0.3, -0.2, 0.1]),
    "squared_distance_ball": SquaredDistance(Ball([0.1, 0.2], 1.0), 1.5),
    "squared_distance_box": SquaredDistance(Box([-1.0, -0.5], [1.0, 0.5]), 0.7),
    "log_sum_exp_0.3": LogSumExp(TRIANGLE, 0.3),
    "log_sum_exp_0.02": LogSumExp(TRIANGLE, 0.02),
    "log_sum_exp_1d_0.02": LogSumExp([[1.0], [-0.5], [2.0]], 0.02),
}


@pytest.mark.parametrize("kind", list(_TAU_ZERO_KINDS))
def test_tau_zero_objective_gradient_matches_central_differences(kind):
    """At tau = 0 the objective's directional derivative, from G =
    subgradient_many and K of `_derivatives`, matches central differences
    of its values within 1e-6 relative, as verify's objective_gradient check
    does at tau > 0; a lockstep path at another scale of the same unit
    member gives the same value and gradient."""
    f = _TAU_ZERO_KINDS[kind]
    rng = np.random.default_rng(len(kind))
    for _ in range(6):
        n = int(rng.integers(8, 16))
        x0, xd = rng.uniform(-2.0, 2.0, size=(2, f.dim))
        s = np.linspace(0.0, 1.0, n + 1)[1:-1, None]
        Z = x0 + s * (xd - x0) + 0.1 * rng.normal(size=(n - 1, f.dim))
        D = rng.normal(size=Z.shape)
        D /= np.linalg.norm(D)
        h = 1e-5 * (1.0 + float(np.abs(Z).max()))
        obj = minimize._Objective(f, 0.0, np.tile(x0, (3, 1)), np.tile(xd, (3, 1)), 1.0 / n)
        values, (mids, G) = obj.evaluate(np.stack([Z, Z + h * D, Z - h * D]))
        assert np.array_equal(G, f.subgradient_many(mids.reshape(-1, f.dim)).reshape(G.shape))
        grad = obj.paths([0]).derivatives(Z[None], (mids[:1], G[:1]))[0][0]
        fd = float(values[1] - values[2]) / (2.0 * h)
        assert abs(float((grad * D).sum()) - fd) <= 1e-6 * (1.0 + abs(fd))
        unit, c, L = minimize._unit_scale(f)
        if unit is not f:
            scaled = minimize._Objective(unit, 0.0, x0[None], xd[None], 1.0 / n,
                                         (np.array([c * L * L]), np.array([L])))
            value, resolved = scaled.evaluate(Z[None])
            assert value[0] == pytest.approx(values[0], rel=1e-12)
            assert np.allclose(scaled.derivatives(Z[None], resolved)[0][0], grad,
                               rtol=1e-12, atol=1e-12 * np.abs(grad).max())


@pytest.mark.parametrize("kind", list(_TAU_ZERO_KINDS))
def test_tau_zero_derivatives_are_the_small_tau_limit(kind):
    """K and C of `_derivatives` at tau = 0 at rows Y agree within 1e-6 with
    those of envelope_derivatives_many at tau = 1e-8 at X = Y + tau grad f(Y),
    whose resolvents are Y.  (A resolvent from prox_many carries its stop
    residual of up to 1e-11, which over tau = 1e-8 would swamp G.)"""
    f = _TAU_ZERO_KINDS[kind]
    Y = 1.5 * np.random.default_rng(11).normal(size=(40, f.dim))
    K0, C0 = f._derivatives(0.0, Y)
    K, C = f.envelope_derivatives_many(1e-8, Y + 1e-8 * f.subgradient_many(Y), Y)
    assert np.allclose(K0, K, rtol=0.0, atol=1e-6 * (1.0 + np.abs(K).max()))
    assert (C0 is None) == (C is None)
    if C is not None:
        assert np.allclose(C0, C, rtol=0.0, atol=1e-6 * (1.0 + np.abs(C).max()))
    if isinstance(f, Quadratic):
        assert np.allclose(K0, f.Q, rtol=0.0, atol=1e-14)


def test_closed_form_value_free_variants():
    a = closed_form_value("free", delta=2.0, displacement=[3.0, 4.0])
    b = closed_form_value("free", delta=2.0, x0=[1.0, 1.0], xd=[4.0, 5.0])
    assert a == b == pytest.approx(12.5)


def test_closed_form_value_unknown_case():
    with pytest.raises(ConfigError):
        closed_form_value("cubic", delta=1.0)


def test_config_validation():
    with pytest.raises(ConfigError):
        MinimizeConfig(N=0)
    with pytest.raises(ConfigError):
        minimize_action(HALF_SQ, [0.0], [1.0], -1.0)


@pytest.mark.parametrize("field", ["N", "max_iters", "grad_tol"])
@pytest.mark.parametrize("bad", ["abc", None])
def test_config_rejects_non_numbers(field, bad):
    with pytest.raises(ConfigError, match=field):
        MinimizeConfig(**{field: bad})


def test_small_epsilon_resolvent_converges():
    # at epsilon = 1e-6 this input sits on the floating-point floor of the
    # smoothed-max Newton solve, where |r| cannot reach 1e-11 (1 + |x|); the
    # solve stops there with its honest residual instead of raising
    tau, eps = 0.5, 1e-6
    X = np.array([[1.1210097302308488, 1.3931429698157909]])
    Y, res = LogSumExp(TRIANGLE, eps).prox_many(tau, X)
    s = TRIANGLE @ Y[0] / eps
    w = np.exp(s - s.max())
    grad = (w / w.sum()) @ TRIANGLE
    assert res[0] == pytest.approx(np.linalg.norm(Y[0] + tau * grad - X[0]),
                                   rel=1e-12, abs=1e-15)
    # the prox objective is 1-strongly convex, so res bounds |y - J_tau(x)|
    sharp = MaxLinear(TRIANGLE).prox_many(tau, X)[0][0]
    assert np.linalg.norm(Y[0] - sharp) <= math.sqrt(tau * eps * math.log(3)) + res[0]


def test_stalled_resolvent_raises_solver_error(monkeypatch):
    # one Newton step cannot resolve the sharp smoothed max: the stall
    # raises from prox and propagates out of minimize_action
    import actionlab.convex as convex
    monkeypatch.setattr(convex, "_NEWTON_CAP", 1)
    f = LogSumExp(TRIANGLE, 1e-4)
    with pytest.raises(SolverError, match="stalled"):
        prox(f, 0.5, [0.3, 0.2])
    with pytest.raises(SolverError, match="stalled"):
        minimize_action(f, [-1.0, 0.0], [1.0, 0.5], 1.0, MinimizeConfig(N=16))


def test_each_prox_batch_is_one_row_per_chord(monkeypatch):
    # value and gradient share one resolvent batch at the N chord midpoints;
    # a finite-difference gradient would send 2 d N rows at once
    sizes = []
    prox_many = LogSumExp.prox_many

    def counting(self, tau, X, start=None):
        sizes.append(X.shape[0])
        return prox_many(self, tau, X, start=start)

    monkeypatch.setattr(LogSumExp, "prox_many", counting)
    f = LogSumExp(np.array([[1.0, 0.0], [0.0, 1.0], [-0.5, -0.5]]), 0.1)
    res = minimize_action(f, [-1.0, 0.0], [1.0, 0.5], 1.0, MinimizeConfig(N=48))
    assert res.converged
    assert sizes and set(sizes) == {48}


def test_line_search_resolvents_start_from_the_prediction(monkeypatch):
    """On the N = 512 smoothed triangle solve, starting each trial's
    resolvents from their first-order prediction cuts the Newton Hessians
    the resolvents form from 39 to at most 31 and changes nothing else: the
    same steps per stage, the same prox batches, and value_true within 1e-9.
    Hessians formed outside prox_many, by the envelope derivatives, do not
    count."""
    f = LogSumExp(TRIANGLE, 0.1)
    prox_many, hessian_of = LogSumExp.prox_many, LogSumExp._hessian

    def solve(keep_start):
        counts = {"batches": 0, "hessians": 0}
        in_prox = []

        def counting(self, tau, X, start=None):
            counts["batches"] += 1
            in_prox.append(True)
            try:
                return prox_many(self, tau, X, start=start if keep_start else None)
            finally:
                in_prox.pop()

        def hessian(self, W, g):
            counts["hessians"] += bool(in_prox)
            return hessian_of(self, W, g)

        monkeypatch.setattr(LogSumExp, "prox_many", counting)
        monkeypatch.setattr(LogSumExp, "_hessian", hessian)
        res = minimize_action(f, [-1.0, 0.0], [1.0, 0.5], 1.0, MinimizeConfig(N=512))
        return res, [len(t) for t in res.stage_energies], counts

    warm, warm_steps, warm_counts = solve(keep_start=True)
    cold, cold_steps, cold_counts = solve(keep_start=False)
    assert warm_counts["hessians"] <= 31 < cold_counts["hessians"]
    assert warm_counts["batches"] == cold_counts["batches"]
    assert warm_steps == cold_steps
    assert warm.converged and cold.converged
    assert warm.value_true == pytest.approx(cold.value_true, rel=1e-9)


@pytest.mark.parametrize("f", [LogSumExp(TRIANGLE, 0.1), MaxLinear(TRIANGLE),
                               Indicator(Ball(np.zeros(2), 0.9))],
                         ids=["log_sum_exp", "max_linear", "indicator"])
def test_value_smoothed_is_the_energy_of_the_path(f):
    # the last stage's energy where the path is that stage's iterate, and a
    # fresh one where the polish or the projection moved it; the smoothed
    # max's last stage is at tau = 0, where grad f_0 is grad f
    res = minimize_action(f, [-0.6, 0.0], [0.5, 0.5], 1.0, MinimizeConfig(N=64))
    nodes = res.path.nodes
    tau, dt = res.tau_schedule[-1], 1.0 / 64
    mids = 0.5 * (nodes[:-1] + nodes[1:])
    G = f.subgradient_many(mids) if tau == 0.0 else (mids - f.prox_many(tau, mids)[0]) / tau
    want = ((np.diff(nodes, axis=0)**2).sum() / dt + dt * (G**2).sum())
    assert res.value_smoothed == pytest.approx(want, rel=1e-9)


def test_minimize_config_fields():
    assert [f.name for f in dataclasses.fields(MinimizeConfig)] == [
        "N", "max_iters", "grad_tol"]


def test_import_does_not_load_scipy():
    code = ("import actionlab, sys; assert not any(m == 'scipy' "
            "or m.startswith('scipy.') for m in sys.modules)")
    # the subprocess imports the same package this test run imported
    src = str(pathlib.Path(actionlab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


# one solve per row of the minimizer table in ROADMAP.md; each must reach
# the stopping rule at default settings
def test_triangle_converges():
    f = MaxLinear(TRIANGLE)
    for n in (32, 48):
        res = minimize_action(f, [-1.0, 0.0], [1.0, 0.5], 1.0, MinimizeConfig(N=n))
        assert res.converged, n


def test_abs_rests_on_the_kink():
    # exact value: move at unit speed to 0, rest there for delta - 2, move on
    f = MaxLinear([[1.0], [-1.0]])
    res = minimize_action(f, [-1.0], [1.0], 3.0)
    assert res.converged
    assert res.value_true == pytest.approx(4.0, rel=1e-2)
    assert res.value_smoothed <= res.value_true + 1e-9


def _projectors(*ranks):
    """1-d face projectors (N, 1, 1): 1 on a pinned chord, 0 on a free one."""
    return np.array(ranks, dtype=float)[:, None, None]


def _ranks(P):
    return np.trace(P, axis1=1, axis2=2).tolist()


def test_next_faces_grows_a_1d_run_by_one_chord_at_each_end():
    P = _projectors(0, 0, 0, 1, 1, 0, 0, 0)
    assert _ranks(minimize._next_faces(P, np.zeros_like(P))) == [0, 0, 1, 1, 1, 1, 0, 0]


def test_next_faces_merges_runs_one_chord_apart():
    P = _projectors(0, 1, 1, 0, 1, 0, 0)
    assert _ranks(minimize._next_faces(P, np.zeros_like(P))) == [1, 1, 1, 1, 1, 1, 0]


def test_next_faces_takes_seen_where_it_pins_more():
    P = _projectors(0, 1, 0, 0, 0, 0, 0)
    seen = _projectors(1, 0, 0, 0, 0, 1, 0)
    # chord 0 is pinned by both, chord 1 only by P, chord 5 only by seen
    assert _ranks(minimize._next_faces(P, seen)) == [1, 1, 1, 0, 0, 1, 0]


def test_next_faces_keeps_a_2d_vertex_beside_an_edge():
    edge, vertex, free = np.diag([1.0, 0.0]), np.eye(2), np.zeros((2, 2))
    P = np.array([free, edge, vertex, free])
    G = minimize._next_faces(P, np.zeros_like(P))
    # the vertex keeps its rank and grows into the edge chord and the free
    # one beyond it; the edge grows into the free chord on its other side
    assert _ranks(G) == [1, 2, 2, 2]
    assert np.array_equal(G, [edge, vertex, vertex, vertex])


@pytest.mark.parametrize("P", [_projectors(1, 1, 1, 1), _projectors(0, 0, 0),
                               np.array([np.diag([0.0, 1.0]), np.diag([1.0, 0.0]),
                                         np.diag([0.0, 1.0])])],
                         ids=["all_pinned", "none_pinned", "equal_ranks"])
def test_next_faces_returns_a_set_that_cannot_grow_unchanged(P):
    G = minimize._next_faces(P, np.zeros_like(P))
    assert np.array_equal(G, P)


def _dense_face_solve(x0, xd, P):
    """The face solve's reference: interior nodes (N-1, d) minimizing the
    kinetic energy |D x|^2 subject to the midpoint constraints C x = c,
    P_i (x_i + x_{i+1}) = 0, over all N-1 interior nodes at once, by the
    null space of C from numpy's SVD."""
    N, d = P.shape[:2]
    diff = np.eye(N + 1, k=1)[:-1] - np.eye(N + 1)[:-1]        # (N, N+1)
    D = np.kron(diff, np.eye(d))
    C = np.einsum("iab,ij->iajb", P, np.abs(diff)).reshape(N * d, (N + 1) * d)
    ends = np.concatenate([x0, np.zeros((N - 1) * d), xd])
    inner = slice(d, N * d)
    U, sv, Vt = np.linalg.svd(C[:, inner], full_matrices=False)
    rank = int((sv > 1e-10 * sv.max(initial=0.0)).sum())
    z = Vt[:rank].T @ (U[:, :rank].T @ -(C @ ends) / sv[:rank])
    free = Vt[rank:].T
    z = z + free @ np.linalg.lstsq(D[:, inner] @ free, -(D @ ends) - D[:, inner] @ z)[0]
    return z.reshape(N - 1, d)


def _random_face_set(rng):
    """(x0, xd, P) of a random face set in d = 1, 2, 3 with N <= 128 chords
    and at most 128 interior unknowns, built from runs of random length: a
    run is free, a vertex (P = I) or a random-rank projector Q Q^T."""
    d = int(rng.integers(1, 4))
    N = int(np.exp(rng.uniform(0.0, np.log(min(128, 128 // d + 1) + 1))))
    P, i = np.zeros((N, d, d)), 0
    while i < N:
        length = int(rng.integers(1, N + 1 if rng.random() < 0.5 else 4))
        kind = rng.integers(4)
        if kind == 1:
            P[i:i + length] = np.eye(d)
        elif kind > 1:
            Q = np.linalg.qr(rng.normal(size=(d, d)))[0][:, :int(rng.integers(1, d + 1))]
            P[i:i + length] = Q @ Q.T
        i += length
    return *rng.uniform(-2.0, 2.0, size=(2, d)), P


def test_face_solve_matches_a_dense_reference():
    # every solve leaves a chord free, so its face set is feasible; the
    # sample holds runs at an endpoint and neighbouring runs whose
    # projectors do not commute, the case a shared basis would miss
    rng = np.random.default_rng(32)
    solved = at_an_end = apart = 0
    while solved < 1000:
        x0, xd, P = _random_face_set(rng)
        if not (P == 0.0).all(axis=(1, 2)).any():
            continue
        ref = _dense_face_solve(x0, xd, P)
        scale = max(np.abs(ref).max(initial=0.0), np.abs(x0).max(), np.abs(xd).max())
        assert np.abs(minimize._on_faces(x0, xd, P) - ref).max(initial=0.0) <= 1e-10 * scale
        solved += 1
        at_an_end += bool(P[0].any() or P[-1].any())
        apart += bool(np.abs(P[:-1] @ P[1:] - P[1:] @ P[:-1]).max(initial=0.0) > 1e-6)
    assert at_an_end >= 500 and apart >= 50


@pytest.mark.parametrize("N", [7, 8], ids=["odd", "even"])
@pytest.mark.parametrize("x0, xd", [(-1.0, 1.0), (0.0, 0.0)], ids=["across", "at_0"])
def test_face_solve_with_every_chord_pinned(x0, xd, N):
    # |x|'s kink pins every midpoint to 0: the zig-zag -1, 1, -1, ... meets
    # the constraints for an odd N, no path does for an even one, and the
    # path that stays at 0 does from 0 to 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        Z = minimize._on_faces(np.array([x0]), np.array([xd]), np.ones((N, 1, 1)))
    assert Z.shape == (N - 1, 1) and np.isfinite(Z).all()
    if xd == 0.0:
        np.testing.assert_allclose(Z, 0.0, rtol=0.0, atol=1e-15)
    elif N % 2:
        np.testing.assert_allclose(Z[:, 0], -x0 * (-1.0) ** np.arange(N - 1), rtol=1e-12)


@pytest.mark.parametrize("N", [7, 8], ids=["odd", "even"])
@pytest.mark.parametrize("x0, xd", [(-1.0, 1.0), (0.0, 0.0)], ids=["across", "at_0"])
def test_polish_keeps_no_pass_that_does_not_lower_the_action(x0, xd, N):
    # at tau = 10 every midpoint of the straight line lies inside 10 [-1, 1],
    # so its resolvent pins it: the face solve of the one pass is the
    # zig-zag, a least-squares path, or 0 itself, none below the line
    f = MaxLinear([[1.0], [-1.0]])
    obj = minimize._Objective(f, 10.0, np.array([[x0]]), np.array([[xd]]), 1.0 / N)
    times = np.linspace(0.0, 1.0, N + 1)
    Z = x0 + np.linspace(0.0, 1.0, N + 1)[None, 1:-1, None] * (xd - x0)
    Z_end, best = minimize._polish_on_faces(obj, Z, times)
    assert Z_end is Z
    assert best == discrete_action(f, Path(times, obj.full_nodes(Z)[0])).total


def _sequential_polish(obj, Z, times):
    """The kink-face polish one pass at a time: (Z, true action, passes
    kept, faces of the last kept pass)."""
    def true_value(Z):
        return discrete_action(obj.f, Path(times, obj.full_nodes(Z)[0])).total

    def faces(Z):
        return obj.tau * obj.derivatives(Z, obj.evaluate(Z)[1])[1]

    best, P, kept, last = true_value(Z), faces(Z), 0, None
    for _ in range(minimize._FACE_PASSES):
        cand = minimize._on_faces(obj.X0[0], obj.XD[0], P)[None]
        value = true_value(cand)
        if not value < best:
            break
        Z, best, kept, last = cand, value, kept + 1, P
        P_next = minimize._next_faces(P, faces(Z))
        if np.allclose(P_next, P, rtol=0.0, atol=1e-9):
            break
        P = P_next
    return Z, best, kept, last


def _recorded_polish(obj, Z, times, monkeypatch):
    """`_polish_on_faces` as (Z, true action, passes kept, faces of each
    pass), read from its `_on_faces` calls: it keeps every pass but perhaps
    the last, which it keeps when it returns that pass's path."""
    on_faces, passes = minimize._on_faces, []

    def recording(x0, xd, P):
        passes.append((P, on_faces(x0, xd, P)))
        return passes[-1][1]

    monkeypatch.setattr(minimize, "_on_faces", recording)
    Z_end, best = minimize._polish_on_faces(obj, Z, times)
    monkeypatch.setattr(minimize, "_on_faces", on_faces)
    kept = len(passes) - (not np.shares_memory(Z_end, passes[-1][1]))
    return Z_end, best, kept, [P for P, _ in passes]


def _agrees_with_the_sequential_polish(inputs, monkeypatch):
    """The polish and the one-pass loop of each input keep as many passes,
    stop on the same faces and end on the same path and true action, bit for
    bit; the polish's (passes kept, faces of each pass) per input."""
    out = []
    for obj, Z, times in inputs:
        want = _sequential_polish(obj, Z, times)
        got = _recorded_polish(obj, Z, times, monkeypatch)
        assert got[2] == want[2]
        assert got[1] == want[1]
        assert np.array_equal(got[0], want[0])
        if want[3] is not None:
            assert np.array_equal(got[3][want[2] - 1], want[3])
        out.append(got[2:])
    return out


def _polish_sample():
    """(f, X0, XD, delta, N) of 40 max_linear solves in 10 lockstep groups:
    1-d and 2-d, N in (16, 64, 256), delta in (0.3, 1, 3), and |x| from -1
    to 1 at delta = 3, N = 256 first in the last group."""
    rng = np.random.default_rng(5)
    for g, (N, delta) in enumerate([(N, delta) for N in (16, 64, 256)
                                    for delta in (0.3, 1.0, 3.0)]):
        d = 1 + g % 2
        X0, XD = rng.uniform(-2.0, 2.0, size=(2, 4, d))
        yield MaxLinear(rng.normal(size=(int(rng.integers(2, 4)), d))), X0, XD, delta, N
    X0, XD = rng.uniform(-2.0, 2.0, size=(2, 4, 1))
    X0[0], XD[0] = -1.0, 1.0
    yield MaxLinear([[1.0], [-1.0]]), X0, XD, 3.0, 256


def test_polish_keeps_the_sequential_passes(monkeypatch):
    """On every solve of the sample the polish keeps as many passes as the
    one-at-a-time loop, on the same faces, and ends on its path and true
    action; so it does under a cap of 3 or 5 passes.  The |x| solve keeps
    its 12 passes."""
    polish, inputs = minimize._polish_on_faces, []
    monkeypatch.setattr(minimize, "_polish_on_faces",
                        lambda *args: inputs.append(args) or polish(*args))
    for f, X0, XD, delta, N in _polish_sample():
        _minimize_paths([f] * len(X0), X0, XD, delta, MinimizeConfig(N=N))
    monkeypatch.setattr(minimize, "_polish_on_faces", polish)
    assert len(inputs) == 40
    kept = [k for k, _ in _agrees_with_the_sequential_polish(inputs, monkeypatch)]
    assert kept[36] == 12
    # so the sample is not only polishes that keep one pass or none
    assert sum(k > 1 for k in kept) >= 5
    for cap in (3, 5):
        monkeypatch.setattr(minimize, "_FACE_PASSES", cap)
        capped = _agrees_with_the_sequential_polish(inputs, monkeypatch)
        assert capped[36][0] == cap


def test_polish_keeps_the_sequential_passes_where_the_faces_grow_apart(monkeypatch):
    # at tau = 0.05 the resolvents pin chords within 0.05 |a| of the kink,
    # so a pass that moves chords nearer to it pins more than one chord of
    # growth at each end: the next pass takes faces its resolvents read
    f, X0, XD, N = MaxLinear([[2.0], [-0.5]]), np.array([[-1.0]]), np.array([[1.5]]), 64
    obj = minimize._Objective(f, 0.05, X0, XD, 3.0 / N)
    Z = X0 + np.linspace(0.0, 1.0, N + 1)[1:-1, None] * (XD - X0)
    [(kept, faces)] = _agrees_with_the_sequential_polish(
        [(obj, Z[None], np.linspace(0.0, 3.0, N + 1))], monkeypatch)
    assert kept >= 2
    assert any(not np.array_equal(b, minimize._next_faces(a, np.zeros_like(a)))
               for a, b in zip(faces, faces[1:]))


@pytest.mark.parametrize("f, X0, XD", [
    (MaxLinear([[1.0], [-1.0]]), [[-1.0], [0.5], [2.0]], [[1.0], [-1.5], [1.0]]),
    (MaxLinear(TRIANGLE), [[-1.0, 0.0], [0.5, 0.5]], [[1.0, 0.5], [-0.5, 1.0]]),
], ids=["1d", "2d"])
def test_polished_value_true_is_the_discrete_action_of_the_path(f, X0, XD):
    # value_true of a polished path is the polish's last true action, which
    # is bit-equal to a fresh midpoint-rule action of the returned path
    for res in _minimize_paths([f] * len(X0), np.array(X0), np.array(XD), 3.0,
                               MinimizeConfig(N=64)):
        assert res.value_true == discrete_action(f, res.path).total
        assert type(res.value_true) is float


def test_huge_quadratic_converges():
    # the relative error is the discretization error of N = 256 (1.0e-6),
    # the same at every scale
    errors = []
    for s in (1.0, 1e8):
        res = minimize_action(HALF_SQ, [-s], [s], 1.0)
        assert res.converged
        want = closed_form_value("quadratic_1d", a=-s, b=s, delta=1.0)
        errors.append(res.value_true / want - 1.0)
    assert abs(errors[1]) <= 2e-6
    assert errors[1] == pytest.approx(errors[0], rel=1e-6)


def test_max_linear_3d_converges():
    f = MaxLinear([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
                   [-0.5, -0.5, -0.5]])
    res = minimize_action(f, [-1.0, 0.0, 0.2], [1.0, 0.5, -0.3], 1.0,
                          MinimizeConfig(N=16))
    assert res.converged


def test_sharp_log_sum_exp_converges():
    f = LogSumExp(TRIANGLE, 1e-4)
    res = minimize_action(f, [-1.0, 0.0], [1.0, 0.5], 1.0, MinimizeConfig(N=64))
    assert res.converged


def test_stopping_rule_is_scale_free():
    counts = []
    for s in (1.0, 1e4, 1e8):
        res = minimize_action(HALF_SQ, [-s], [s], 1.0)
        assert res.converged
        counts.append(res.iterations)
    assert counts[0] == counts[1] == counts[2]


def test_accepted_steps_strictly_lower_the_energy():
    # conv{a_i} excludes the origin here, so the smoothed slope term has
    # convex kinks that stall Newton; a step whose energy only rounds to the
    # Armijo bound is no progress and must end the stage, not count as one
    f = MaxLinear([[0.8938456004516719, 1.0454923240383853],
                   [0.9325435340039069, -0.5309482177187937],
                   [0.07840434194680262, -0.16578081897935465],
                   [1.788574787967336, 0.17969620192256117]])
    res = minimize_action(f, [2.574371999123929, 1.168256330997083],
                          [-0.45743934920147433, -1.0212353227381723], 3.0,
                          MinimizeConfig(N=32))
    for trace in res.stage_energies:
        assert all(b < a for a, b in zip(trace, trace[1:]))
    assert res.iterations < 100


@pytest.mark.parametrize("f, x0, xd, smoothed, true", [
    (MaxLinear(TRIANGLE), [-1.0, 0.0], [1.0, 0.5], 5.250000000000002, 5.25),
    (LogSumExp(TRIANGLE, 0.1), [-1.0, 0.0], [1.0, 0.5],
     5.053010859364539, 5.053010859364539),
    (Indicator(Ball(np.zeros(2), 1.5)), [-1.0, 0.0], [1.0, 0.5], 4.25, 4.25),
    (HALF_SQ, [1.0], [2.0], 3.25, 3.25),
    (SquaredDistance(Ball(np.zeros(2), 1.0), 2.0), [-2.0, 0.0], [2.0, 0.5],
     16.25, 16.25),
], ids=["max_linear", "log_sum_exp", "indicator", "quadratic",
        "squared_distance"])
def test_one_interval_solve_is_the_straight_chord(f, x0, xd, smoothed, true):
    # N = 1 has no interior node: the empty iterate goes through every stage,
    # the projection and the polish unchanged, and the values are those of
    # the one chord, whose smoothed value is its true one where the last
    # stage runs on f itself (tau = 0)
    res = minimize_action(f, x0, xd, 1.0, MinimizeConfig(N=1))
    assert res.path.nodes.tolist() == [x0, xd]
    assert res.iterations == 0 and res.converged
    assert res.value_smoothed == pytest.approx(smoothed, rel=1e-14)
    assert res.value_true == pytest.approx(true, rel=1e-14)
    mid = 0.5 * (np.array(x0) + np.array(xd))
    tau = res.tau_schedule[-1]
    G = (f.subgradient_many(mid[None])[0] if tau == 0.0
         else (mid - f.prox_many(tau, mid)[0][0]) / tau)
    kinetic = float(np.sum((np.array(xd) - np.array(x0))**2))
    assert res.value_smoothed == pytest.approx(kinetic + G @ G, rel=1e-12)
    assert res.value_true == pytest.approx(kinetic + f.slope_many(mid[None])[0]**2,
                                           rel=1e-12)


@pytest.mark.parametrize("N", [1, 4, 64, 256])
@pytest.mark.parametrize("f", [Quadratic([[-1.0]], [0.0]),
                               LogSumExp([[1.0], [-1.0]], 0.1)],
                         ids=["quadratic", "log_sum_exp"])
def test_smallest_normal_delta_solves_cleanly(f, N):
    # delta/N and the schedule's smallest positive tau, 0.02 delta for the
    # smoothed max (the quadratic's one tau is 0, f itself), reach the
    # smallest normal float at delta = max(N, 50) * float_info.min, or
    # N * float_info.min for the quadratic; a RuntimeWarning is an error in
    # this suite, so the solve must raise none
    threshold = max(N, 50 if isinstance(f, LogSumExp) else 1) * sys.float_info.min
    res = minimize_action(f, [0.0], [1.0], 1.001 * threshold, MinimizeConfig(N=N))
    assert np.isfinite(res.value_true)
    with pytest.raises(ConfigError, match="delta"):
        minimize_action(f, [0.0], [1.0], 0.999 * threshold, MinimizeConfig(N=N))
