"""The in-package Nelder-Mead and the fused closed-form Bell objective.

``bell.minimize`` ports scipy's Nelder-Mead step for step, so scipy (from
the ``test`` extra) is its oracle: every case must give the same x, fun,
nit, nfev and status, compared with ``==``. The fused objective that
``maximize_bell`` runs on closed-form portraits is checked against the
Bell-matrix route it replaces.
"""

import math

import numpy as np
import pytest
import scipy.optimize as sp

from tomobell import bell
from tomobell.bell import (
    BellSettings,
    MaximizeConfig,
    _closed_form_objective,
    _start_point,
    bell_matrix,
    bell_number,
    get_bell_high_water,
    minimize,
)
from tomobell.errors import InvalidParameter, NumericalNegativity
from tomobell.portrait import PartitionScheme, make_portrait_fn
from tomobell.states import CatState, CoherentProduct, GaussianSpec, gaussian_purity_family

EO = PartitionScheme.even_odd()
ZN = PartitionScheme.zero_nonzero()
CFG = MaximizeConfig()
BOX = CFG.box

SQUEEZED_M = np.array([
    [3.0, math.sqrt(35) / 2, 0.0, 0.0],
    [math.sqrt(35) / 2, 3.0, 0.0, 0.0],
    [0.0, 0.0, 1.0, math.sqrt(3) / 2],
    [0.0, 0.0, math.sqrt(3) / 2, 1.0],
])

# the members of the benchmark's maximize-closed mix
MIX = {
    "cat50-even-odd": (CatState(math.sqrt(50), math.sqrt(50)), EO),
    "coherent-even-odd": (CoherentProduct(0.5, 0.5j), EO),
    "cat1-zero-nonzero": (CatState(1.0, 1.0), ZN),
    "family-0.6-even-odd": (gaussian_purity_family(0.6, 0.0), EO),
    "cat10-even-odd": (CatState(math.sqrt(10), math.sqrt(10)), EO),
    "family-1.2-even-odd": (gaussian_purity_family(1.2, 0.0), EO),
    "cat1-even-odd": (CatState(1.0, 1.0), EO),
    "squeezed-zero-nonzero": (GaussianSpec(SQUEEZED_M), ZN),
}


def _negative_b(state, p):
    """-B as the maximizer minimizes it; vertices arrive as lists or arrays."""
    value = _closed_form_objective(make_portrait_fn(state, p), BOX)
    return lambda x: -value(np.asarray(x, dtype=float).tolist())


def _start_simplex(seed, index):
    x0, scale = _start_point(seed, index, BOX)
    return np.vstack([x0, x0 + (scale / 2.0) * np.eye(8)])


def _assert_same_as_scipy(fun, simplex, maxfev=CFG.max_iters):
    ours = minimize(fun, simplex, xatol=CFG.xtol, fatol=CFG.ftol,
                    maxiter=maxfev, maxfev=maxfev)
    ref = sp.minimize(fun, simplex[0], method="Nelder-Mead",
                      options=dict(initial_simplex=simplex, xatol=CFG.xtol,
                                   fatol=CFG.ftol, maxiter=maxfev, maxfev=maxfev))
    assert ours.x.tolist() == ref.x.tolist()
    assert ours.fun == ref.fun
    assert (ours.nit, ours.nfev, ours.status) == (ref.nit, ref.nfev, ref.status)
    assert ours.success == ref.success and ours.message == ref.message
    return ours


# --- the optimizer against scipy ---------------------------------------------


@pytest.mark.parametrize("label", sorted(MIX))
def test_minimize_matches_scipy_on_the_maximize_mix(label):
    fun = _negative_b(*MIX[label])
    for index in (0, 1):
        _assert_same_as_scipy(fun, _start_simplex(0, index))


def test_minimize_matches_scipy_where_the_budget_runs_out():
    # the two starts of the squeezed example (zero-nonzero, seed 0) that
    # stop at maxfev
    fun = _negative_b(GaussianSpec(SQUEEZED_M), ZN)
    for index in (4, 9):
        res = _assert_same_as_scipy(fun, _start_simplex(0, index))
        assert res.status == 1 and res.nfev == CFG.max_iters and not res.success


def test_minimize_matches_scipy_under_small_budgets():
    # budgets that cut the initial simplex or an iteration short; on the
    # first start of cat1-even-odd, budgets 18-23 stop a shrink after a
    # shrunk vertex has beaten the best one, so the answer depends on the
    # simplex being re-sorted after the cut
    for label, seed, index in (("cat1-even-odd", 0, 0), ("cat1-even-odd", 3, 2),
                               ("squeezed-zero-nonzero", 3, 2)):
        fun = _negative_b(*MIX[label])
        simplex = _start_simplex(seed, index)
        for maxfev in (1, 5, 9, 10, 11, 18, 20, 23, 60, 150):
            res = _assert_same_as_scipy(fun, simplex, maxfev)
            assert res.nfev <= maxfev


def test_minimize_matches_scipy_on_a_tied_plateau():
    # outside the box the clipped objective is flat: every vertex ties,
    # each iteration ends in a shrink, and budgets cut shrinks short
    fun = _negative_b(CoherentProduct(0.5, 0.5j), EO)
    outside = np.full(8, 2.5)
    plateau = np.vstack([outside, outside + 0.25 * np.eye(8)])
    for maxfev in range(1, 45):
        _assert_same_as_scipy(fun, plateau, maxfev)
    res = _assert_same_as_scipy(fun, plateau)
    assert res.status == 0
    # straddling the box edge: clipped vertices tie with each other
    edge = np.full(8, 1.9)
    _assert_same_as_scipy(fun, np.vstack([edge, edge + 0.25 * np.eye(8)]))


def test_minimize_sorts_ties_as_often_as_scipy(monkeypatch):
    # numpy's argsort may leave sorted ties in place on one platform and
    # swap them on another; one that reverses ties on every call makes
    # each extra or missing sort change the vertex order, so only the
    # same sequence of sorts as scipy's gives scipy's answer
    def reverse_ties(a):
        a = np.asarray(a)
        return np.lexsort((-np.arange(len(a)), a))

    monkeypatch.setattr(np, "argsort", reverse_ties)
    fun = _negative_b(CoherentProduct(0.5, 0.5j), EO)
    outside = np.full(8, 2.5)
    plateau = np.vstack([outside, outside + 0.25 * np.eye(8)])
    for maxfev in (5, 9, 10, 20, 44):
        _assert_same_as_scipy(fun, plateau, maxfev)
    assert _assert_same_as_scipy(fun, plateau).status == 0
    edge = np.full(8, 1.9)
    _assert_same_as_scipy(fun, np.vstack([edge, edge + 0.25 * np.eye(8)]))


def test_minimize_quadratic_converges():
    res = minimize(lambda x: sum((v - 0.5) ** 2 for v in x),
                   np.vstack([np.zeros(3), np.eye(3)]),
                   xatol=1e-8, fatol=1e-12, maxiter=1000, maxfev=1000)
    assert res.success and res.status == 0
    assert np.allclose(res.x, 0.5, atol=1e-6)


# --- the fused objective ------------------------------------------------------


FUSED_STATES = (
    CatState(1.0, 1.0),
    CatState(50, 50),
    CatState(math.sqrt(10), 1j),
    CoherentProduct(0.5, 0.5j),
    CoherentProduct(-1.0 + 0.3j, 0.2),
    gaussian_purity_family(1.2, 0.04),
    GaussianSpec(SQUEEZED_M),
)


def test_fused_objective_matches_bell_matrix_route():
    rng = np.random.default_rng(2024)
    for state in FUSED_STATES:
        for p in (EO, ZN):
            fn = make_portrait_fn(state, p)
            value = _closed_form_objective(fn, BOX)
            for _ in range(40):
                # a few coordinates fall outside the box and get clipped
                x = rng.uniform(-1.25 * BOX, 1.25 * BOX, 8)
                ref = bell_number(bell_matrix(fn, BellSettings.from_vector(np.clip(x, -BOX, BOX))))
                assert abs(value(x.tolist()) - ref) <= 1e-14


def test_fused_objective_raises_the_same_errors():
    fn = make_portrait_fn(CatState(1.0, 1.0), EO)
    value = _closed_form_objective(fn, BOX)
    x = [0.1, -0.2, 0.3, 0.4, -0.5, 0.6, 0.7, -0.8]
    for bad in (math.nan, -math.nan):
        y = list(x)
        y[5] = bad
        with pytest.raises(InvalidParameter):
            value(y)
        with pytest.raises(InvalidParameter):
            BellSettings.from_vector(np.clip(y, -BOX, BOX))
    # infinities clip to the box edge on both routes
    y = list(x)
    y[2] = math.inf
    ref = bell_number(bell_matrix(fn, BellSettings.from_vector(np.clip(y, -BOX, BOX))))
    assert abs(value(y) - ref) <= 1e-14
    # det M >= 1/16 but not a physical state: the closed-form cells go
    # negative and the portrait check refuses them on both routes
    fake = make_portrait_fn(GaussianSpec(np.diag([0.1, 5.0, 0.1, 5.0])), EO)
    with pytest.raises(NumericalNegativity):
        _closed_form_objective(fake, BOX)(x)
    with pytest.raises(NumericalNegativity):
        bell_matrix(fake, BellSettings.from_vector(x))


def test_fused_objective_updates_the_high_water_mark(monkeypatch):
    monkeypatch.setattr(bell, "_bell_high_water", 0.0)
    value = _closed_form_objective(make_portrait_fn(CatState(1.0, 1.0), EO), BOX)
    b = value([0.1, -0.2, 0.3, 0.4, -0.5, 0.6, 0.7, -0.8])
    assert b > 0.0
    assert get_bell_high_water() == b
    value([0.0] * 8)
    assert get_bell_high_water() >= b
