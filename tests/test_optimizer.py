"""The bounded quasi-Newton search and the Bell objectives it climbs.

The fused closed-form objective's gradient is checked against central
differences and against an ``mpmath`` evaluation of the generating
functions, and its value against the Bell-matrix route it replaces; the
forward-difference objective against nine independent Bell numbers.
scipy's L-BFGS-B (from the ``test`` extra) is the oracle for the search:
with the step-growth cap lifted, from the same start points and in the
same start-scaled coordinates, it must reach the same per-start maxima.
The search's curvature memory is checked against the compact form built
from scratch, and its model target against the route that always forms
B = H^-1 and the generalized Cauchy point.
"""

import functools
import math

import mpmath
import numpy as np
import pytest
import scipy.optimize as sp

from tomobell import bell
from tomobell.bell import (
    BellSettings,
    MaximizeConfig,
    _closed_form_objective,
    _breakpoints,
    _cauchy_point,
    _CurvatureMemory,
    _difference_objective,
    _inverse_hessian,
    _max_step,
    _start_point,
    bell_matrix,
    bell_number,
    get_bell_high_water,
    maximize_bell,
    minimize,
)
from tomobell.errors import InvalidParameter, NumericalNegativity
from tomobell.portrait import PartitionScheme, make_portrait_fn, portrait_truncated
from tomobell.states import (
    CatState,
    CoherentProduct,
    GaussianSpec,
    gaussian_purity_family,
    make_source,
)

from oracles import SQUEEZED_M, PerColumnPortrait, per_column_objective, two_mode_squeezed_vacuum

EO = PartitionScheme.even_odd()
ZN = PartitionScheme.zero_nonzero()
CFG = MaximizeConfig()
BOX = CFG.box

# the members of the benchmark's maximize-closed mix: state, partition,
# the number of starts the benchmark gives it, and the value its maximum
# must reach within 1e-3
MIX = {
    "cat50-even-odd": (CatState(math.sqrt(50), math.sqrt(50)), EO, 5, 2.73),
    "coherent-even-odd": (CoherentProduct(0.5, 0.5j), EO, 5, 2.0),
    "cat1-zero-nonzero": (CatState(1.0, 1.0), ZN, 10, 2.0),
    "family-0.6-even-odd": (gaussian_purity_family(0.6, 0.0), EO, 5, 2.0),
    "cat10-even-odd": (CatState(math.sqrt(10), math.sqrt(10)), EO, 5, 2.65),
    "family-1.2-even-odd": (gaussian_purity_family(1.2, 0.0), EO, 5, 2.0),
    "cat1-even-odd": (CatState(1.0, 1.0), EO, 5, 2.469),
    "squeezed-zero-nonzero": (GaussianSpec(SQUEEZED_M), ZN, 5, 2.4709),
}


# --- the search -----------------------------------------------------------------


def test_minimize_quadratic_converges():
    def fun(x):
        return sum((v - 0.5) ** 2 for v in x), [2.0 * (v - 0.5) for v in x]

    res = minimize(fun, np.zeros(3), np.full(3, -1.0), np.full(3, 1.0),
                   scale=1.0, xtol=1e-12, ftol=1e-15, maxfev=100)
    assert res.success and res.status == 0
    assert np.allclose(res.x, 0.5, atol=1e-8)
    assert res.nfev < 20


def test_minimize_stops_on_the_box():
    # the unconstrained minimizer (3, -3, 0.5) lies outside the box in
    # two coordinates: the search ends on those bounds, exactly
    target = np.array([3.0, -3.0, 0.5])

    def fun(x):
        d = np.asarray(x) - target
        return float(d @ d), (2.0 * d).tolist()

    res = minimize(fun, np.array([0.2, 0.1, -0.3]), np.full(3, -1.0), np.full(3, 1.0),
                   scale=0.5, xtol=1e-12, ftol=1e-15, maxfev=100)
    assert res.success
    assert res.x[0] == 1.0 and res.x[1] == -1.0
    assert abs(res.x[2] - 0.5) <= 1e-8


def test_minimize_respects_the_budget():
    def fun(x):
        return math.cos(3.0 * x[0]) + x[1] ** 2, [-3.0 * math.sin(3.0 * x[0]), 2.0 * x[1]]

    for maxfev in (1, 2, 3, 5):
        res = minimize(fun, np.array([0.1, 0.7]), np.full(2, -2.0), np.full(2, 2.0),
                       scale=0.01, xtol=1e-12, ftol=1e-15, maxfev=maxfev)
        assert res.nfev <= maxfev
        assert res.status == 1 and not res.success
        assert np.all(np.abs(res.x) <= 2.0)


def test_minimize_gives_up_when_no_step_descends():
    # a gradient of the wrong sign points every step uphill: the line search
    # fails from the start point with an empty curvature memory (status 2)
    def fun(x):
        return sum((v - 0.5) ** 2 for v in x), [-2.0 * (v - 0.5) for v in x]

    res = minimize(fun, np.zeros(3), np.full(3, -1.0), np.full(3, 1.0),
                   scale=1.0, xtol=1e-12, ftol=1e-15, maxfev=100)
    assert res.status == 2 and not res.success
    assert res.nfev == 21 and res.nit == 0
    assert np.array_equal(res.x, np.zeros(3))


def test_minimize_grows_its_steps_from_the_start_scale():
    # The first curvature pair of a quadratic gives the Newton step to its
    # minimum (0.9, -0.9) at once. The cap holds each step to STEP_GROWTH
    # times the one before (or scale), so after j calls no point lies
    # farther than scale * (1 + G + ... + G^j) from the start.
    seen = []
    centre = np.array([0.9, -0.9])

    def fun(x):
        seen.append(max(abs(v) for v in x))
        d = np.asarray(x) - centre
        return float(d @ d), (2.0 * d).tolist()

    scale = 1e-3
    res = minimize(fun, np.zeros(2), np.full(2, -1.0), np.full(2, 1.0),
                   scale=scale, xtol=1e-12, ftol=1e-15, maxfev=100)
    assert res.success
    assert np.allclose(res.x, centre, atol=1e-8)
    growth = bell.STEP_GROWTH
    for j, reach in enumerate(seen):
        assert reach <= scale * (growth ** (j + 1) - 1) / (growth - 1) + 1e-15, (j, reach)


def test_minimize_recovers_from_a_singular_inverse_hessian(monkeypatch):
    # pairs of very different curvature can leave the dense inverse
    # Hessian numerically singular; the search then clears its memory
    # and goes on
    calls = []
    inverse_hessian = bell._inverse_hessian

    def fragile(*args):
        calls.append(1)
        if len(calls) == 2:
            raise np.linalg.LinAlgError("Singular matrix")
        return inverse_hessian(*args)

    monkeypatch.setattr(bell, "_inverse_hessian", fragile)

    def fun(x):
        d = np.asarray(x) - np.array([0.3, -0.4, 0.5])
        return float(d @ np.diag([1.0, 4.0, 9.0]) @ d), (2.0 * np.array([1.0, 4.0, 9.0]) * d).tolist()

    res = minimize(fun, np.zeros(3), np.full(3, -1.0), np.full(3, 1.0),
                   scale=0.5, xtol=1e-12, ftol=1e-15, maxfev=200)
    assert len(calls) > 2
    assert res.success
    assert np.allclose(res.x, [0.3, -0.4, 0.5], atol=1e-7)


def _inverse_hessian_from_scratch(S, Y, gamma):
    """The L-BFGS inverse Hessian of the pairs in the rows of S and Y, with
    initial matrix gamma * I: the compact form of Byrd, Nocedal & Schnabel
    solved anew. With R the upper triangle of S Y' and D its diagonal,
    P = R^-1 S gives H = gamma I + P' (D + gamma Y Y') P - gamma (P' Y + Y' P).
    """
    k, n = S.shape
    SY = S @ Y.T
    P = np.linalg.solve(np.triu(SY), S)
    A = gamma * (Y @ Y.T)
    A.flat[:: k + 1] += SY.flat[:: k + 1]
    PY = P.T @ Y
    H = P.T @ A @ P - gamma * (PY + PY.T)
    H.flat[:: n + 1] += gamma
    return H


def test_curvature_memory_matches_the_compact_form_from_scratch():
    # 60 pairs with a reset after 30: in each half the memory fills and
    # then drops its oldest pair 20 times. Each pair has its own curvature
    # along each coordinate, so every pair tells H something new.
    rng = np.random.default_rng(31)
    n = 8
    memory = _CurvatureMemory(n)
    kept = []
    for j in range(60):
        if j == 30:
            memory.clear()
            kept = []
        assert memory.k == len(kept)
        while True:
            s = rng.normal(size=n) * 10.0 ** rng.uniform(-2, 1)
            scales = 10.0 ** rng.uniform(-1, 1, n)
            y = scales * s + 0.05 * rng.normal(size=n) * np.linalg.norm(s)
            sy = float(s @ y)
            if sy > 0.0:
                break
        memory.add(s, y, sy)
        kept = (kept + [(s, y)])[-bell.LBFGS_MEMORY:]
        S = np.array([pair[0] for pair in kept])
        Y = np.array([pair[1] for pair in kept])
        ref = _inverse_hessian_from_scratch(S, Y, sy / float(y @ y))
        H = _inverse_hessian(memory)
        assert np.max(np.abs(H - ref)) <= 1e-12 * np.max(np.abs(ref)), j


class _SliceMoveMemory:
    """The curvature memory as it was kept before its sliding window: the
    k pairs in the first k rows, and every pair added to a full memory
    moves each array's trailing block to the front. ``inverse_hessian``
    is the compact form read from those rows."""

    def __init__(self, n):
        m = bell.LBFGS_MEMORY
        self.S, self.Y = np.zeros((m, n)), np.zeros((m, n))
        self.D, self.Rinv = np.zeros((m, 1)), np.zeros((m, m))
        self.eye = np.eye(n)
        self.k = 0
        self.gamma = 1.0

    def clear(self):
        self.k = 0

    def add(self, s, y, sy):
        S, Y, D, Rinv = self.S, self.Y, self.D, self.Rinv
        k = self.k
        if k == bell.LBFGS_MEMORY:
            k -= 1
            S[:k], Y[:k], D[:k] = S[1:], Y[1:], D[1:]
            Rinv[:k, :k] = Rinv[1:, 1:]
        if k:
            Rinv[:k, k] = Rinv[:k, :k].dot(S[:k].dot(y)) * (-1.0 / sy)
        Rinv[k, k] = 1.0 / sy
        S[k], Y[k], D[k] = s, y, sy
        self.k = k + 1
        self.gamma = sy / float(y.dot(y))

    def inverse_hessian(self):
        k = self.k
        P = self.Rinv[:k, :k].dot(self.S[:k])
        M = self.Y[:k].T.dot(P)
        M -= self.eye
        H = M.T.dot(M)
        H *= self.gamma
        H += P.T.dot(self.D[:k] * P)
        return H


def test_sliding_window_memory_gives_the_slice_move_inverse_hessian_bit_for_bit():
    # 300 random histories of up to 4 * LBFGS_MEMORY pairs, each cleared at
    # random points as a failed line search clears it; after every pair
    # the two memories must give the same H to the last bit
    rng = np.random.default_rng(13)
    n = 8
    wraps = 0
    for history in range(300):
        memory, ref = _CurvatureMemory(n), _SliceMoveMemory(n)
        spread = 1 if history % 2 else 8
        for _ in range(rng.integers(1, 4 * bell.LBFGS_MEMORY + 1)):
            if rng.uniform() < 0.03:
                memory.clear()
                ref.clear()
            while True:
                s = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 1)
                y = 10.0 ** rng.uniform(-spread, spread, n) * s
                y += 10.0 ** rng.uniform(-8, -1) * rng.normal(size=n) * np.linalg.norm(s)
                sy = float(s @ y)
                if sy > 0.0:
                    break
            offset = memory.o
            memory.add(s, y, sy)
            ref.add(s, y, sy)
            wraps += memory.o < offset
            assert memory.k == ref.k and memory.gamma == ref.gamma
            got, want = _inverse_hessian(memory), ref.inverse_hessian()
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), history
    # the window reaches the last row, and moves to the front, every
    # LBFGS_MEMORY pairs once the memory is full
    assert wraps >= 100, wraps


def _smooth_line(rng):
    """phi(t) of a random smooth 1-D function with a negative slope at 0,
    counting its calls; some rise so steeply that no trial finds a drop."""
    a, b, c = rng.uniform(0.1, 2.0), rng.uniform(0.5, 20.0), rng.uniform(-3.0, 3.0)
    q = 10.0 ** rng.uniform(-2, 4)
    slope0 = a * b * math.cos(c)
    lin = -abs(slope0) - 10.0 ** rng.uniform(-3, 1) - slope0
    calls = []

    def phi(t):
        calls.append(t)
        return (a * math.sin(b * t + c) + q * t * t + lin * t,
                a * b * math.cos(b * t + c) + 2.0 * q * t + lin, ("payload", t))

    f0, g0, _ = phi(0.0)
    calls.clear()
    return phi, f0, g0, calls


def test_line_search_resumes_from_a_supplied_first_trial():
    # a search given its first trial returns the bits of a fresh search
    # and spends the same number of trials, found or failed
    rng = np.random.default_rng(21)
    outcomes = set()
    for case in range(2000):
        phi, f0, g0, calls = _smooth_line(rng)
        stpmax = 10.0 ** rng.uniform(-2, 2)
        stp = min(1.0, stpmax)
        trials = int(rng.choice([1, 2, 3, 5, bell.LS_MAX_TRIALS]))
        fresh = bell._line_search(phi, f0, g0, stp, stpmax, trials)
        fresh_calls = list(calls)
        calls.clear()
        resumed = bell._line_search(phi, f0, g0, stp, stpmax, trials, phi(stp))
        assert calls == fresh_calls, case
        if fresh is None:
            assert resumed is None, case
        else:
            t, f, payload = resumed
            assert (t.hex(), f.hex(), payload) == (fresh[0].hex(), fresh[1].hex(), fresh[2]), case
        outcomes.add((fresh is None, len(fresh_calls) > 1))
    assert outcomes == {(True, True), (True, False), (False, True), (False, False)}


def test_mix_evaluation_counts_at_seed_0():
    # every member of the benchmark's mix at its start count, so that any
    # change to the iterates shows here
    counts = {
        "cat50-even-odd": (195, [57, 55, 34, 24, 25]),
        "coherent-even-odd": (153, [47, 14, 18, 30, 44]),
        "cat1-zero-nonzero": (357, [47, 31, 32, 31, 33, 40, 26, 27, 55, 35]),
        "family-0.6-even-odd": (127, [46, 16, 18, 23, 24]),
        "cat10-even-odd": (177, [62, 38, 18, 30, 29]),
        "family-1.2-even-odd": (108, [2, 35, 20, 24, 27]),
        "cat1-even-odd": (140, [47, 24, 21, 27, 21]),
        "squeezed-zero-nonzero": (152, [26, 32, 25, 33, 36]),
    }
    assert set(counts) == set(MIX)
    for label, (state, p, starts, _) in MIX.items():
        r = maximize_bell(state, p, MaximizeConfig(starts=starts, seed=0))
        assert (r.evaluations, r.per_start_nfev) == counts[label], label


def _model_target_with_cauchy_point(x, g, H, lower, upper):
    """The model target through B = H^-1 and the generalized Cauchy point
    on every call, as the search found it before the pin bound."""
    B = np.linalg.inv(H)
    xc, pinned = _cauchy_point(x, g, _breakpoints(x, g, lower, upper), B, lower, upper)
    if xc is None:
        return None
    if not pinned:
        target = x - H.dot(g)
    elif len(pinned) < len(x):
        free = np.ones(len(x), dtype=bool)
        free[pinned] = False
        target = xc.copy()
        target[free] += np.linalg.solve(B[free][:, free], -(g + B.dot(xc - x))[free])
    else:
        target = xc
    projected = np.minimum(np.maximum(target, lower), upper)
    if float((projected - x).dot(g)) <= 0.0:
        return projected
    du = target - xc
    return xc + min(1.0, _max_step(xc, du, lower, upper)) * du


def _random_curvature_memory(rng, n, spread):
    """A memory of 1 to 19 random pairs, each with its own curvature along
    each coordinate, from 10**-spread to 10**spread, and a noise term that
    can leave s'y small against |s| |y|."""
    memory = _CurvatureMemory(n)
    for _ in range(rng.integers(1, 2 * bell.LBFGS_MEMORY)):
        while True:
            s = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 1)
            y = 10.0 ** rng.uniform(-spread, spread, n) * s
            y += 10.0 ** rng.uniform(-8, -1) * rng.normal(size=n) * np.linalg.norm(s)
            sy = float(s @ y)
            if sy > 0.0:
                break
        memory.add(s, y, sy)
    return memory


def test_model_target_skips_the_cauchy_point_only_where_it_pins_nothing(monkeypatch):
    # The pin bound must not move a single target: against the route that
    # always inverts H and finds the Cauchy point, bit for bit, for H from
    # well- and ill-conditioned memories (condition numbers up to about
    # 1e13), x inside the box, within 1e-9 of a face and on a face, and
    # gradients that are random or near the extreme eigenvectors of H.
    # Every third interior case moves a face so that the first breakpoint
    # lies just above or below the bound g'Hg / g'g.
    calls = []

    def counted(*args):
        calls.append(1)
        return _cauchy_point(*args)

    monkeypatch.setattr(bell, "_cauchy_point", counted)
    rng = np.random.default_rng(10)
    n = 8
    interior = skipped = 0
    for case in range(3000):
        H = _inverse_hessian(_random_curvature_memory(rng, n, spread=1 if case % 2 else 8))
        lower, upper = np.full(n, -1.0), np.full(n, 1.0)
        x = rng.uniform(-0.9, 0.9, n)
        where = case % 3
        if where:
            i = rng.integers(n)
            x[i] = rng.choice([-1.0, 1.0]) * (1.0 if where == 2 else 1.0 - 10.0 ** rng.uniform(-12, -9))
        w, v = np.linalg.eigh(H)
        direction = rng.integers(3)
        if direction:
            g = v[:, 0 if direction == 1 else -1] + 10.0 ** rng.uniform(-16, -2) * rng.normal(size=n)
        else:
            g = rng.normal(size=n)
        # steps Hg from well inside the box to far beyond it
        g *= 10.0 ** rng.uniform(-4, 1) / w[-1]
        near_bound = where == 0 and case % 9 == 0
        if near_bound:
            rq = float(g @ H @ g) / float(g @ g)
            t = rq * (1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-16, -1))
            i = int(np.argmax(np.abs(g)))
            if g[i] > 0.0:
                lower[i] = x[i] - t * g[i]
            else:
                upper[i] = x[i] - t * g[i]
        try:
            ref = _model_target_with_cauchy_point(x, g, H, lower, upper)
        except np.linalg.LinAlgError:
            # H singular to LU, the one case where the routes may part:
            # there the search clears its memory, unless the bound holds
            # and the target is x - Hg
            continue
        calls.clear()
        got = bell._model_target(x, g, H, lower, upper)
        assert (got is None) == (ref is None), case
        if ref is not None:
            assert got[0].tobytes() == ref.tobytes(), case
        if where == 0 and not near_bound:
            interior += 1
            skipped += not calls
    assert skipped > 0.75 * interior, (skipped, interior)


def test_model_target_returns_the_step_and_slope_of_its_target(monkeypatch):
    # minimize takes the step p = target - x and its slope p'g from
    # _model_target as they are: they must be the bits it would form from
    # the target, on every route: the pin bound's skip, the projected
    # subspace step, and the fraction of the step from the Cauchy point
    # (the one route that calls _max_step)
    calls = []
    for name in ("_cauchy_point", "_max_step"):
        def counted(*args, name=name, original=getattr(bell, name)):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(bell, name, counted)
    rng = np.random.default_rng(11)
    n = 8
    routes = set()
    for case in range(1500):
        H = _inverse_hessian(_random_curvature_memory(rng, n, spread=1 if case % 2 else 8))
        lower, upper = np.full(n, -1.0), np.full(n, 1.0)
        x = rng.uniform(-0.9, 0.9, n)
        if case % 3:
            x[rng.integers(n)] = rng.choice([-1.0, 1.0])
        g = rng.normal(size=n) * 10.0 ** rng.uniform(-4, 1) / np.linalg.eigvalsh(H)[-1]
        calls.clear()
        try:
            got = bell._model_target(x, g, H, lower, upper)
        except np.linalg.LinAlgError:
            continue
        if got is None:
            continue
        target, p, slope = got
        assert p.tobytes() == (target - x).tobytes(), case
        assert slope.hex() == float(p.dot(g)).hex(), case
        routes.add(tuple(calls))
    assert routes == {(), ("_cauchy_point",), ("_cauchy_point", "_max_step")}


def test_maximize_reproduces_the_readme_maxima():
    # the README's quick-start cat and the squeezed example of criterion 3,
    # with their call counts, so that any change to the iterates shows here
    cat = maximize_bell(CatState(1.0, 1.0), EO, MaximizeConfig(starts=64, seed=0))
    assert f"{cat.f:.10f}" == "2.4693690878"
    assert all(cat.per_start_converged)
    assert cat.evaluations == 1836
    squeezed = maximize_bell(GaussianSpec(SQUEEZED_M), ZN, MaximizeConfig(starts=64, seed=0))
    assert f"{squeezed.f:.9f}" == "2.470926744"
    assert all(squeezed.per_start_converged)
    assert squeezed.evaluations == 2023


def test_start_point_is_numpys_default_generator_bit_for_bit():
    # the start points are numpy's SeedSequence + PCG64 draws, written out
    # so that a run need not import numpy.random; seeds of 2**32 and above
    # enter the seed sequence as several 32-bit words, beyond 2**96 as more
    # words than its pool holds
    draw = np.random.default_rng(4)
    seeds = [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**100 + 7, 2**200 + 11]
    while len(seeds) < 2000:
        seeds.append(int(draw.integers(2**63)) >> int(draw.integers(64)))
        seeds.append(int(draw.integers(2**63)) << int(draw.integers(1, 140)))
    boxes = [BOX, 1.0, float(draw.uniform(0.01, 10.0))]
    pairs = 0
    for k, seed in enumerate(seeds[:2000]):
        for index in range(2 * len(bell.START_SCALES)):
            box = boxes[(k + index) % len(boxes)]
            x0, scale = _start_point(seed, index, box)
            assert scale == box * bell.START_SCALES[index % len(bell.START_SCALES)]
            expected = np.random.default_rng([seed, index]).uniform(-scale, scale, 8)
            assert x0.tobytes() == expected.tobytes(), (seed, index, box)
            pairs += 1
    assert pairs == 20000


def _bell_value_grad(fn, box):
    """B and its gradient from the fused objective, which returns -B and
    the gradient of -B; negation is exact, so the bits are the objective's."""
    negative_b = _closed_form_objective(fn, box)

    def value(x):
        f, grad = negative_b(x)
        return -f, [-v for v in grad]

    return value


def _scipy_start(label, index, seed=0):
    """-B maximized by scipy's L-BFGS-B from one start of ``maximize_bell``,
    in the coordinates y with x = x0 + (scale / 2) y that the search uses."""
    state, p = MIX[label][:2]
    negative_b = _closed_form_objective(make_portrait_fn(state, p), BOX)
    x0, scale = _start_point(seed, index, BOX)
    h = scale / 2.0

    def fun(y):
        f, grad = negative_b((x0 + h * y).tolist())
        return f, h * np.asarray(grad)

    return sp.minimize(fun, np.zeros(8), jac=True, method="L-BFGS-B",
                       bounds=list(zip((-BOX - x0) / h, (BOX - x0) / h)),
                       options=dict(ftol=bell.FTOL, gtol=0.0, maxcor=bell.LBFGS_MEMORY,
                                    maxfun=CFG.max_iters))


@pytest.mark.parametrize("label", sorted(MIX))
def test_minimize_matches_scipy_on_the_maximize_mix(label, monkeypatch):
    # One cycle of the five start scales. With the step-growth cap lifted
    # both searches run the same iteration; rounding can still part long
    # searches on flat ground, where neither is converged beyond what ftol
    # asks: cat50-even-odd at seed 1, start 0 ends at B = 0.06347 after
    # about 100 calls on both sides, 5e-8 apart.
    monkeypatch.setattr(bell, "STEP_GROWTH", math.inf)
    state, p = MIX[label][:2]
    r = maximize_bell(state, p, MaximizeConfig(starts=5, seed=0))
    compared = 0
    for index, (f, converged) in enumerate(zip(r.per_start_best, r.per_start_converged)):
        ref = _scipy_start(label, index)
        if converged and ref.success:
            assert abs(f + ref.fun) <= 1e-9, (index, f, -ref.fun)
            compared += 1
    assert compared >= 4


@pytest.mark.parametrize("label", sorted(MIX))
def test_mix_reaches_its_reference_on_ten_seeds(label):
    # the benchmark counts a maximize that falls short of its reference by
    # more than 1e-3 as failed
    state, p, starts, ref = MIX[label]
    for seed in range(10):
        r = maximize_bell(state, p, MaximizeConfig(starts=starts, seed=seed))
        assert r.f >= ref - 1e-3, (seed, r.f)
        assert all(r.per_start_converged)
        if isinstance(state, CoherentProduct):
            assert r.f <= 2.0 + 1e-9


@pytest.mark.parametrize("seed", [232808102, 1419720530])
def test_cat1_zero_nonzero_reaches_its_reference_where_it_fell_short(seed):
    # without the step-growth cap all ten starts of these seeds ended on
    # faces of the box, the best at B = 1.99399
    state, p, starts, ref = MIX["cat1-zero-nonzero"]
    r = maximize_bell(state, p, MaximizeConfig(starts=starts, seed=seed))
    assert r.f >= ref - 1e-3


# --- the fused objective: value -------------------------------------------------


# a physical Gaussian (M >= I/2) whose quadratures all correlate, with a mean
_A = np.random.default_rng(8).normal(scale=0.4, size=(4, 4))
CORRELATED = GaussianSpec(0.5 * np.eye(4) + _A @ _A.T, mean=[0.3, -0.2, 0.1, 0.4])

FUSED_STATES = (
    CatState(1.0, 1.0),
    CatState(50, 50),
    CatState(math.sqrt(10), 1j),
    CoherentProduct(0.5, 0.5j),
    CoherentProduct(-1.0 + 0.3j, 0.2),
    gaussian_purity_family(1.2, 0.04),
    GaussianSpec(SQUEEZED_M),
    CatState(math.sqrt(50), math.sqrt(50)),
    CORRELATED,
)


def _edge_points(rng, count):
    """Points in the box with one to three coordinates on its edge."""
    out = []
    for _ in range(count):
        x = rng.uniform(-BOX, BOX, 8)
        pinned = rng.choice(8, size=rng.integers(1, 4), replace=False)
        x[pinned] = BOX * rng.choice([-1.0, 1.0], size=len(pinned))
        out.append(x)
    return out


def test_fused_objective_matches_bell_matrix_route():
    rng = np.random.default_rng(2024)
    # a separate generator keeps the 40 uniform points per state and
    # partition independent of the edge points
    edge_rng = np.random.default_rng(2025)
    for state in FUSED_STATES:
        for p in (EO, ZN):
            fn = make_portrait_fn(state, p)
            value = _bell_value_grad(fn, BOX)
            # a few coordinates fall outside the box and get clipped
            points = [rng.uniform(-1.25 * BOX, 1.25 * BOX, 8) for _ in range(40)]
            for x in points + _edge_points(edge_rng, 10):
                ref = bell_number(bell_matrix(fn, BellSettings.from_vector(np.clip(x, -BOX, BOX))))
                b, grad = value(x.tolist())
                assert abs(b - ref) <= 1e-14
                assert len(grad) == 8 and all(math.isfinite(v) for v in grad)


def test_fused_objective_raises_the_same_errors():
    fn = make_portrait_fn(CatState(1.0, 1.0), EO)
    value = _bell_value_grad(fn, BOX)
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
    assert abs(value(y)[0] - ref) <= 1e-14
    # det M >= 1/16 but not a physical state: the closed-form cells go
    # negative and the portrait check refuses them on both routes
    fake = make_portrait_fn(GaussianSpec(np.diag([0.1, 5.0, 0.1, 5.0])), EO)
    with pytest.raises(NumericalNegativity):
        _bell_value_grad(fake, BOX)(x)
    with pytest.raises(NumericalNegativity):
        bell_matrix(fake, BellSettings.from_vector(x))


ORACLE_STATES = {
    "cat1": CatState(1.0, 1.0),
    "cat-sqrt50": CatState(math.sqrt(50), math.sqrt(50)),
    "cat-vacuum-mode2": CatState(0.3j, 0.0),
    "coherent": CoherentProduct(0.5, 0.5j),
    "coherent-vacuum-mode2": CoherentProduct(-1.0 + 0.3j, 0.0),
    "squeezed": GaussianSpec(SQUEEZED_M),
    "family": gaussian_purity_family(1.2, 0.04),
    "correlated": CORRELATED,
    "tmsv-mean": two_mode_squeezed_vacuum(0.8, (0.3, -0.2, 0.1, 0.4)),
}


def _oracle_points(rng):
    """Settings inside the box, on its edges, beyond it (clipped), at zero
    displacement (with zeros of either sign) and near it."""
    points = [rng.uniform(-BOX, BOX, 8) for _ in range(30)] + _edge_points(rng, 10)
    points += [rng.uniform(-1.5 * BOX, 1.5 * BOX, 8) for _ in range(10)]
    points += [np.zeros(8), -np.zeros(8), rng.choice([0.0, -0.0, 0.5], 8)]
    points += [rng.uniform(-1.0, 1.0, 8) * 10.0 ** rng.uniform(-12, 0) for _ in range(10)]
    return [x.tolist() for x in points]


@pytest.mark.parametrize("p", [EO, ZN], ids=["even-odd", "zero-nonzero"])
@pytest.mark.parametrize("label", list(ORACLE_STATES))
def test_fused_route_matches_the_per_column_route_bit_for_bit(label, p):
    # The fused objective, its columns and gradients, and the values route
    # (bell_columns and the portrait call) against the per-column route
    # they replaced (tests/oracles.py), as float hex: the objective gives
    # -B and the gradient of -B, the route +B and the gradient of +B.
    state = ORACLE_STATES[label]
    fn, ref = make_portrait_fn(state, p), PerColumnPortrait(state, p.kind)
    negative_b = _closed_form_objective(fn, BOX)
    ref_value = per_column_objective(ref, BOX)

    def bits(values):
        return [float(v).hex() for v in values]

    rng = np.random.default_rng(sorted(ORACLE_STATES).index(label))
    for x in _oracle_points(rng):
        f, grad = negative_b(x)
        b, ref_grad = ref_value(x)
        assert bits([-f] + [-v for v in grad]) == bits([b] + ref_grad), x
        c = bell._clipped(x, BOX)
        columns, grads = fn.bell_columns_grad(c)
        a1, b1, a2, b2 = (complex(c[i], c[i + 1]) for i in range(0, 8, 2))
        pairs = ((a1, a2), (a1, b2), (b1, a2), (b1, b2))
        expected = [ref.column_grad(ref.mode1_grad(u), ref.mode2_grad(v)) for u, v in pairs]
        for got, want, column in zip(columns, expected, fn.bell_columns(BellSettings.from_vector(c))):
            assert bits(got) == bits(want[0]) == bits(column)
        assert [bits(g) for g in grads] == [bits(want[1]) for want in expected]
        s = BellSettings.from_vector(c)
        assert [bits(k) for k in fn.bell_columns(s)] == [bits(k) for k in ref.bell_columns(s)]
        assert bits(vars(fn(a1, b2)).values()) == bits(ref(a1, b2))


def test_fused_route_raises_what_the_per_column_route_raised():
    # the same error classes and messages for a NaN setting and for cells
    # that the portrait check refuses
    x = [0.1, -0.2, 0.3, 0.4, -0.5, 0.6, 0.7, -0.8]
    nan = list(x)
    nan[3] = math.nan
    fake = GaussianSpec(np.diag([0.1, 5.0, 0.1, 5.0]))
    cases = [(state, p, nan) for state in ORACLE_STATES.values() for p in (EO, ZN)]
    cases += [(fake, p, x) for p in (EO, ZN)]
    for state, p, point in cases:
        errors = []
        for value in (_closed_form_objective(make_portrait_fn(state, p), BOX),
                      per_column_objective(PerColumnPortrait(state, p.kind), BOX)):
            with pytest.raises((InvalidParameter, NumericalNegativity)) as err:
                value(point)
            errors.append((type(err.value), str(err.value)))
        assert errors[0] == errors[1], (state, p.kind)
    assert errors[0][0] is NumericalNegativity


def test_fused_objective_updates_the_high_water_mark(monkeypatch):
    monkeypatch.setattr(bell, "_bell_high_water", 0.0)
    value = _bell_value_grad(make_portrait_fn(CatState(1.0, 1.0), EO), BOX)
    b, _ = value([0.1, -0.2, 0.3, 0.4, -0.5, 0.6, 0.7, -0.8])
    assert b > 0.0
    assert get_bell_high_water() == b
    value([0.0] * 8)
    assert get_bell_high_water() >= b


def test_difference_objective_matches_nine_bell_numbers():
    # A truncated portrait takes the forward-difference route. Each probe
    # moves one setting, so it reuses two of the base point's columns: 20
    # portraits per call, and B and the gradient are those of nine
    # independent Bell numbers, bit for bit. On the edge of the box the
    # probe steps inward.
    fn = functools.partial(portrait_truncated, make_source(CatState(1.0, 1.0)), ZN,
                           nmax=15, tail_eps=1.0)
    calls = []

    def counted(a1, a2):
        calls.append((a1, a2))
        return fn(a1, a2)

    value = _difference_objective(counted, BOX)

    def bell_at(c):
        return bell_number(bell_matrix(fn, BellSettings.from_vector(c)))

    rng = np.random.default_rng(12)
    points = [rng.uniform(-BOX, BOX, 8) for _ in range(3)] + _edge_points(rng, 3)
    for x in points:
        c = x.tolist()
        calls.clear()
        f, grad = value(c)
        assert len(calls) == 20
        ref = bell_at(c)
        ref_grad = []
        for i, ci in enumerate(c):
            h = bell.FD_STEP * max(1.0, abs(ci))
            probe = list(c)
            probe[i] = ci + h if ci + h <= BOX else ci - h
            if abs(ci) == BOX:
                assert abs(probe[i]) < BOX
            ref_grad.append((bell_at(probe) - ref) / (probe[i] - ci))
        assert f == -ref
        assert grad == [-v for v in ref_grad]


# --- the fused objective: gradient ----------------------------------------------


def _central_difference(value, x, h=1e-6):
    out = []
    for i in range(8):
        up, down = list(x), list(x)
        up[i] += h
        down[i] -= h
        out.append((value(up)[0] - value(down)[0]) / (2.0 * h))
    return np.array(out)


def test_gradient_matches_central_differences():
    # the differences run on a larger box, so that probes around a point
    # on the edge of the search box are not clipped
    rng = np.random.default_rng(77)
    for state in FUSED_STATES:
        for p in (EO, ZN):
            fn = make_portrait_fn(state, p)
            value = _bell_value_grad(fn, BOX)
            wide = _bell_value_grad(fn, BOX + 1.0)
            points = [rng.uniform(-BOX, BOX, 8) for _ in range(6)] + _edge_points(rng, 4)
            for x in points:
                b, grad = value(x.tolist())
                if b < 1e-6:
                    continue  # |S| has a kink at S = 0
                ref = _central_difference(wide, x.tolist())
                # central differences err by about h^2 |B'''|, which the
                # 100-per-unit phases of CatState(50, 50) blow up
                tol = 1e-6 * max(1.0, float(np.max(np.abs(ref))))
                assert np.max(np.abs(np.array(grad) - ref)) <= tol, (state, p.kind, x)


# generating functions with every mode at its own point s_j, in mpmath


def _g_cat(state, s, alphas):
    gammas = (mpmath.mpc(complex(state.gamma1)), mpmath.mpc(complex(state.gamma2)))
    e_plus = e_minus = cross = mpmath.mpf(0)
    for sj, a, g in zip(s, alphas, gammas):
        e_plus += -(1 - sj) * abs(a + g) ** 2
        e_minus += -(1 - sj) * abs(a - g) ** 2
        cross += (-(abs(a) ** 2 + abs(g) ** 2) + sj * (abs(a) ** 2 - abs(g) ** 2)
                  - 2j * (1 - sj) * mpmath.im(mpmath.conj(a) * g))
    c = abs(gammas[0]) ** 2 + abs(gammas[1]) ** 2
    norm2 = 1 / (2 * (1 + mpmath.exp(-2 * c)))
    return norm2 * (mpmath.exp(e_plus) + mpmath.exp(e_minus) + 2 * mpmath.re(mpmath.exp(cross)))


def _g_coherent(state, s, alphas):
    gammas = (complex(state.gamma1), complex(state.gamma2))
    return mpmath.exp(sum(-(1 - sj) * abs(a + g) ** 2 for sj, a, g in zip(s, alphas, gammas)))


def _g_gaussian(spec, s, alphas):
    # kernel-order mean (q1, q2, p1, p2) of the displaced state, and
    # W = diag(1 - s) M + diag((1 + s) / 2) with s per (mode 1, mode 2, mode 1, mode 2)
    m = [mpmath.mpf(float(v)) for v in spec.mean]
    r2 = mpmath.sqrt(2)
    a1, a2 = alphas
    mu = mpmath.matrix([m[2] + r2 * mpmath.re(a1), m[3] + r2 * mpmath.re(a2),
                        m[0] + r2 * mpmath.im(a1), m[1] + r2 * mpmath.im(a2)])
    sv = (s[0], s[1], s[0], s[1])
    W = mpmath.matrix(4, 4)
    for i in range(4):
        for j in range(4):
            W[i, j] = (1 - sv[i]) * mpmath.mpf(float(spec.M[i, j])) + (i == j) * (1 + sv[i]) / 2
    k = mpmath.lu_solve(W, mpmath.matrix([(1 - sv[i]) * mu[i] for i in range(4)]))
    quad = sum(mu[i] * k[i] for i in range(4))
    return mpmath.exp(-quad / 2) / mpmath.sqrt(mpmath.det(W))


_G_MP = {CatState: _g_cat, CoherentProduct: _g_coherent, GaussianSpec: _g_gaussian}


def _bell_mp(state, p, x):
    """B at settings x from the generating function, in mpmath."""
    g = _G_MP[type(state)]
    s = mpmath.mpf(-1 if p.kind == "even-odd" else 0)
    a1, b1 = mpmath.mpc(x[0], x[1]), mpmath.mpc(x[2], x[3])
    a2, b2 = mpmath.mpc(x[4], x[5]), mpmath.mpc(x[6], x[7])

    def correlation(u, v):
        joint = g(state, (s, s), (u, v))
        if p.kind == "even-odd":
            return joint
        return 1 - 2 * g(state, (s, 1), (u, v)) - 2 * g(state, (1, s), (u, v)) + 4 * joint

    return abs(correlation(a1, a2) + correlation(a1, b2) + correlation(b1, a2) - correlation(b1, b2))


@pytest.mark.parametrize("state", [
    CatState(1.0, 1.0),
    CatState(50, 50),
    CatState(math.sqrt(50), math.sqrt(50)),
    CoherentProduct(-1.0 + 0.3j, 0.2),
    gaussian_purity_family(1.2, 0.04),
    GaussianSpec(SQUEEZED_M),
    CORRELATED,
], ids=["cat1", "cat50x50", "cat-sqrt50", "coherent", "family", "squeezed", "correlated"])
@pytest.mark.parametrize("p", [EO, ZN], ids=["even-odd", "zero-nonzero"])
def test_gradient_matches_mpmath(state, p):
    rng = np.random.default_rng(5)
    value = _bell_value_grad(make_portrait_fn(state, p), BOX)
    points = [rng.uniform(-BOX, BOX, 8)] + _edge_points(rng, 1)
    with mpmath.workdps(30):
        for x in points:
            b, grad = value(x.tolist())
            xs = [mpmath.mpf(float(v)) for v in x]
            assert abs(b - float(_bell_mp(state, p, xs))) <= 1e-13
            if b < 1e-6:
                continue
            for i in range(8):
                def along(t, i=i):
                    y = list(xs)
                    y[i] += t
                    return _bell_mp(state, p, y)

                ref = float(mpmath.diff(along, 0))
                assert abs(grad[i] - ref) <= 1e-10 * max(1.0, abs(ref)), (i, grad[i], ref)
