"""Photon-number tables: the Gaussian series expansion and the coherent
superposition table against their earlier forms, the caches behind the
tables, and the checks on nmax."""

import gc
import math
import weakref

import numpy as np
import pytest

from tomobell import portrait, states
from tomobell.bell import MaximizeConfig
from tomobell.errors import InvalidParameter, NumericalNegativity, UnsupportedState
from tomobell.portrait import PartitionScheme, make_portrait_fn, portrait_truncated
from tomobell.states import (
    CatState,
    CoherentProduct,
    GaussianSpec,
    TomogramSource,
    cat_tomogram,
    coherent_superposition_table,
    coherent_tomogram,
    gaussian_effective_mean,
    gaussian_purity_family,
    gaussian_tomogram,
    gaussian_tomogram_table,
    make_source,
)

from oracles import (
    SQUEEZED_M,
    mp_superposition_tomogram,
    outer_product_superposition_table,
    random_physical_gaussian,
    two_mode_squeezed_vacuum,
)


# --- the series expansion as it was written before its per-call overhead
# was cut: the reference that the library's table must keep to -------------


def _reference_s2_multipliers(rows, n):
    """T[i, r, j] = rows[r][i - j] (0 for j > i), through a sliding window."""
    rows = np.atleast_2d(rows)[:, : n + 1]
    z = np.zeros((len(rows), 2 * n + 1))
    z[:, n : n + rows.shape[1]] = rows
    # windows[r, i, m] = z[r, i + m], and i + (n - j) indexes rows[r][i - j]
    windows = np.lib.stride_tricks.sliding_window_view(z, n + 1, axis=1)
    return np.ascontiguousarray(windows[:, :, ::-1].transpose(1, 0, 2))


def _reference_exp_series(e):
    n = len(e) - 1
    de = e[1:] * np.arange(1, n + 1)
    f = np.zeros(n + 1)
    f[0] = math.exp(e[0])
    for k in range(n):
        f[k + 1] = de[: k + 1] @ f[k::-1] / (k + 1)
    return f


def _reference_table(g, alpha1, alpha2, n):
    """``gaussian_tomogram_table`` on numpy arrays throughout, one row at a time."""
    delta, A = g._generating_polynomials
    mu = gaussian_effective_mean(g, alpha1, alpha2)
    N = np.einsum("i,ijab,j->ab", mu, A, mu)
    d_rows = _reference_s2_multipliers(delta, n)
    n_rows = _reference_s2_multipliers(N, n)
    d00, d01, d02 = delta[0]
    r0 = np.zeros(n + 1)
    r0[0] = 1.0 / d00
    for k in range(1, n + 1):
        r0[k] = -(d01 * r0[k - 1] + (d02 * r0[k - 2] if k >= 2 else 0.0)) / d00
    inv0 = _reference_s2_multipliers(r0, n)[:, 0]
    q1, q2 = inv0 @ d_rows[:, 1], inv0 @ d_rows[:, 2]
    R = np.zeros((n + 1, n + 1))
    R[0] = r0
    for k in range(1, n + 1):
        R[k] = -(q1 @ R[k - 1])
        if k >= 2:
            R[k] -= q2 @ R[k - 2]
    L = np.zeros((n + 1, n + 1))
    L[0, 0] = math.log(d00)
    s2_r0 = np.concatenate(([0.0], r0[:-1]))
    L[0, 1:] = (d01 * r0 + 2.0 * d02 * s2_r0)[:-1] / np.arange(1, n + 1)
    dlog = R @ d_rows[:, 1].T
    dlog[1:] += 2.0 * R[:-1] @ d_rows[:, 2].T
    L[1:] = dlog[:-1] / np.arange(1, n + 1)[:, None]
    NR = R @ n_rows[:, 0].T
    NR[1:] += R[:-1] @ n_rows[:, 1].T
    NR[2:] += R[:-2] @ n_rows[:, 2].T
    E = -0.5 * (NR + L)
    dE = _reference_s2_multipliers(E[1:] * np.arange(1, n + 1)[:, None], n).reshape(n + 1, -1)
    P = np.zeros((n + 1, n + 1))
    P[n] = _reference_exp_series(E[0])
    for k in range(n):
        P[n - k - 1] = dE[:, : (k + 1) * (n + 1)] @ P[n - k:].ravel() / (k + 1)
    w = P[::-1]
    if not np.all(np.isfinite(w)):
        raise NumericalNegativity("gaussian tomogram table is not finite")
    low = float(w.min())
    if low < -states.NEGATIVITY_TOL_HERMITE:
        raise NumericalNegativity(f"gaussian tomogram table hit {low:.6e}")
    return np.clip(w, 0.0, None)


def _physical_gaussian(rng):
    """A squeezed, beam-split thermal state: M = S M0 S^T with S symplectic."""
    n1, n2 = rng.uniform(0.0, 0.5, 2)
    r1, r2 = rng.uniform(-0.6, 0.6, 2)
    th = rng.uniform(0.0, math.pi / 2)
    rot = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    s = np.zeros((4, 4))
    s[:2, :2] = rot @ np.diag([math.exp(r1), math.exp(r2)])
    s[2:, 2:] = rot @ np.diag([math.exp(-r1), math.exp(-r2)])
    m = s @ np.diag([n1 + 0.5, n2 + 0.5, n1 + 0.5, n2 + 0.5]) @ s.T
    return GaussianSpec(0.5 * (m + m.T), rng.uniform(-1.0, 1.0, 4))


# --- the table as it was written before the spec kept 1/Delta and
# log Delta: the library's table must keep its bits -------------------------


def _parent_table(g, alpha1, alpha2, n):
    """``gaussian_tomogram_table`` recomputing every series per call."""
    delta, A = g._generating_polynomials
    mu = gaussian_effective_mean(g, alpha1, alpha2)
    N = np.einsum("i,ijab,j->ab", mu, A, mu)
    d00, d01, d02 = delta[0].tolist()
    r0 = [1.0 / d00]
    for k in range(1, n + 1):
        r0.append(-(d01 * r0[k - 1] + (d02 * r0[k - 2] if k >= 2 else 0.0)) / d00)
    dn_rows = states._s2_multipliers(np.concatenate((delta, N)), n)
    d_rows, n_rows = dn_rows[:, :3], dn_rows[:, 3:]
    inv0 = states._s2_multipliers(r0, n)[:, 0]
    neg_q1, q2 = -(inv0 @ d_rows[:, 1]), inv0 @ d_rows[:, 2]
    R = np.zeros((n + 1, n + 1))
    R[0] = r0
    q2_term = np.empty(n + 1)
    for k in range(1, n + 1):
        row = R[k]
        neg_q1.dot(R[k - 1], out=row)
        if k >= 2:
            row -= q2.dot(R[k - 2], out=q2_term)
    L = np.zeros((n + 1, n + 1))
    L[0, 0] = math.log(d00)
    L[0, 1:] = [
        (d01 * r0[k] + 2.0 * d02 * (r0[k - 1] if k else 0.0)) / (k + 1) for k in range(n)
    ]
    dlog = R @ d_rows[:, 1].T
    dlog[1:] += 2.0 * R[:-1] @ d_rows[:, 2].T
    L[1:] = dlog[:-1] / np.arange(1, n + 1)[:, None]
    NR = R @ n_rows[:, 0].T
    NR[1:] += R[:-1] @ n_rows[:, 1].T
    NR[2:] += R[:-2] @ n_rows[:, 2].T
    E = -0.5 * (NR + L)
    dE = states._s2_multipliers(E[1:] * np.arange(1, n + 1)[:, None], n).reshape(n + 1, -1)
    P = np.zeros((n + 1, n + 1))
    P[n] = states._exp_series(E[0].tolist())
    for k in range(n):
        P[n - k - 1] = dE[:, : (k + 1) * (n + 1)] @ P[n - k:].ravel() / (k + 1)
    w = P[::-1]
    low, high = float(w.min()), float(w.max())
    if not (math.isfinite(low) and math.isfinite(high)):
        raise NumericalNegativity("gaussian tomogram table is not finite")
    if low < -states.NEGATIVITY_TOL_HERMITE:
        raise NumericalNegativity(f"gaussian tomogram table hit {low:.6e}")
    return np.clip(w, 0.0, None)


def _table_or_refusal(g, a1, a2, n, table=gaussian_tomogram_table):
    """The table's int64 view, or None where it is refused."""
    try:
        return table(g, a1, a2, n).view(np.int64)
    except NumericalNegativity:
        return None


def test_gaussian_table_keeps_the_parent_bits_cold_and_warm():
    # per draw, one spec fills its series in rising nmax and another in
    # falling nmax; on the first setting pair every series is new (cold),
    # on the others the spec holds them all (warm)
    rng = np.random.default_rng(171)
    specs = [GaussianSpec(SQUEEZED_M)]
    specs += [gaussian_purity_family(rng.uniform(0.6, 1.0), rng.uniform(0.0, 0.05))
              for _ in range(4)]
    specs += [_physical_gaussian(rng) for _ in range(6)]
    specs += [two_mode_squeezed_vacuum(r, rng.uniform(-1.0, 1.0, 4)) for r in (0.3, 0.7, 1.1, 1.4)]
    nmaxes = (0, 1, 2, 15, 30)
    refused = compared = 0
    for spec in specs:
        rising, falling = (GaussianSpec(spec.M, spec.mean) for _ in range(2))
        for scale in (0.35, 2.0):
            for _ in range(3):
                a1, a2 = (complex(*rng.uniform(-scale, scale, 2)) for _ in range(2))
                want = {n: _table_or_refusal(spec, a1, a2, n, _parent_table) for n in nmaxes}
                got = {n: _table_or_refusal(rising, a1, a2, n) for n in nmaxes}
                got_falling = {n: _table_or_refusal(falling, a1, a2, n) for n in nmaxes[::-1]}
                for n in nmaxes:
                    for table in (got[n], got_falling[n]):
                        if want[n] is None:
                            assert table is None, (spec, a1, a2, n)
                            refused += 1
                        else:
                            assert table is not None and np.array_equal(table, want[n]), (
                                spec, a1, a2, n)
                            compared += 1
    # both outcomes are exercised
    assert refused > 0 and compared > 0


# 2^-922, below which the series lose their rounding noise
NOISE_FLOOR = 2.0 ** -922


def test_noise_floor_moves_no_table_entry_above_1e_250():
    # the unflushed parent table against the library's: the paper's squeezed
    # example, whose Delta carries rounding noise, at worked-example and box
    # scale; squeezed vacua down to r = 0.001, with and without a mean; pure
    # and mixed physical draws
    rng = np.random.default_rng(31)
    specs = [GaussianSpec(SQUEEZED_M)]
    specs += [two_mode_squeezed_vacuum(r, mean) for r in (0.001, 0.01, 0.4, 1.1)
              for mean in (None, rng.uniform(-1.0, 1.0, 4))]
    specs += [GaussianSpec(*random_physical_gaussian(rng, max_nu=max_nu))
              for max_nu in (0.5, 0.5, 0.5, 1.5, 1.5, 1.5)]
    refused = compared = moved = 0
    for spec in specs:
        settings = [(-0.12j, 0.04j), (1.5 - 1j, -0.7 + 1.8j)]
        settings += [tuple(complex(*rng.uniform(-scale, scale, 2)) for _ in range(2))
                     for scale in (0.35, 2.0)]
        for a1, a2 in settings:
            for n in (0, 1, 2, 15, 30, 45):
                want = _table_or_refusal(spec, a1, a2, n, _parent_table)
                got = _table_or_refusal(GaussianSpec(spec.M, spec.mean), a1, a2, n)
                if want is None:
                    assert got is None, (spec, a1, a2, n)
                    refused += 1
                    continue
                assert got is not None, (spec, a1, a2, n)
                compared += 1
                if n <= 30:
                    assert np.array_equal(got, want), (spec, a1, a2, n)
                    continue
                got, want = got.view(float), want.view(float)
                assert np.array_equal(got[want > 1e-250], want[want > 1e-250]), (spec, a1, a2, n)
                assert np.max(np.abs(got - want)) <= NOISE_FLOOR * (n + 1), (spec, a1, a2, n)
                moved += not np.array_equal(got, want)
    # both outcomes are exercised, and the floor moves a tiny entry at 45
    assert refused > 0 and compared > 0 and moved > 0


@pytest.mark.parametrize("n", [0, 1, 2, 15, 30])
def test_s2_multipliers_are_the_sliding_window_ones_bit_for_bit(n):
    rng = np.random.default_rng(n)
    for count in (1, 3, 6, max(n, 1)):
        for length in {1, max(n, 1), n + 1, n + 2, 2 * n + 5}:
            rows = rng.normal(size=(count, length)) * 10.0 ** rng.uniform(-300, 300, (count, 1))
            got = states._s2_multipliers(rows, n)
            want = _reference_s2_multipliers(rows, n)
            assert got.shape == want.shape == (n + 1, count, n + 1)
            assert got.flags.c_contiguous
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
    # a single series given as a flat list, as the R_0 row is
    r0 = rng.normal(size=n + 1).tolist()
    assert np.array_equal(states._s2_multipliers(r0, n).view(np.int64),
                          _reference_s2_multipliers(np.array(r0), n).view(np.int64))


def test_gaussian_table_matches_the_reference_expansion():
    rng = np.random.default_rng(151)
    specs = [GaussianSpec(SQUEEZED_M)]
    specs += [gaussian_purity_family(rng.uniform(0.6, 1.0), rng.uniform(0.0, 0.05))
              for _ in range(6)]
    specs += [_physical_gaussian(rng) for _ in range(12)]
    refused = compared = 0
    for g in specs:
        for scale in (0.35, 2.0):
            for _ in range(3):
                a1, a2 = (complex(*rng.uniform(-scale, scale, 2)) for _ in range(2))
                for n in (0, 1, 2, 15, 30):
                    try:
                        want = _reference_table(g, a1, a2, n)
                    except NumericalNegativity:
                        with pytest.raises(NumericalNegativity):
                            gaussian_tomogram_table(g, a1, a2, n)
                        refused += 1
                        continue
                    got = gaussian_tomogram_table(g, a1, a2, n)
                    assert got.shape == (n + 1, n + 1)
                    assert np.max(np.abs(got - want)) <= 1e-13
                    compared += 1
    # both outcomes are exercised
    assert refused > 0 and compared > 0


@pytest.mark.filterwarnings("error")
def test_gaussian_table_refuses_a_non_finite_table():
    # at displacements this large the setting's quadratic form N leaves the
    # float range, and the series would turn it into inf and nan: the table
    # raises OverflowError, as the closed forms do, before any numpy warning
    g = gaussian_purity_family(0.9, 0.0)
    for a1 in (1e200, 1e154, 1e170j):
        with pytest.raises(OverflowError, match="quadratic form leaves the float range"):
            gaussian_tomogram_table(g, a1, 0j, 5)


# --- the coherent superposition table: one exp for every Fock row and one
# matrix product, against the outer products it replaced ------------------


def _superposition_draws(rng, count):
    """Seeded cats and coherent products (|gamma_j| up to about 3), each
    with settings at the worked-example scale (|Re|, |Im| <= 0.35) or
    across the box (<= 2)."""
    for i in range(count):
        size = rng.uniform(0.0, 3.0)
        gammas = [complex(*rng.uniform(-1.0, 1.0, 2)) * size / math.sqrt(2) for _ in range(2)]
        state = (CatState if i % 2 else CoherentProduct)(*gammas)
        scale = 0.35 if (i // 2) % 2 else 2.0
        yield state, complex(*rng.uniform(-scale, scale, 2)), complex(*rng.uniform(-scale, scale, 2))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("nmax", [0, 1, 15, 30])
def test_superposition_table_matches_the_outer_product_table(nmax):
    for state, a1, a2 in _superposition_draws(np.random.default_rng(290 + nmax), 200):
        got = coherent_superposition_table(state, a1, a2, nmax)
        want = outer_product_superposition_table(state, a1, a2, nmax)
        assert got.shape == (nmax + 1, nmax + 1)
        assert np.max(np.abs(got - want)) <= 2e-15, (state, a1, a2)


# a branch at the vacuum, the vacuum cat at the origin, and a cat whose
# second branch lies near |mu| = 38, where exp(-|mu|^2/2) is subnormal and
# its low rows underflow
SUPERPOSITION_EDGES = {
    "branch at the vacuum": (CatState(0.8 - 0.3j, 0.5j), -0.8 + 0.3j, 0.2 + 0.1j),
    "vacuum cat": (CatState(0, 0), 0j, 0j),
    "rows underflow": (CatState(18 + 6j, 0.4j), -20 + 2j, 0.3 - 0.2j),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("edge", list(SUPERPOSITION_EDGES))
def test_superposition_table_edges_match_the_scalar_and_the_closed_product(edge):
    state, a1, a2 = SUPERPOSITION_EDGES[edge]
    nmax = 30
    table = coherent_superposition_table(state, a1, a2, nmax)
    scalar = np.array([[cat_tomogram(state, i, j, a1, a2) for j in range(nmax + 1)]
                       for i in range(nmax + 1)])
    assert np.max(np.abs(table - scalar)) <= 1e-14
    exact = np.array([[mp_superposition_tomogram(state, i, j, a1, a2)
                       for j in range(nmax + 1)] for i in range(nmax + 1)])
    big = exact > 1e-300
    assert big.any()
    assert np.max(np.abs(table[big] - exact[big]) / exact[big]) <= 1e-12
    assert np.max(np.abs(table - outer_product_superposition_table(state, a1, a2, nmax))) <= 2e-15


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("nmax", [0, 1, 15, 30])
def test_superposition_scalar_is_its_table_entry(nmax):
    # the scalar evaluates the table's own rows at one entry; the edges add a
    # cat branch and a coherent product at the vacuum, and the vacuum cat
    draws = list(_superposition_draws(np.random.default_rng(300 + nmax), 40))
    draws += [*SUPERPOSITION_EDGES.values(), (CoherentProduct(0.3, 0.5j), -0.3, 0.2 - 0.1j)]
    for state, a1, a2 in draws:
        scalar = cat_tomogram if isinstance(state, CatState) else coherent_tomogram
        entries = [[scalar(state, i, j, a1, a2) for j in range(nmax + 1)] for i in range(nmax + 1)]
        table = coherent_superposition_table(state, a1, a2, nmax)
        assert np.max(np.abs(table - entries)) <= 1e-15, (state, a1, a2)


@pytest.mark.filterwarnings("error")
def test_superposition_table_raises_where_it_did():
    # the settings' checks come before the state's, and a square that
    # leaves the float range raises before numpy sees an infinity
    cat = CatState(1, 1)
    with pytest.raises(InvalidParameter, match="nmax"):
        coherent_superposition_table(object(), math.nan, math.nan, -1)
    with pytest.raises(InvalidParameter, match="alpha1"):
        coherent_superposition_table(object(), math.nan, math.nan, 3)
    with pytest.raises(InvalidParameter, match="alpha2"):
        coherent_superposition_table(object(), 0j, math.inf, 3)
    with pytest.raises(UnsupportedState):
        coherent_superposition_table(GaussianSpec(SQUEEZED_M), 0j, 0j, 3)
    for state, a1, a2 in ((cat, 1e200, 0j), (cat, 0j, 2e154j), (CatState(1e200, 1), 0j, 0j),
                          (CoherentProduct(0.5, 0.5j), 1e200, 0j)):
        with pytest.raises(OverflowError):
            coherent_superposition_table(state, a1, a2, 5)


def test_table_caches_are_bounded_and_read_only():
    coherent_superposition_table(CatState(0.5, 0.3j), 0j, 0j, 7)
    portrait_truncated(make_source(CoherentProduct(0.5, 0.3j)), PartitionScheme(2, "even"),
                       0j, 0j, 7, tail_eps=1.0)
    for cache in (states._fock_exponents, portrait._cell_masks):
        assert cache.cache_info().maxsize is not None
    n, neg_half_log_fact = states._fock_exponents(7)
    assert not n.flags.writeable and not neg_half_log_fact.flags.writeable
    assert np.array_equal(n, range(8))
    assert np.array_equal(neg_half_log_fact, [-0.5 * math.lgamma(k + 1) for k in range(8)])
    # a bad nmax is refused before the cache keyed by nmax is consulted
    info = states._fock_exponents.cache_info()
    with pytest.raises(ValueError):
        coherent_superposition_table(CatState(0.5, 0.3j), 0j, 0j, 7.5)
    assert states._fock_exponents.cache_info() == info
    rows1, cols2 = portrait._cell_masks(2, "even", 7)
    assert not rows1.flags.writeable and not cols2.flags.writeable
    m1, m2 = PartitionScheme(2, "even").masks(7)
    assert np.array_equal(rows1, [m1, ~m1]) and np.array_equal(cols2, np.transpose([m2, ~m2]))


def test_generating_polynomials_are_read_only():
    # every table of a spec shares them, so a write would corrupt them all
    g = GaussianSpec(SQUEEZED_M)
    before = gaussian_tomogram_table(g, 0.1j, 0.2, 6)
    for poly in g._generating_polynomials:
        assert not poly.flags.writeable
        with pytest.raises(ValueError):
            poly[(0,) * poly.ndim] = 1.0
    assert np.array_equal(gaussian_tomogram_table(g, 0.1j, 0.2, 6), before)


class _EntryByEntry(TomogramSource):
    """A user source that holds a Gaussian spec: its table is filled from
    the spec's scalar tomogram."""

    def __init__(self, state):
        self.state = state

    def tomogram(self, n1, n2, alpha1, alpha2):
        return gaussian_tomogram(self.state, n1, n2, alpha1, alpha2)


def test_series_cache_is_per_spec_bounded_read_only_and_keyed_by_nmax():
    g = GaussianSpec(SQUEEZED_M)
    cache = g._series_cache
    # one entry per nmax, whatever the settings and the integer type
    gaussian_tomogram_table(g, 0j, 0j, 7)
    series = cache[7]
    for a1, a2 in ((0.3j, -0.1), (1.5 - 2j, 0.7j)):
        gaussian_tomogram_table(g, a1, a2, np.int64(7))
    assert list(cache) == [7] and cache[7] is series
    assert all(type(n) is int for n in cache)
    # read-only, and no subnormal entry, even where the squeezed example's
    # rounding noise in Delta would leave some at nmax 30
    gaussian_tomogram_table(g, -0.12j, 0.04j, 30)
    for x in (*cache[7], *cache[30]):
        assert not x.flags.writeable
        assert not np.any((x != 0.0) & (np.abs(x) < np.finfo(float).tiny))
    # bounded, the oldest entry going first
    h, size = GaussianSpec(SQUEEZED_M), states.DELTA_SERIES_CACHE_SIZE
    for n in range(size + 5):
        gaussian_tomogram_table(h, 0j, 0j, n)
    assert list(h._series_cache) == list(range(5, size + 5))
    # the entry-by-entry default cycles through every nmax up to its own,
    # and the cache holds all of them at DEFAULT_NMAX
    source = _EntryByEntry(GaussianSpec(SQUEEZED_M))
    source.tomogram_table(0.1j, 0.05, states.DEFAULT_NMAX)
    assert sorted(source.state._series_cache) == list(range(states.DEFAULT_NMAX + 1))
    # the cache lives on the spec and goes with it
    spec = weakref.ref(g)
    del g, cache, series
    gc.collect()
    assert spec() is None


class _Listed(TomogramSource):
    """A user source: its table is filled entry by entry."""

    def tomogram(self, n1, n2, alpha1, alpha2):
        return 0.0


@pytest.mark.parametrize("nmax", [2.5, True, 2.0, "2"])
def test_tables_refuse_a_non_integer_nmax(nmax):
    tables = [
        lambda: gaussian_tomogram_table(GaussianSpec(SQUEEZED_M), 0j, 0j, nmax),
        lambda: coherent_superposition_table(CatState(0.5, 0.3j), 0j, 0j, nmax),
        lambda: make_source(CatState(0.5, 0.3j)).tomogram_table(0j, 0j, nmax),
        lambda: make_source(GaussianSpec(SQUEEZED_M)).tomogram_table(0j, 0j, nmax),
        lambda: _Listed().tomogram_table(0j, 0j, nmax),
    ]
    for table in tables:
        with pytest.raises(ValueError, match="nmax must be an integer"):
            table()


def test_tables_take_numpy_integers_and_refuse_negative_nmax():
    g, cat = GaussianSpec(SQUEEZED_M), CatState(0.5, 0.3j)
    assert np.array_equal(gaussian_tomogram_table(g, 0.1j, 0j, np.int64(4)),
                          gaussian_tomogram_table(g, 0.1j, 0j, 4))
    assert np.array_equal(coherent_superposition_table(cat, 0.1j, 0j, np.int32(4)),
                          coherent_superposition_table(cat, 0.1j, 0j, 4))
    assert _Listed().tomogram_table(0j, 0j, np.int64(2)).shape == (3, 3)
    for table in (lambda: gaussian_tomogram_table(g, 0j, 0j, -1),
                  lambda: coherent_superposition_table(cat, 0j, 0j, -1)):
        with pytest.raises(ValueError, match="nmax must be >= 0"):
            table()


@pytest.mark.parametrize("bad", [2.5, True, -1])
def test_a_bad_nmax_is_one_error_class_on_every_route(bad):
    # one integer check guards every nmax: its refusal is an
    # InvalidParameter, which is also a ValueError
    cat, zn = CatState(0.5, 0.3j), PartitionScheme.zero_nonzero()
    routes = [
        lambda: gaussian_tomogram_table(GaussianSpec(SQUEEZED_M), 0j, 0j, bad),
        lambda: coherent_superposition_table(cat, 0j, 0j, bad),
        lambda: make_source(cat).tomogram_table(0j, 0j, bad),
        lambda: make_source(GaussianSpec(SQUEEZED_M)).tomogram_table(0j, 0j, bad),
        lambda: _Listed().tomogram_table(0j, 0j, bad),
        lambda: portrait_truncated(make_source(cat), zn, 0j, 0j, bad),
        lambda: make_portrait_fn(cat, zn, nmax=bad),
        lambda: MaximizeConfig(nmax=bad),
    ]
    for route in routes:
        with pytest.raises(InvalidParameter, match="nmax must be") as info:
            route()
        assert isinstance(info.value, ValueError)
