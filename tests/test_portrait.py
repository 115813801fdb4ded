"""Partition schemes, portrait vectors, and the closed-form evaluators."""

import copy
import math
import pickle

import numpy as np
import pytest

from tomobell.bell import BellSettings
from tomobell.errors import (
    InvalidParameter,
    NumericalNegativity,
    TailTooLarge,
    UnsupportedState,
)
from tomobell.portrait import (
    PartitionScheme,
    PortraitVector,
    cat_portrait_even_odd,
    cat_portrait_zero_nonzero,
    coherent_portrait_even_odd,
    coherent_portrait_zero_nonzero,
    GaussianPortraitContext,
    make_portrait_fn,
    portrait_truncated,
)
from tomobell.states import (
    DEFAULT_BOX,
    CatState,
    CoherentProduct,
    GaussianSpec,
    TomogramSource,
    cat_tomogram,
    coherent_superposition_table,
    gaussian_purity_family,
    gaussian_tomogram,
    gaussian_tomogram_table,
    make_source,
)

from oracles import (
    SQUEEZED_M,
    FockOracleSource,
    PerColumnPortrait,
    random_physical_gaussian,
    two_mode_squeezed_vacuum,
)
from test_tables import _physical_gaussian

CLOSED_VS_TRUNCATED_TOL = 1e-8
FACTORIZATION_TOL = 1e-12

rng = np.random.default_rng(55)

def _random_amplitude(scale=1.0):
    return complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale))


def _nonproduct_cell_sums(table, cell_of):
    """Reduction over an arbitrary cell labeling, one table entry at a time.

    Non-product partitions are deliberately not constructible through
    ``PartitionScheme``: summing a tomogram over cells that do not factor
    as A1 x A2 yields a four-vector that is not a two-qubit distribution.
    With a product labeling this is also an entry-by-entry oracle for the
    truncated portrait.
    """
    out = np.zeros(4)
    n = table.shape[0]
    for i in range(n):
        for j in range(n):
            out[cell_of(i, j)] += table[i, j]
    return out


# --- partitions --------------------------------------------------------------


def test_partition_masks():
    zn = PartitionScheme.zero_nonzero()
    m1, m2 = zn.masks(4)
    assert list(m1) == [True, False, False, False, False]
    assert list(m2) == [True, False, False, False, False]
    eo = PartitionScheme.even_odd()
    m1, m2 = eo.masks(4)
    assert list(m1) == [True, False, True, False, True]


def test_partition_from_config_names():
    assert PartitionScheme.from_config("even-odd").kind == "even-odd"
    assert PartitionScheme.from_config("Even_Odd").kind == "even-odd"
    assert PartitionScheme.from_config("zero-nonzero").kind == "zero-nonzero"
    with pytest.raises(InvalidParameter):
        PartitionScheme.from_config("bands")
    with pytest.raises(InvalidParameter, match="cannot build a partition"):
        PartitionScheme.from_config(["even", "even"])


def test_partition_from_config_rules():
    p = PartitionScheme.from_config({"mode1": "zero", "mode2": "even"})
    m1, m2 = p.masks(3)
    assert list(m1) == [True, False, False, False]
    assert list(m2) == [True, False, True, False]
    t = PartitionScheme.from_config({"mode1": {"threshold": 2}, "mode2": "zero"})
    m1, _ = t.masks(4)
    assert list(m1) == [True, True, True, False, False]
    with pytest.raises(InvalidParameter):
        PartitionScheme.from_config({"mode1": "prime", "mode2": "zero"})


def test_partition_from_config_canonical_rule_pairs():
    # the rule pairs that spell a canonical partition get its closed form,
    # not the truncated path with its tail deficit and refusals
    state = CatState(2.5, 2.5)
    for rule, canonical in (("zero", PartitionScheme.zero_nonzero()),
                            ("even", PartitionScheme.even_odd())):
        p = PartitionScheme.from_config({"mode1": rule, "mode2": rule})
        assert p.kind == canonical.kind
        v = make_portrait_fn(state, p)(1.5, 1.5)
        assert v.tail_deficit == 0.0
        assert v == make_portrait_fn(state, canonical)(1.5, 1.5)


def test_partition_from_config_zero_threshold_is_zero_rule():
    # {"threshold": 0} keeps only n = 0, the "zero" rule, so two of them
    # spell the zero-nonzero partition and get its closed form
    state = CatState(2.5, 2.5)
    canonical = make_portrait_fn(state, PartitionScheme.zero_nonzero())(1.5, 1.5)
    for rules in ({"mode1": {"threshold": 0}, "mode2": {"threshold": 0}},
                  {"mode1": "zero", "mode2": {"threshold": 0}}):
        p = PartitionScheme.from_config(rules)
        assert p.kind == "zero-nonzero"
        assert make_portrait_fn(state, p)(1.5, 1.5) == canonical
    t = PartitionScheme.from_config({"mode1": {"threshold": 1}, "mode2": {"threshold": 0}})
    assert t.kind == "custom"
    m1, m2 = t.masks(2)
    assert list(m1) == [True, True, False]
    assert list(m2) == [True, False, False]
    # a threshold is an integer: no bool (False == 0 would spell zero-nonzero),
    # no fraction, no string
    for bad in (-1, True, False, 2.5, 0.0, "1", "even", None):
        with pytest.raises(InvalidParameter):
            PartitionScheme.from_config({"mode1": {"threshold": bad}, "mode2": "zero"})
    for bad in ((False, 0), (0, True), (1.0, 1), (-2, "even"), ("odd", 0)):
        with pytest.raises(InvalidParameter):
            PartitionScheme(*bad)
    assert PartitionScheme(np.int64(0), 0).kind == "zero-nonzero"


def test_partition_threshold_has_one_check_and_one_message():
    # True read "mode1 rule must be an integer" while 2.0 and "even" read
    # "bad mode1 rule": every bad threshold now reads the same way
    for spec in ({"threshold": True}, {"threshold": 2.0}, {"threshold": "even"},
                 {"threshold": -1}, {"limit": 2}):
        with pytest.raises(InvalidParameter) as err:
            PartitionScheme.from_config({"mode1": spec, "mode2": "zero"})
        assert str(err.value) == (f"bad mode1 rule {spec!r}; use 'zero', 'even', or "
                                  "{'threshold': t} with an integer t >= 0")
    p = PartitionScheme.from_config({"mode1": {"threshold": np.int64(2)}, "mode2": "even"})
    assert (p.rule1, p.rule2, p.kind) == (2, "even", "custom")
    assert type(p.rule1) is int


def test_nonproduct_partitions_only_through_debug_helper():
    # the public constructors only build product partitions A1 x A2; a
    # diagonal (non-product) cell assignment exists solely as a debug
    # probe and demonstrably breaks the column-correlation structure
    table = np.zeros((3, 3))
    table[0, 0] = table[1, 1] = table[2, 2] = 1.0 / 3.0
    cells = _nonproduct_cell_sums(table, lambda n1, n2: 0 if n1 == n2 else 3)
    assert cells[0] == pytest.approx(1.0, abs=1e-12)
    assert cells[3] == pytest.approx(0.0, abs=1e-12)


# --- portrait vector invariants ----------------------------------------------


def test_portrait_vector_validation():
    v = PortraitVector(0.4, 0.3, 0.2, 0.1)
    assert v.correlation() == pytest.approx(0.0, abs=1e-12)
    assert v.as_array().tolist() == [0.4, 0.3, 0.2, 0.1]
    with pytest.raises(NumericalNegativity):
        PortraitVector(0.5, 0.5, 0.1, -0.1)
    with pytest.raises(NumericalNegativity):
        PortraitVector(0.4, 0.3, 0.2, 0.2)  # sums to 1.1
    with pytest.raises(NumericalNegativity):
        PortraitVector(0.4, 0.3, 0.2, 0.05, tail_deficit=-0.05)
    with pytest.raises(NumericalNegativity):
        PortraitVector(math.nan, 0.3, 0.2, 0.1)


def test_portrait_vector_deficit_books():
    v = PortraitVector(0.5, 0.2, 0.2, 0.09, tail_deficit=0.01)
    assert sum(v.as_array()) + v.tail_deficit == pytest.approx(1.0, abs=1e-12)


# --- truncated path -----------------------------------------------------------


def test_truncated_not_renormalized_and_deficit_monotone():
    s = make_source(CatState(1.5, 1.5))
    zn = PartitionScheme.zero_nonzero()
    deficits = []
    for nmax in (6, 10, 16, 24):
        v = portrait_truncated(s, zn, 0.5 + 0.2j, -0.3j, nmax=nmax, tail_eps=1.0)
        assert sum(v.as_array()) == pytest.approx(1.0 - v.tail_deficit, abs=1e-9)
        deficits.append(v.tail_deficit)
    assert all(a >= b - 1e-12 for a, b in zip(deficits, deficits[1:]))
    assert deficits[-1] < 1e-6


def test_truncated_tail_too_large():
    s = make_source(CatState(2.5, 2.5))
    eo = PartitionScheme.even_odd()
    with pytest.raises(TailTooLarge) as info:
        portrait_truncated(s, eo, 1.0, 1.0, nmax=4, tail_eps=1e-4)
    assert info.value.tail_deficit > 1e-4
    assert str(TailTooLarge(0.25)) == "tail deficit 0.25 exceeds tolerance"


def test_truncated_parameter_validation():
    s = make_source(CatState(1, 1))
    zn = PartitionScheme.zero_nonzero()
    with pytest.raises(InvalidParameter):
        portrait_truncated(s, zn, 0j, 0j, nmax=0)
    with pytest.raises(InvalidParameter):
        portrait_truncated(s, zn, 0j, 0j, tail_eps=0.0)


@pytest.mark.parametrize("nmax", [15.5, True, "15"])
def test_nmax_must_be_an_integer(nmax):
    # 15.5 used to tabulate at 15 and True at 1; "15" failed inside a comparison
    state = CatState(1.0, 1.0)
    zn = PartitionScheme.zero_nonzero()
    with pytest.raises(InvalidParameter, match="nmax"):
        portrait_truncated(make_source(state), zn, 0.1j, 0.2, nmax=nmax)
    with pytest.raises(InvalidParameter, match="nmax"):
        make_portrait_fn(state, zn, nmax=nmax)


def test_nmax_accepts_numpy_integers():
    state = CatState(1.0, 1.0)
    zn = PartitionScheme.zero_nonzero()
    v = portrait_truncated(make_source(state), zn, 0.1j, 0.2, nmax=np.int64(15))
    assert v == portrait_truncated(make_source(state), zn, 0.1j, 0.2, nmax=15)
    # a threshold partition has no closed form, so make_portrait_fn takes
    # the truncated route with the nmax it was given
    t = PartitionScheme(1, 2)
    fn = make_portrait_fn(state, t, nmax=np.int64(15))
    assert fn(0.1j, 0.2) == portrait_truncated(make_source(state), t, 0.1j, 0.2, nmax=15)


def test_truncated_equals_per_entry_cell_sums():
    # the truncated portrait reduces the table in one matrix product; the
    # entry-by-entry sum over the product labeling must give the same cells
    s = make_source(CatState(1.0, 0.8 + 0.4j))
    nmax = 30
    a1, a2 = 0.4 - 0.2j, 0.1 + 0.3j
    table = s.tomogram_table(a1, a2, nmax)
    partitions = [PartitionScheme.zero_nonzero(), PartitionScheme.even_odd()]
    partitions += [PartitionScheme(t, t) for t in (1, 2, 3)]
    partitions += [PartitionScheme(2, "even"), PartitionScheme("even", 0)]
    for p in partitions:
        v = portrait_truncated(s, p, a1, a2, nmax=nmax)
        m1, m2 = p.masks(nmax)
        cells = _nonproduct_cell_sums(table, lambda i, j: 2 * (not m1[i]) + (not m2[j]))
        assert np.max(np.abs(v.as_array() - cells)) < 1e-12


# --- closed forms vs truncation ------------------------------------------------


def test_cat_closed_forms_match_truncated_sums():
    for _ in range(12):
        s = CatState(_random_amplitude(1.6), _random_amplitude(1.6))
        src = make_source(s)
        a1, a2 = _random_amplitude(), _random_amplitude()
        t_zn = portrait_truncated(src, PartitionScheme.zero_nonzero(), a1, a2,
                                  nmax=45, tail_eps=1.0)
        c_zn = cat_portrait_zero_nonzero(s, a1, a2)
        assert np.max(np.abs(t_zn.as_array() - c_zn.as_array())) < CLOSED_VS_TRUNCATED_TOL
        t_eo = portrait_truncated(src, PartitionScheme.even_odd(), a1, a2,
                                  nmax=45, tail_eps=1.0)
        c_eo = cat_portrait_even_odd(s, a1, a2)
        assert np.max(np.abs(t_eo.as_array() - c_eo.as_array())) < CLOSED_VS_TRUNCATED_TOL


def test_portrait_truncated_takes_a_state_or_a_source():
    # src goes through make_source, as in make_portrait_fn: a library state
    # gets its own source, a source passes through, anything else is refused
    p, state = PartitionScheme.even_odd(), CatState(1, 1)
    want = portrait_truncated(make_source(state), p, 0.1, 0.2, nmax=15).as_array()
    got = portrait_truncated(state, p, 0.1, 0.2, nmax=15).as_array()
    assert np.array_equal(got, want)
    oracle = portrait_truncated(FockOracleSource(state), p, 0.1, 0.2, nmax=15).as_array()
    assert np.max(np.abs(oracle - want)) <= 1e-14
    with pytest.raises(UnsupportedState):
        portrait_truncated(object(), p, 0.1, 0.2)


def test_cat_log_branch_continuity():
    # the closed forms once switched to log-domain accumulation above
    # |g1|^2 + |g2|^2 = 30; the generating function has no such branch,
    # and this guards continuity across the former threshold
    a1, a2 = 0.3 + 0.1j, -0.2 + 0.4j
    g_small = math.sqrt(15.0) - 1e-9
    g_large = math.sqrt(15.0) + 1e-9
    lo_zn = cat_portrait_zero_nonzero(CatState(g_small, g_small), a1, a2)
    hi_zn = cat_portrait_zero_nonzero(CatState(g_large, g_large), a1, a2)
    assert np.max(np.abs(lo_zn.as_array() - hi_zn.as_array())) < 1e-7
    lo_eo = cat_portrait_even_odd(CatState(g_small, g_small), a1, a2)
    hi_eo = cat_portrait_even_odd(CatState(g_large, g_large), a1, a2)
    assert np.max(np.abs(lo_eo.as_array() - hi_eo.as_array())) < 1e-7


def test_cat_closed_forms_large_amplitude_stay_valid():
    s = CatState(50.0, 50.0)
    for _ in range(20):
        a1, a2 = _random_amplitude(2.0), _random_amplitude(2.0)
        for fn in (cat_portrait_zero_nonzero, cat_portrait_even_odd):
            v = fn(s, a1, a2)
            assert np.all(v.as_array() >= 0)
            assert sum(v.as_array()) == pytest.approx(1.0, abs=1e-9)


def test_cat_closed_forms_match_fock_oracle():
    # the independent Fock-expansion oracle, truncated: each cell may miss
    # at most the mass beyond the truncation
    for gamma_sq in (1.0, 10.0):
        g = math.sqrt(gamma_sq)
        state = CatState(g, g)
        oracle = FockOracleSource(state)
        for a1, a2 in ((0.3 - 0.2j, -0.5 + 0.1j), (-0.9 + 0.4j, 0.6j)):
            for p in (PartitionScheme.zero_nonzero(), PartitionScheme.even_odd()):
                t = portrait_truncated(oracle, p, a1, a2, nmax=50, tail_eps=1e-6)
                c = make_portrait_fn(state, p)(a1, a2)
                diff = np.max(np.abs(t.as_array() - c.as_array()))
                assert diff <= t.tail_deficit + 1e-12


def test_vacuum_cat_zero_nonzero_at_origin():
    v = cat_portrait_zero_nonzero(CatState(0, 0), 0j, 0j)
    assert v.as_array().tolist() == pytest.approx([1, 0, 0, 0], abs=1e-12)


@pytest.mark.parametrize("kind", ["even-odd", "zero-nonzero"])
@pytest.mark.parametrize("state", [
    CatState(1.0, 1.0), CatState(math.sqrt(50), -2.0 + 1.5j), CatState(0.3j, 0.0),
    CoherentProduct(0.5, 0.5j), CoherentProduct(-1.0 + 0.3j, 0.0),
], ids=["cat1", "cat50", "cat-vacuum-mode2", "coherent", "coherent-vacuum-mode2"])
def test_marginal_gradients_are_the_joint_gradient_bit_for_bit(state, kind):
    # a marginal gradient is the joint gradient with the other mode
    # unmeasured; the fused gradient route must keep the bits of the
    # per-column route's joint gradient so restricted, including the sign
    # of a zero, on settings near 0 as well as in the box. Each draw is
    # mode 1's and mode 2's first setting, and turned by a quarter (exactly)
    # their second.
    fused, ref = make_portrait_fn(state, PartitionScheme.from_config(kind)), PerColumnPortrait(state, kind)
    g = ref._g
    if isinstance(state, CatState):
        still = ((0.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0))
    else:
        still = (0.0, 0.0)

    def bits(values):
        return [float(v).hex() for column in values for v in column]

    def mode1(alpha):
        _, d, t = g.mode1_grad(alpha)
        return g.joint_grad(d, t, g._one2, still)[:3], d, t

    def mode2(alpha):
        _, d, t = g.mode2_grad(alpha)
        joint = g.joint_grad(g._one1, still, d, t)
        return (joint[0],) + joint[3:], d, t

    local = np.random.default_rng(77)
    for case in range(300):
        scale = 10.0 ** local.uniform(-12, 0.5) if case % 3 else 3.0
        alpha = complex(*(local.uniform(-scale, scale, 2) * (case % 7 != 0)))
        beta = complex(-alpha.imag, alpha.real)
        expected = [ref.column_grad(mode1(u), mode2(v))
                    for u, v in ((alpha, alpha), (alpha, beta), (beta, alpha), (beta, beta))]
        columns, grads = fused.bell_columns_grad([alpha.real, alpha.imag, beta.real, beta.imag] * 2)
        assert bits(columns) == bits(e[0] for e in expected), (case, alpha)
        assert bits(grads) == bits(e[1] for e in expected), (case, alpha)


def test_closed_form_portraits_survive_pickle_and_deepcopy():
    settings = BellSettings(-0.12j, 0.04j, 0.22j, -0.32j)
    for state in (CatState(1.0, 1.0), CoherentProduct(0.5, 0.5j), GaussianSpec(SQUEEZED_M)):
        for p in (PartitionScheme.even_odd(), PartitionScheme.zero_nonzero()):
            fn = make_portrait_fn(state, p)
            for copied in (pickle.loads(pickle.dumps(fn)), copy.deepcopy(fn)):
                assert type(copied) is type(fn)
                assert copied.bell_columns(settings) == fn.bell_columns(settings)
                assert copied(0.3, -0.2j) == fn(0.3, -0.2j)


def test_coherent_closed_forms_factorize_and_match_truncation():
    for _ in range(50):
        s = CoherentProduct(_random_amplitude(), _random_amplitude())
        a1, a2 = _random_amplitude(), _random_amplitude()
        for closed, kind in ((coherent_portrait_zero_nonzero, "zn"),
                             (coherent_portrait_even_odd, "eo")):
            v = closed(s, a1, a2).as_array()
            # outer-product structure: w_pp * w_mm == w_pm * w_mp
            assert abs(v[0] * v[3] - v[1] * v[2]) < FACTORIZATION_TOL
    s = CoherentProduct(0.6 - 0.3j, 0.2 + 0.9j)
    src = make_source(s)
    a1, a2 = 0.5 + 0.1j, -0.4 + 0.3j
    t = portrait_truncated(src, PartitionScheme.even_odd(), a1, a2,
                           nmax=40, tail_eps=1.0)
    c = coherent_portrait_even_odd(s, a1, a2)
    assert np.max(np.abs(t.as_array() - c.as_array())) < 1e-10


def test_gaussian_closed_forms_match_truncated_at_clean_settings():
    g = GaussianSpec(SQUEEZED_M, np.zeros(4))
    src = make_source(g)
    for (a1, a2) in [(-0.12j, 0.04j), (-0.12j, -0.32j), (0.22j, 0.04j),
                     (0.22j, -0.32j), (0j, 0j)]:
        t_eo = portrait_truncated(src, PartitionScheme.even_odd(), a1, a2,
                                  nmax=42, tail_eps=1.0)
        c_eo = make_portrait_fn(g, PartitionScheme.even_odd())(a1, a2)
        assert np.max(np.abs(t_eo.as_array() - c_eo.as_array())) < 1e-6
        t_zn = portrait_truncated(src, PartitionScheme.zero_nonzero(), a1, a2,
                                  nmax=42, tail_eps=1.0)
        c_zn = make_portrait_fn(g, PartitionScheme.zero_nonzero())(a1, a2)
        assert np.max(np.abs(t_zn.as_array() - c_zn.as_array())) < 1e-6


def test_physical_gaussian_table_at_box_scale():
    # the l = 0 family member has the photon counts of a two-mode squeezed
    # vacuum; at box-scale settings the Hermite box refused its table
    # ("imaginary residue") through cancellation among huge values
    g = gaussian_purity_family(0.9, 0.0)
    a1, a2 = 1.5 + 0.5j, -1 + 1j
    assert gaussian_tomogram_table(g, a1, a2, 30).min() >= 0.0
    src = make_source(g)
    for p in (PartitionScheme.even_odd(), PartitionScheme.zero_nonzero()):
        v = portrait_truncated(src, p, a1, a2, nmax=30)
        d = make_portrait_fn(g, p)(a1, a2).as_array() - v.as_array()
        assert d.min() >= -1e-12
        assert d.max() <= v.tail_deficit + 1e-12


def _route_draws():
    """Item 12's route-agreement draws, fixed before any was run: 375
    random physical Gaussians (every second one pure, every other pair with
    a mean), each at 4 box-scale settings with |Re|, |Im| <= 2, as the
    (M, mean, alpha1, alpha2) of 1,500 settings."""
    local = np.random.default_rng(1201)
    draws = []
    for i in range(375):
        m, mean = random_physical_gaussian(local, max_nu=0.5 if i % 2 == 0 else 1.5,
                                           mean=(i // 2) % 2 == 0)
        for _ in range(4):
            a1, a2 = (complex(*local.uniform(-DEFAULT_BOX, DEFAULT_BOX, 2)) for _ in range(2))
            draws.append((m, mean, a1, a2))
    return draws


# the draws whose nmax-30 table is refused as NumericalNegativity (at
# -1.6e-4, -4.3e-8, -1.6e-5 and -2.3e-7): the exp recurrence of the table
# cancels on these physical states, which ROADMAP item 4's route is to mend
_REFUSED_TODAY = (134, 409, 1281, 1425)


def _assert_routes_agree(m, mean, a1, a2):
    # the truncated cells miss the tail, so each closed-form cell lies
    # within the tail deficit of its truncated cell, plus rounding
    g = GaussianSpec(m, mean)
    for p in (PartitionScheme.even_odd(), PartitionScheme.zero_nonzero()):
        v = portrait_truncated(g, p, a1, a2, nmax=30, tail_eps=1.0)
        d = make_portrait_fn(g, p)(a1, a2).as_array() - v.as_array()
        assert np.max(np.abs(d)) <= v.tail_deficit + 1e-12, (m, mean, a1, a2, p.kind)


def test_physical_gaussian_routes_agree():
    # no other draw is refused, and on every one the closed form and the
    # truncated route agree
    for i, draw in enumerate(_route_draws()):
        if i not in _REFUSED_TODAY:
            _assert_routes_agree(*draw)


@pytest.mark.xfail(strict=True, raises=NumericalNegativity,
                   reason="ROADMAP item 4: the table's exp recurrence refuses these physical draws")
def test_physical_gaussian_routes_agree_where_the_table_is_refused_today():
    draws = _route_draws()
    for i in _REFUSED_TODAY:
        _assert_routes_agree(*draws[i])


def test_gaussian_context_matches_one_shot():
    g = GaussianSpec(SQUEEZED_M, np.zeros(4))
    ctx = GaussianPortraitContext(g)
    for _ in range(10):
        a1, a2 = _random_amplitude(), _random_amplitude()
        assert np.array_equal(ctx.even_odd(a1, a2).as_array(),
                              make_portrait_fn(g, PartitionScheme.even_odd())(a1, a2).as_array())
        assert np.array_equal(ctx.zero_nonzero(a1, a2).as_array(),
                              make_portrait_fn(g, PartitionScheme.zero_nonzero())(a1, a2).as_array())


def _kernel_specs():
    """The squeezed example, family members, and random physical Gaussians."""
    local = np.random.default_rng(404)
    return ([GaussianSpec(SQUEEZED_M)]
            + [gaussian_purity_family(k, l) for k in (0.5, 0.6, 0.9, 1.2, 2.5) for l in (0.0, 0.04)]
            + [_physical_gaussian(local) for _ in range(200)])


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


def test_gaussian_kernels_keep_the_bits_of_one_call_per_point():
    # one stacked inv and det per spec stand in for the inv and det that
    # each canonical portrait function called on its own W; the spec keeps
    # them as Python floats, which the portrait functions read as they are
    for g in _kernel_specs():
        kernels = g._kernels
        assert g._kernels is kernels  # built once
        assert len(kernels) == 2
        for (W, K, det), s in zip(kernels, (-1.0, 0.0)):
            w = (1.0 - s) * g.M + 0.5 * (1.0 + s) * np.eye(4)
            assert _bits(W) == _bits(w)
            assert _bits(K) == _bits(0.5 * (1.0 - s) * np.linalg.inv(w))
            assert _bits(det) == _bits(np.linalg.det(w))
            assert {type(v) for row in W + K for v in row} == {type(det)} == {float}


def test_gaussian_portraits_do_not_depend_on_which_fills_the_kernels():
    # a portrait function made on a fresh spec, and one made after the
    # other canonical partition filled the spec's kernels
    local = np.random.default_rng(405)
    settings = [BellSettings.from_vector(local.uniform(-2, 2, 8)) for _ in range(10)]
    eo, zn = PartitionScheme.even_odd(), PartitionScheme.zero_nonzero()
    for g in _kernel_specs()[::5]:
        for first, second in ((eo, zn), (zn, eo)):
            fresh = make_portrait_fn(GaussianSpec(g.M, g.mean), second)
            spec = GaussianSpec(g.M, g.mean)
            make_portrait_fn(spec, first)
            assert "_kernels" in vars(spec)
            warm = make_portrait_fn(spec, second)
            for s in settings:
                assert _bits(fresh.bell_columns(s)) == _bits(warm.bell_columns(s))


def _overflow_states():
    rng = np.random.default_rng(406)
    return {
        "cat": CatState(1.0, 0.5j),
        "coherent": CoherentProduct(0.5, -0.3j),
        "family": gaussian_purity_family(0.8, 0.02),
        "squeezed": GaussianSpec(SQUEEZED_M),
        "tmsv": two_mode_squeezed_vacuum(1.4, (0.3, -0.2, 0.1, 0.4)),
        "physical": GaussianSpec(*random_physical_gaussian(rng)),
    }


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", ["even-odd", "zero-nonzero"])
@pytest.mark.parametrize("name", list(_overflow_states()))
def test_every_route_raises_overflow_error_at_a_huge_setting(name, kind):
    # a setting whose squares leave the float range: every closed-form
    # route, the truncated route, the table and the scalar raise
    # OverflowError, wherever the huge setting sits. A Gaussian's closed
    # forms returned a portrait here, and its table raised
    # NumericalNegativity
    state = _overflow_states()[name]
    p = getattr(PartitionScheme, kind.replace("-", "_"))()
    fn = make_portrait_fn(state, p)
    table = gaussian_tomogram_table if isinstance(state, GaussianSpec) else coherent_superposition_table
    scalar = gaussian_tomogram if isinstance(state, GaussianSpec) else cat_tomogram
    for huge in (1e200, -1e200j, 1.5e308):
        for at in range(4):
            x = [0.3 - 0.1j, -0.2j, 0.4, 0.1 + 0.2j]
            x[at] = huge
            s = BellSettings(*x)
            a1, a2 = (huge, 0.1j) if at in (0, 2) else (0.1j, huge)
            routes = {
                "portrait call": lambda: fn(a1, a2),
                "bell_columns": lambda: fn.bell_columns(s),
                "bell_columns_grad": lambda: fn.bell_columns_grad(s.as_vector().tolist()),
                "truncated portrait": lambda: portrait_truncated(state, p, a1, a2, nmax=8),
                "table": lambda: table(state, a1, a2, 8),
                "scalar": lambda: scalar(state, 2, 1, a1, a2),
            }
            for route, call in routes.items():
                with pytest.raises(OverflowError):
                    call()
                    pytest.fail(f"{route} at {x} returned")


def test_gaussian_closed_forms_never_negative_across_box():
    # unlike truncated tables of the borderline example, the closed-form
    # parity and vacuum projections stay valid over the whole box
    g = GaussianSpec(SQUEEZED_M, np.zeros(4))
    ctx = GaussianPortraitContext(g)
    for _ in range(200):
        a1 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        a2 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        for v in (ctx.even_odd(a1, a2), ctx.zero_nonzero(a1, a2)):
            assert np.all(v.as_array() >= 0)
            assert sum(v.as_array()) == pytest.approx(1.0, abs=1e-9)


# --- dispatch -----------------------------------------------------------------


def test_named_closed_forms_are_two_functions_of_any_closed_form_state():
    even_odd = (cat_portrait_even_odd, coherent_portrait_even_odd)
    zero_nonzero = (cat_portrait_zero_nonzero, coherent_portrait_zero_nonzero)
    assert len(set(even_odd)) == len(set(zero_nonzero)) == 1
    assert even_odd[0] is not zero_nonzero[0]
    states = (CatState(1.0 + 0.3j, -0.8), CoherentProduct(0.6, -0.4 + 0.2j),
              GaussianSpec(SQUEEZED_M, np.zeros(4)), gaussian_purity_family(0.9, 0.04))
    draws = np.random.default_rng(19).uniform(-2.0, 2.0, size=(6, 4))
    for p, names in ((PartitionScheme.even_odd(), even_odd),
                     (PartitionScheme.zero_nonzero(), zero_nonzero)):
        for state in states:
            fn = make_portrait_fn(state, p)
            for x1, y1, x2, y2 in draws:
                a1, a2 = complex(x1, y1), complex(x2, y2)
                want = fn(a1, a2).as_array()
                for named in names:
                    assert np.array_equal(named(state, a1, a2).as_array(), want)
    # a user source names no closed form, though it holds a state
    user = _FencedSource(states[0])
    for closed_form in (*even_odd, *zero_nonzero, lambda src, *_: GaussianPortraitContext(src)):
        with pytest.raises(UnsupportedState, match="no closed-form portrait for _FencedSource"):
            closed_form(user, 0j, 0j)


def test_make_portrait_fn_prefers_closed_forms():
    fn = make_portrait_fn(CatState(1, 1), PartitionScheme.even_odd())
    v = fn(0.2 + 0.1j, -0.3j)
    assert v.tail_deficit == pytest.approx(0.0, abs=1e-9)
    direct = cat_portrait_even_odd(CatState(1, 1), 0.2 + 0.1j, -0.3j)
    assert np.array_equal(v.as_array(), direct.as_array())


def _fence(alpha1):
    if abs(alpha1) > 1.4:
        raise TailTooLarge(1.0, f"|alpha1|={abs(alpha1):.3f} beyond fence")


class _FencedSource(TomogramSource):
    """A user source that holds a cat state and refuses settings beyond a fence."""

    def __init__(self, state):
        self.state = state

    def tomogram(self, n1, n2, alpha1, alpha2):
        _fence(alpha1)
        return cat_tomogram(self.state, n1, n2, alpha1, alpha2)


class _FencedGaussianSource(_FencedSource):
    def tomogram(self, n1, n2, alpha1, alpha2):
        _fence(alpha1)
        return gaussian_tomogram(self.state, n1, n2, alpha1, alpha2)


def test_make_portrait_fn_closed_forms_only_for_library_sources():
    # a source's tomograms are its own, so only the state object is given
    # the closed form, and the tables of a source that holds one are built
    # from the source's own tomogram
    zn = PartitionScheme.zero_nonzero()
    for fenced_cls, state in ((_FencedSource, CatState(1, 1)),
                              (_FencedGaussianSource, gaussian_purity_family(0.9, 0.0))):
        fenced = make_portrait_fn(fenced_cls(state), zn, nmax=12, tail_eps=1.0)
        with pytest.raises(TailTooLarge):
            fenced(1.5, 0j)
        with pytest.raises(TailTooLarge):
            portrait_truncated(fenced_cls(state), zn, 1.5, 0j, nmax=12, tail_eps=1.0)
        inside = fenced(0.5, 0j)
        assert inside.tail_deficit > 0.0
        closed = make_portrait_fn(state, zn)(1.5, 0j)
        assert closed.tail_deficit == 0.0
        assert closed == make_portrait_fn(make_source(state), zn)(1.5, 0j)


def test_make_portrait_fn_truncated_fallback():
    # a user source takes the truncated route, here inside its fence
    fn = make_portrait_fn(_FencedSource(CatState(1, 1)), PartitionScheme.even_odd(),
                          nmax=6, tail_eps=1e-2)
    v = fn(0.2 + 0.1j, -0.3j)
    assert 0.0 < v.tail_deficit < 1e-2
    closed = cat_portrait_even_odd(CatState(1, 1), 0.2 + 0.1j, -0.3j)
    # truncation can only remove mass, so cells sit within the deficit
    assert np.max(np.abs(v.as_array() - closed.as_array())) <= v.tail_deficit + 1e-9
