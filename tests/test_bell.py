"""Bell matrix assembly, CHSH classification, and the multi-start maximizer."""

import copy
import functools
import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tomobell import bell
from tomobell.bell import (
    ENTRY_TOL,
    BellMatrix,
    BellSettings,
    I_MATRIX,
    MaximizeConfig,
    TSIRELSON_BOUND,
    bell_matrix,
    bell_number,
    chsh_check,
    get_bell_high_water,
    maximize_bell,
)
from tomobell.errors import (
    InvalidBellNumber,
    InvalidParameter,
    InvalidStochasticMatrix,
    NumericalNegativity,
    TailTooLarge,
)
from tomobell.portrait import (
    _CANONICAL,
    SUM_TOL,
    PartitionScheme,
    PortraitVector,
    _checked_cells,
    cat_portrait_even_odd,
    cat_portrait_zero_nonzero,
    coherent_portrait_even_odd,
    make_portrait_fn,
    portrait_truncated,
)
from tomobell.states import (
    DEFAULT_BOX,
    NEGATIVITY_TOL,
    NEGATIVITY_TOL_HERMITE,
    CatState,
    CoherentProduct,
    GaussianSpec,
    TomogramSource,
    cat_tomogram,
    gaussian_purity_family,
    make_source,
)

from oracles import CANONICAL_CELLS, PRINTED_MG, SQUEEZED_M, two_pass_checked_cells
from test_tables import _physical_gaussian

CEILING = TSIRELSON_BOUND + 1e-6

rng = np.random.default_rng(77)


def _random_settings(scale=1.5):
    x = rng.uniform(-scale, scale, 8)
    return BellSettings(complex(x[0], x[1]), complex(x[2], x[3]),
                        complex(x[4], x[5]), complex(x[6], x[7]))


def test_i_matrix_frozen():
    want = np.array([
        [1, -1, -1, 1],
        [1, -1, -1, 1],
        [1, -1, -1, 1],
        [-1, 1, 1, -1],
    ], dtype=float)
    assert np.array_equal(I_MATRIX, want)


def test_settings_validation_and_roundtrip():
    with pytest.raises(InvalidParameter):
        BellSettings(complex(math.nan), 0j, 0j, 0j)
    s = BellSettings(0.1 - 0.2j, 0.3j, -0.4, 0.5 + 0.6j)
    assert BellSettings.from_vector(s.as_vector()) == s
    assert s.pairs()[0] == (s.alpha1, s.alpha2)
    assert s.pairs()[3] == (s.beta1, s.beta2)
    with pytest.raises(InvalidParameter):
        BellSettings.from_vector(np.zeros(7))


@pytest.mark.parametrize("bad", [True, False, "0.5", None])
def test_settings_are_finite_numbers_and_no_bool(bad):
    # complex(True) == 1 once let BellSettings(True, 0, 0, 0) keep alpha1=True;
    # settings share the amplitudes' finite-number check
    for at in range(4):
        values = [0j] * 4
        values[at] = bad
        with pytest.raises(InvalidParameter, match="must be a finite number"):
            BellSettings(*values)


def test_bell_matrix_validation():
    col = np.array([0.4, 0.3, 0.2, 0.1])
    m = np.column_stack([col] * 4)
    BellMatrix(m, np.zeros(4))
    with pytest.raises(InvalidStochasticMatrix):
        BellMatrix(m - 0.05, np.zeros(4))  # negative entries
    with pytest.raises(InvalidStochasticMatrix):
        BellMatrix(m, np.full(4, 0.1))  # columns no longer balance
    short = np.column_stack([col * 0.999] * 4)
    BellMatrix(short, np.full(4, 0.001))  # deficit keeps the books straight
    overfull = m.copy()
    overfull[:, 0] = (1.0, 1.0, 0.0, 0.0)
    with pytest.raises(InvalidStochasticMatrix, match="deficits"):
        BellMatrix(overfull, [-1.0, 0.0, 0.0, 0.0])  # a negative deficit balances it


def test_bell_matrix_constant_portrait():
    const = lambda a1, a2: PortraitVector(1.0, 0.0, 0.0, 0.0)
    m = bell_matrix(const, _random_settings())
    assert np.array_equal(m.matrix, np.array([
        [1.0] * 4, [0.0] * 4, [0.0] * 4, [0.0] * 4]))
    assert bell_number(m) == pytest.approx(2.0, abs=1e-15)


def test_bell_matrix_column_swap_property():
    s = _random_settings()
    fn = make_portrait_fn(CatState(1, 0.5), PartitionScheme.even_odd())
    m = bell_matrix(fn, s)
    swapped = BellSettings(s.beta1, s.beta2, s.alpha1, s.alpha2)
    m2 = bell_matrix(fn, swapped)
    assert np.array_equal(m2.matrix, m.matrix[:, [3, 2, 1, 0]])


def test_bell_matrix_four_columns_match_per_column_loop():
    # the closed forms evaluate all four columns in one call; a plain
    # wrapper around the same function goes column by column, and both
    # must give the same matrix to the last bit
    local = np.random.default_rng(2718)
    A = local.normal(size=(4, 4))
    states = [
        CatState(1, 0.5), CatState(complex(*local.uniform(-2, 2, 2)), 0.7j),
        CatState(50, 50), CatState(math.sqrt(50), math.sqrt(50)),
        CoherentProduct(0.4 - 0.3j, -1.1),
        gaussian_purity_family(0.9, 0.04),
        GaussianSpec(A @ A.T + 0.6 * np.eye(4), local.uniform(-1, 1, 4)),
    ]
    for state in states:
        for p in (PartitionScheme.even_odd(), PartitionScheme.zero_nonzero()):
            fn = make_portrait_fn(state, p)
            assert hasattr(fn, "bell_columns")
            for _ in range(20):
                x = local.uniform(-2, 2, 8)
                s = BellSettings.from_vector(x)
                fast = bell_matrix(fn, s)
                loop = bell_matrix(lambda a1, a2: fn(a1, a2), s)
                assert np.array_equal(fast.matrix, loop.matrix)
                assert np.array_equal(fast.column_deficits, loop.column_deficits)


def test_bell_matrix_four_columns_keep_portrait_checks():
    # mode 1 breaks the single-mode uncertainty bound, so its parity
    # G(-1, 1) = 5 exceeds 1 and the even-odd cells go negative
    spec = GaussianSpec(np.diag([0.1, 3.0, 0.1, 3.0]))
    fn = make_portrait_fn(spec, PartitionScheme.even_odd())
    s = BellSettings(0j, 0j, 0.1j, 0.1)
    with pytest.raises(NumericalNegativity) as fast:
        bell_matrix(fn, s)
    with pytest.raises(NumericalNegativity) as loop:
        bell_matrix(lambda a1, a2: fn(a1, a2), s)
    # bell_columns checks its columns in the per-column route's order
    assert str(fast.value) == str(loop.value)
    assert str(fast.value).startswith("gaussian even-odd portrait: cell value ")


def _check_fuzz():
    """(cells, deficit, tol) draws around every edge of ``_checked_cells``:
    cells and deficits near their negativity floor, totals near both ends
    of the sum bound."""
    fuzz = np.random.default_rng(11)
    for tol in (NEGATIVITY_TOL, NEGATIVITY_TOL_HERMITE):
        for i in range(20_000):
            # a deficit at 0, near its negativity floor, or a real tail
            deficit = fuzz.uniform(-2.0, 2.0) * tol + (fuzz.uniform(0.0, 1e-3) if i % 3 == 0 else 0.0)
            if i % 2:
                # all the mass in one cell: the others sit near their floor
                cells = np.zeros(4)
                cells[i % 4] = 1.0 - deficit
            else:
                cells = fuzz.dirichlet(np.full(4, 0.3)) * (1.0 - deficit)
            cells += fuzz.uniform(-2.0, 2.0, 4) * tol
            # the total near both ends of its bound
            cells[fuzz.integers(4)] += fuzz.uniform(-2.0, 2.0) * SUM_TOL
            yield tuple(cells.tolist()), float(deficit), tol


def test_checked_columns_lie_in_the_entry_range():
    # bell_matrix and the fused objective take closed-form columns as they
    # come from _checked_cells, with no entry-range check of their own: the
    # clamp at 0 and the sum bound must keep every entry in [0, 1 + ENTRY_TOL]
    assert ENTRY_TOL >= SUM_TOL
    accepted, over_one = 0, 0
    for cells, deficit, tol in _check_fuzz():
        try:
            out = _checked_cells(cells, deficit, tol, "fuzz")
        except NumericalNegativity:
            continue
        accepted += 1
        over_one += max(out) > 1.0
        assert all(0.0 <= v <= 1.0 + ENTRY_TOL for v in out)
    # the draws reach the accepted edge above 1, where a looser sum bound shows
    assert accepted > 5_000 and over_one > 100


def _check_outcome(check, *args):
    """The bits of ``check(*args, "fuzz")``, or its refusal's message."""
    try:
        return [v.hex() for v in check(*args, "fuzz")]
    except NumericalNegativity as exc:
        return str(exc)


# the refusals of the portrait check, by a phrase of their message
_REFUSALS = (("finite", "must be finite"), ("cell", "cell value"),
             ("deficit", "tail deficit"), ("sum", "sum to"))


def test_one_pass_check_keeps_the_two_pass_bits():
    # _checked_cells adds the terms once and takes min() only when a cell
    # or the deficit is negative; the two-pass oracle always does both
    edges = [((math.nan, 0.5, 0.5, 0.0), 0.0), ((0.5, math.inf, 0.0, 0.0), 0.0),
             ((0.5, 0.5, -math.inf, 0.0), 0.0), ((0.5, 0.5, 0.0, 0.0), math.nan),
             ((0.5, 0.5, 0.0, -0.0), -0.0), ((1e308, 1e308, -1e308, 0.0), 0.0)]
    branches = dict.fromkeys(("plain", "cell clamped", "deficit clamped", "finite",
                              "cell", "deficit", "sum"), 0)
    draws = [(c, d, NEGATIVITY_TOL) for c, d in edges] + list(_check_fuzz())
    for cells, deficit, tol in draws:
        got = _check_outcome(_checked_cells, cells, deficit, tol)
        assert got == _check_outcome(two_pass_checked_cells, cells, deficit, tol)
        if isinstance(got, str):
            branches[next(key for key, text in _REFUSALS if text in got)] += 1
        else:
            branches["cell clamped" if min(cells) < 0.0 else
                     "deficit clamped" if deficit < 0.0 else "plain"] += 1
    assert all(n > 0 for n in branches.values()), branches


# (G1, G2, G12) from the four cells, the inverse of each partition's cells
_G_OF_CELLS = {
    "even-odd": lambda pp, pm, mp, mm: (pp + pm - mp - mm, pp - pm + mp - mm, pp - pm - mp + mm),
    "zero-nonzero": lambda pp, pm, mp, mm: (pp + pm, pp + mp, pp),
}


def _column_draws(kind):
    """(g1, g2, g12, tol) for a column function: the check's fuzz draws
    through the partition's inverse, and each non-finite, signed-zero and
    huge value in each place of the triple."""
    to_g = _G_OF_CELLS[kind]
    for cells, _, tol in _check_fuzz():
        yield (*to_g(*cells), tol)
    for value in (math.nan, math.inf, -math.inf, -0.0, 0.0, 1e308, -1e308):
        for at in range(3):
            for base in ((0.5, 0.5, 0.25), (1.0, 1.0, 1.0), (-0.0, -0.0, -0.0)):
                g = list(base)
                g[at] = value
                for tol in (NEGATIVITY_TOL, NEGATIVITY_TOL_HERMITE):
                    yield (*g, tol)


@pytest.mark.parametrize("kind", ["even-odd", "zero-nonzero"])
def test_column_function_keeps_the_bits_of_cells_then_check(kind):
    # one call forms and checks a column; it hands every column it does not
    # return as formed to _checked_cells, so its bits and its refusals are
    # those of the cells function followed by the check
    column, cells = _CANONICAL[kind][1], CANONICAL_CELLS[kind]
    branches = dict.fromkeys(("plain", "clamped", "finite", "cell", "sum"), 0)
    for g1, g2, g12, tol in _column_draws(kind):
        got = _check_outcome(column, g1, g2, g12, tol)
        want = _check_outcome(_checked_cells, cells(g1, g2, g12), 0.0, tol)
        assert got == want, (g1, g2, g12, tol)
        if isinstance(got, str):
            branches[next(key for key, text in _REFUSALS if text in got)] += 1
        else:
            branches["clamped" if min(cells(g1, g2, g12)) < 0.0 else "plain"] += 1
    assert all(n > 0 for n in branches.values()), branches


def _sum_within_bound_where_signs_pass(kind, g1, g2, g12):
    """Whether the formed cells of (g1, g2, g12) are all >= 0; where they
    are, assert they sum to 1 within SUM_TOL and that the column function
    returns them as formed."""
    cells = CANONICAL_CELLS[kind](g1, g2, g12)
    if not all(c >= 0.0 for c in cells):
        return False
    w_pp, w_pm, w_mp, w_mm = cells
    assert abs(w_pp + w_pm + w_mp + w_mm - 1.0) <= SUM_TOL, (g1, g2, g12)
    column = _CANONICAL[kind][1](g1, g2, g12, NEGATIVITY_TOL, "fuzz")
    assert [v.hex() for v in column] == [v.hex() for v in (*cells, 0.0)]
    return True


# any float (NaN, +-inf, subnormals, +-1e308), values near +-1 and 0, and
# the steps next to them
_G_VALUE = st.one_of(
    st.floats(),
    st.sampled_from((1.0, -1.0, 0.0, 0.5)).flatmap(lambda v: st.floats(v - 1e-9, v + 1e-9)),
    st.sampled_from((math.nextafter(1.0, 2.0), math.nextafter(-1.0, -2.0), 5e-324, -5e-324,
                     1e308, -1e308)),
)


@st.composite
def _edge_triples(draw, kind):
    """(G1, G2, G12) of cells that sum to 1, one of them at its edge 0."""
    low, a, b = draw(st.floats(-1e-15, 1e-15)), draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))
    cells = draw(st.permutations((low, a, b, 1.0 - low - a - b)))
    return _G_OF_CELLS[kind](*cells)


@pytest.mark.parametrize("kind", ["even-odd", "zero-nonzero"])
@settings(deadline=None, max_examples=600)
@given(data=st.data())
def test_sign_tests_bound_the_column_sum(kind, data):
    # the column functions return a column once its four cells are >= 0:
    # cells formed by these formulas that pass the sign tests sum to 1
    # within SUM_TOL, so the sum test of _checked_cells cannot refuse them
    g = data.draw(st.one_of(st.tuples(_G_VALUE, _G_VALUE, _G_VALUE), _edge_triples(kind)))
    _sum_within_bound_where_signs_pass(kind, *g)


@pytest.mark.parametrize("kind", ["even-odd", "zero-nonzero"])
def test_sign_tests_bound_the_column_sum_on_the_column_draws(kind):
    passed = sum(_sum_within_bound_where_signs_pass(kind, g1, g2, g12)
                 for g1, g2, g12, _ in _column_draws(kind))
    assert passed > 20_000


def test_trace_convention_regression():
    # the sign matrix is not symmetric, so the trace contraction and the
    # entrywise sum against it differ; only the former reproduces the
    # worked value near 2.26 (bell_number accepts plain arrays unchecked
    # so the rounded printed entries can be fed straight through)
    b = bell_number(PRINTED_MG)
    assert b == pytest.approx(2.2592, abs=1e-9)
    elementwise = abs(float((PRINTED_MG * I_MATRIX).sum()))
    assert elementwise == pytest.approx(0.2224, abs=1e-9)
    assert abs(b - elementwise) > 2.0


def test_bell_number_shape_guard():
    with pytest.raises(InvalidParameter):
        bell_number(np.zeros((3, 3)))


def test_bell_number_updates_the_high_water_mark(monkeypatch):
    # a checked matrix and a plain array each raise the mark to their B,
    # and a lower B leaves it where it is
    monkeypatch.setattr(bell, "_bell_high_water", 0.0)
    fn = make_portrait_fn(CatState(1.0, 1.0), PartitionScheme.even_odd())
    checked = bell_matrix(fn, BellSettings(0.1j, -0.2, 0.3, 0.1j))
    b = bell_number(checked)
    assert b > 0.0 and get_bell_high_water() == b
    high = bell_number(PRINTED_MG)
    assert high > b and get_bell_high_water() == high
    flat = np.column_stack([[0.4, 0.3, 0.2, 0.1]] * 4)  # every correlation 0
    for lower in (checked, flat, BellMatrix(flat, np.zeros(4))):
        assert bell_number(lower) < high
    assert get_bell_high_water() == high


def test_bell_number_refuses_non_finite_entries(monkeypatch):
    # a NaN Bell number passed every later comparison: the high-water mark
    # never recorded it, and an infinite entry also made numpy warn
    monkeypatch.setattr(bell, "_bell_high_water", 0.0)
    for bad in (math.nan, math.inf, -math.inf):
        for where in ((0, 0), (3, 2)):
            mat = PRINTED_MG.copy()
            mat[where] = bad
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(InvalidParameter, match="finite"):
                    bell_number(mat)
    with pytest.raises(InvalidParameter, match="finite"):
        bell_number(np.full((4, 4), math.nan))
    assert get_bell_high_water() == 0.0
    # a checked Bell matrix holds no NaN: its entry and balance tests refuse it
    col = np.array([0.4, 0.3, 0.2, 0.1])
    m = np.column_stack([col] * 4)
    m[1, 2] = math.nan
    with pytest.raises(InvalidStochasticMatrix, match="lie in"):
        BellMatrix(m, np.zeros(4))
    with pytest.raises(InvalidStochasticMatrix, match="worst imbalance nan"):
        BellMatrix(np.column_stack([col] * 4), np.array([0.0, math.nan, 0.0, 0.0]))


def _trace_oracle(mat):
    """B as numpy's trace contraction gives it: the bits bell_number keeps."""
    return float(abs(np.trace(mat @ I_MATRIX)))


def test_bell_number_keeps_the_trace_bits_on_closed_form_columns():
    # bell_number adds B on floats in the order of numpy's trace(M @ I).
    # maximize_bell reports B from it, so its bits must not move; the
    # fused objective adds column by column, which differs in the last
    # bit on most matrices, and that order fails here
    local = np.random.default_rng(1859)
    states = [
        CatState(1.0, 1.0), CatState(math.sqrt(50), math.sqrt(50)),
        CatState(complex(*local.uniform(-2, 2, 2)), 0.7j),
        CoherentProduct(0.5, 0.5j), CoherentProduct(-1.0 + 0.3j, 0.2),
        gaussian_purity_family(0.9, 0.04), gaussian_purity_family(0.6, 0.0),
        _physical_gaussian(local), _physical_gaussian(local),
    ]
    settings = 0
    for state in states:
        for p in (PartitionScheme.even_odd(), PartitionScheme.zero_nonzero()):
            fn = make_portrait_fn(state, p)
            assert hasattr(fn, "bell_columns")
            for _ in range(125):
                s = BellSettings.from_vector(local.uniform(-DEFAULT_BOX, DEFAULT_BOX, 8))
                m = bell_matrix(fn, s)
                assert bell_number(m).hex() == _trace_oracle(m.matrix).hex()
                settings += 1
    assert settings >= 2_000


def test_bell_number_keeps_the_trace_bits_column_by_column():
    # the per-column route: a plain wrapper around a closed form, and
    # truncated portraits, whose columns carry tail deficits
    local = np.random.default_rng(1860)
    states = [CatState(1.0, 1.0), CoherentProduct(0.5, 0.5j),
              gaussian_purity_family(0.9, 0.04), _physical_gaussian(local)]
    matrices, with_deficit = 0, 0
    for state in states:
        for p in (PartitionScheme.even_odd(), PartitionScheme.zero_nonzero(), PartitionScheme(2, 1)):
            truncated = functools.partial(portrait_truncated, make_source(state), p,
                                          nmax=15, tail_eps=1.0)
            default = make_portrait_fn(state, p, nmax=15, tail_eps=1.0)
            for fn in (truncated, lambda a1, a2: default(a1, a2)):
                for _ in range(8):
                    s = BellSettings.from_vector(local.uniform(-DEFAULT_BOX, DEFAULT_BOX, 8) / 2)
                    try:
                        m = bell_matrix(fn, s)
                    except NumericalNegativity:
                        continue
                    # the parent's layout: one portrait per column, C order
                    vectors = [fn(x, y) for x, y in s.pairs()]
                    assert np.array_equal(m.matrix, np.column_stack([v.as_array() for v in vectors]))
                    assert m.matrix.flags.c_contiguous and m.matrix.dtype == np.float64
                    assert m.column_deficits.tolist() == [v.tail_deficit for v in vectors]
                    assert bell_number(m).hex() == _trace_oracle(m.matrix).hex()
                    matrices += 1
                    with_deficit += bool(m.column_deficits.any())
    assert matrices >= 150 and with_deficit >= 30


def test_bell_number_keeps_the_trace_bits_on_plain_matrices():
    local = np.random.default_rng(1861)
    mats = [PRINTED_MG, np.eye(4), np.zeros((4, 4)), -PRINTED_MG.T]
    mats += [local.uniform(0.0, 1.0, (4, 4)) for _ in range(500)]
    mats += [local.standard_normal((4, 4)) * 10.0 ** local.integers(-6, 6, (4, 4)) for _ in range(500)]
    stochastic = [local.dirichlet(np.full(4, 0.5), 4).T for _ in range(500)]
    for mat in mats + stochastic:
        assert bell_number(mat).hex() == _trace_oracle(mat).hex()
        assert bell_number(mat.tolist()).hex() == _trace_oracle(mat).hex()
    for mat in stochastic:
        deficits = np.zeros(4)
        m = BellMatrix(mat, deficits)
        assert np.array_equal(m.matrix, mat)
        assert bell_number(m).hex() == _trace_oracle(mat).hex()


def test_bell_matrix_arrays_are_read_only():
    # a checked matrix whose entries could be overwritten would feed
    # unchecked values to bell_number and to every later reader
    cat = CatState(1.0, 0.5)
    s = _random_settings()
    closed = make_portrait_fn(cat, PartitionScheme.even_odd())
    truncated = make_portrait_fn(cat, PartitionScheme(1, 1), nmax=15, tail_eps=1.0)
    given = np.column_stack([np.array([0.4, 0.3, 0.2, 0.1])] * 4)
    built = [bell_matrix(closed, s), bell_matrix(truncated, s), BellMatrix(given, np.zeros(4))]
    built += [copy.deepcopy(built[0]), pickle.loads(pickle.dumps(built[1]))]
    for m in built:
        b = bell_number(m)
        for array in (m.matrix, m.column_deficits):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.5
        with pytest.raises(AttributeError):
            m.matrix = np.zeros((4, 4))
        with pytest.raises(AttributeError):
            m.column_deficits = np.zeros(4)
        assert m.matrix is m.matrix
        assert bell_number(m) == b == _trace_oracle(m.matrix)
    assert np.array_equal(built[3].matrix, built[0].matrix)
    assert np.array_equal(built[4].column_deficits, built[1].column_deficits)
    # the caller's array stays the caller's: still writeable, and not shared
    assert given.flags.writeable
    given[0, 0] = 0.0
    assert built[2].matrix[0, 0] == 0.4


def test_chsh_check_verdicts():
    sep = chsh_check(1.7)
    assert sep.verdict == "SEPARABLE-CONSISTENT"
    assert sep.margin == pytest.approx(-0.3)
    assert chsh_check(2.0).verdict == "SEPARABLE-CONSISTENT"
    ent = chsh_check(2.4)
    assert ent.verdict == "ENTANGLED-WITNESSED"
    assert ent.margin == pytest.approx(0.4)
    assert chsh_check(TSIRELSON_BOUND + 9e-7).verdict == "ENTANGLED-WITNESSED"
    with pytest.raises(InvalidBellNumber):
        chsh_check(TSIRELSON_BOUND + 0.01)
    with pytest.raises(InvalidParameter):
        chsh_check(-0.1)
    with pytest.raises(InvalidParameter):
        chsh_check(math.nan)


def test_maximize_config_validation():
    with pytest.raises(InvalidParameter):
        MaximizeConfig(box=0.0)
    with pytest.raises(InvalidParameter):
        MaximizeConfig(starts=0)
    with pytest.raises(InvalidParameter):
        MaximizeConfig(nmax=0)
    with pytest.raises(InvalidParameter):
        MaximizeConfig(tail_eps=0.0)


def test_maximize_config_refuses_a_bool_box():
    # True == 1.0 would pass as a box of width 1
    with pytest.raises(InvalidParameter, match="box"):
        MaximizeConfig(box=True)
    assert MaximizeConfig(box=np.float64(1.5)).box == 1.5


@pytest.mark.parametrize("field, value", [
    ("seed", -1), ("seed", 1.0), ("seed", "0"), ("starts", 2.5), ("starts", True),
    ("max_iters", 100.0), ("max_iters", None), ("nmax", 15.5), ("nmax", True), ("nmax", "15"),
])
def test_maximize_config_requires_integers(field, value):
    # these used to be accepted and fail later, inside numpy or range()
    with pytest.raises(InvalidParameter, match=field):
        MaximizeConfig(**{field: value})
    # numpy integers are integers
    assert MaximizeConfig(**{field: np.int64(3)})


def test_maximize_determinism_and_reevaluation():
    state = CatState(1, 1)
    p = PartitionScheme.zero_nonzero()
    cfg = MaximizeConfig(starts=6, seed=11)
    r1 = maximize_bell(state, p, cfg)
    r2 = maximize_bell(state, p, cfg)
    assert r1.f == r2.f
    assert r1.argmax == r2.argmax
    fn = make_portrait_fn(state, p)
    assert abs(bell_number(bell_matrix(fn, r1.argmax)) - r1.f) <= 1e-12
    assert r1.evaluations > 0
    assert len(r1.per_start_best) == 6
    assert all(e is None for e in r1.per_start_error)


def test_maximize_monotone_in_starts():
    state = CatState(1, 1)
    p = PartitionScheme.even_odd()
    small = maximize_bell(state, p, MaximizeConfig(starts=3, seed=5))
    large = maximize_bell(state, p, MaximizeConfig(starts=6, seed=5))
    assert large.f >= small.f - 1e-15
    # prefix stability: the shared starts produced identical values
    assert large.per_start_best[:3] == small.per_start_best


def test_maximize_reports_each_start():
    # all ten starts converge within the evaluation limit
    cfg = MaximizeConfig(starts=10, seed=0)
    r = maximize_bell(GaussianSpec(SQUEEZED_M), PartitionScheme.zero_nonzero(), cfg)
    assert len(r.per_start_nfev) == len(r.per_start_converged) == cfg.starts
    assert all(e is None for e in r.per_start_error)
    for nfev, converged in zip(r.per_start_nfev, r.per_start_converged):
        assert 0 < nfev <= cfg.max_iters
        assert converged == (nfev < cfg.max_iters)
    assert r.per_start_converged.count(False) == 0
    # the searches' calls are all the evaluations
    assert sum(r.per_start_nfev) == r.evaluations


def test_maximize_coherent_stays_below_two():
    r = maximize_bell(CoherentProduct(0.5, 0.5), PartitionScheme.even_odd(),
                      MaximizeConfig(starts=16, seed=0))
    assert r.f <= 2.0 + 1e-6
    r = maximize_bell(CoherentProduct(0.5, 0.5), PartitionScheme.zero_nonzero(),
                      MaximizeConfig(starts=16, seed=0))
    assert r.f <= 2.0 + 1e-6


def test_maximize_cat_witnesses_entanglement():
    r = maximize_bell(CatState(1, 1), PartitionScheme.even_odd(),
                      MaximizeConfig(starts=64, seed=42))
    assert r.f > 2.0
    assert r.verdict.verdict == "ENTANGLED-WITNESSED"
    assert r.f <= CEILING


class _FencedCatSource(TomogramSource):
    """Cat tomograms that refuse any setting with |alpha1| beyond a fence.

    Coarse-scale optimizer starts wander outside the fence and must be
    reported as failed; fine-scale starts stay inside and succeed.
    """

    def __init__(self, state, fence):
        self.cat = state
        self.fence = fence

    def tomogram(self, n1, n2, alpha1, alpha2):
        if abs(alpha1) > self.fence:
            raise TailTooLarge(1.0, f"|alpha1|={abs(alpha1):.3f} beyond fence")
        return cat_tomogram(self.cat, n1, n2, alpha1, alpha2)


def test_maximize_continues_past_failed_starts():
    src = _FencedCatSource(CatState(1, 1), fence=1.4)
    cfg = MaximizeConfig(starts=10, seed=0, nmax=20, tail_eps=1.0)
    r = maximize_bell(src, PartitionScheme.zero_nonzero(), cfg)
    failed = [e for e in r.per_start_error if e is not None]
    assert failed and len(failed) < 10
    assert all("TailTooLarge" in e for e in failed)
    assert r.f > 2.0  # the surviving fine starts still find the violation
    nan_count = sum(1 for v in r.per_start_best if math.isnan(v))
    assert nan_count == len(failed)
    for error, nfev, converged in zip(r.per_start_error, r.per_start_nfev, r.per_start_converged):
        assert (nfev is None) == (converged is None) == (error is not None)


def test_maximize_raises_when_all_starts_fail():
    src = _FencedCatSource(CatState(1, 1), fence=0.0)
    cfg = MaximizeConfig(starts=4, seed=0, nmax=10, tail_eps=1.0)
    with pytest.raises(TailTooLarge):
        maximize_bell(src, PartitionScheme.zero_nonzero(), cfg)


def test_cirelson_ceiling_500_random_valid_inputs():
    count = 0
    while count < 500:
        kind = count % 3
        a1 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        a2 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        b1 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        b2 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        s = BellSettings(a1, a2, b1, b2)
        if kind == 0:
            g1 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            g2 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            fn = lambda x, y: cat_portrait_even_odd(CatState(g1, g2), x, y)
        elif kind == 1:
            g1 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            g2 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            fn = lambda x, y: cat_portrait_zero_nonzero(CatState(g1, g2), x, y)
        else:
            spec = gaussian_purity_family(rng.uniform(0.5, 1.5), rng.uniform(0, 0.1))
            even_odd = make_portrait_fn(spec, PartitionScheme.even_odd())
            fn = lambda x, y: even_odd(x, y)
        assert bell_number(bell_matrix(fn, s)) <= CEILING
        count += 1


def test_separability_soundness_coherent_products():
    for _ in range(50):
        g1 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        g2 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        fn = lambda x, y: coherent_portrait_even_odd(CoherentProduct(g1, g2), x, y)
        assert bell_number(bell_matrix(fn, _random_settings(2.0))) <= 2.0 + 1e-9
