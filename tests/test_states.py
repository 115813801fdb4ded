"""State definitions, tomogram evaluators, and their oracles."""

import cmath
import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tomobell.errors import (
    InvalidParameter,
    NonPhysicalSpec,
    NumericalNegativity,
    UnsupportedState,
)
from tomobell.hermite import HermiteParams, hermite_box
from tomobell.portrait import PartitionScheme, make_portrait_fn, portrait_truncated
from tomobell.states import (
    DET_BOUND_SLACK,
    CatState,
    CoherentProduct,
    CoherentSource,
    GaussianSpec,
    TomogramSource,
    _cat_norm2,
    cat_tomogram,
    coherent_superposition_table,
    coherent_superposition_terms,
    coherent_tomogram,
    gaussian_effective_mean,
    gaussian_purity_family,
    gaussian_tomogram,
    gaussian_tomogram_table,
    load_state,
    make_source,
    parse_state,
)

from oracles import (
    SQUEEZED_M,
    DegenerateGaussian,
    FockOracleSource,
    displaced_thermal,
    displacement_operator,
    eigvalsh_det_refusal,
    fock_oracle_tomogram,
    gaussian_R,
    gaussian_shifted_mean,
    gaussian_y,
    mp_superposition_tomogram,
    physical_gaussians,
    random_physical_gaussian,
    two_mode_squeezed_vacuum,
)

ORACLE_TOL = 1e-10
GEOMETRIC_TOL = 1e-10

rng = np.random.default_rng(23)


def _random_amplitude(scale=1.5):
    return complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale))


# --- cat and coherent tomograms against the Fock-expansion oracle ----------


def test_cat_tomogram_matches_fock_oracle():
    for _ in range(100):
        s = CatState(_random_amplitude(), _random_amplitude())
        oracle = FockOracleSource(s)
        n1, n2 = int(rng.integers(0, 8)), int(rng.integers(0, 8))
        a1, a2 = _random_amplitude(), _random_amplitude()
        got = cat_tomogram(s, n1, n2, a1, a2)
        want = oracle.tomogram(n1, n2, a1, a2)
        assert abs(got - want) <= ORACLE_TOL * max(want, 1e-12)


def test_coherent_tomogram_matches_fock_oracle():
    for _ in range(100):
        s = CoherentProduct(_random_amplitude(), _random_amplitude())
        oracle = FockOracleSource(s)
        n1, n2 = int(rng.integers(0, 8)), int(rng.integers(0, 8))
        a1, a2 = _random_amplitude(), _random_amplitude()
        got = coherent_tomogram(s, n1, n2, a1, a2)
        want = oracle.tomogram(n1, n2, a1, a2)
        assert abs(got - want) <= ORACLE_TOL * max(want, 1e-12)


def test_coherent_tomogram_is_product_of_poissons():
    s = CoherentProduct(0.7 - 0.2j, -0.4 + 1.1j)
    a1, a2 = 0.3 + 0.5j, -0.8 + 0.1j
    lam1 = abs(s.gamma1 + a1) ** 2
    lam2 = abs(s.gamma2 + a2) ** 2
    for n1 in range(5):
        for n2 in range(5):
            want = (math.exp(-lam1) * lam1 ** n1 / math.factorial(n1)
                    * math.exp(-lam2) * lam2 ** n2 / math.factorial(n2))
            got = coherent_tomogram(s, n1, n2, a1, a2)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-300)


def test_cat_tomogram_sign_flip_invariance():
    # |g1,g2> + |-g1,-g2> is unchanged under (g1,g2) -> (-g1,-g2)
    s = CatState(1.2 + 0.3j, -0.5 + 0.8j)
    flipped = CatState(-s.gamma1, -s.gamma2)
    for _ in range(10):
        n1, n2 = int(rng.integers(0, 6)), int(rng.integers(0, 6))
        a1, a2 = _random_amplitude(), _random_amplitude()
        assert cat_tomogram(s, n1, n2, a1, a2) == pytest.approx(
            cat_tomogram(flipped, n1, n2, a1, a2), rel=1e-12, abs=1e-300)


def test_cat_table_normalizes():
    s = CatState(1.0 + 0j, 0.5 + 0.5j)
    table = make_source(s).tomogram_table(0.2 - 0.1j, -0.3 + 0.4j, 25)
    assert table.shape == (26, 26)
    assert np.all(table >= 0)
    assert table.sum() == pytest.approx(1.0, abs=1e-9)


def test_cat_table_matches_scalar_log_branch():
    # at large amplitudes (|gamma|^2 = 50) as at small ones: the scalar and
    # the table sum the same amplitudes of modulus <= 1, one entry or all
    for s in (CatState(math.sqrt(50), math.sqrt(50)), CatState(5.0, 5.0j),
              CatState(1.0 + 0.5j, -0.7)):
        src = make_source(s)
        for a1, a2 in ((0j, 0j), (1.7 - 1.2j, -1.9 + 0.6j), (-2 + 2j, 2 - 0.5j)):
            table = src.tomogram_table(a1, a2, 30)
            want = np.array([[cat_tomogram(s, n1, n2, a1, a2) for n2 in range(31)]
                             for n1 in range(31)])
            assert np.max(np.abs(table - want)) <= 1e-14


def test_coherent_table_matches_scalar():
    s = CoherentProduct(1.2 - 0.4j, -0.3 + 0.9j)
    table = make_source(s).tomogram_table(1.5 + 0.5j, -1 + 1j, 30)
    want = np.array([[coherent_tomogram(s, n1, n2, 1.5 + 0.5j, -1 + 1j)
                      for n2 in range(31)] for n1 in range(31)])
    assert np.max(np.abs(table - want)) <= 1e-14


def test_coherent_table_and_scalar_at_a_zero_amplitude():
    # alpha1 = -gamma1 displaces mode 1 to the vacuum, where log|mu| is
    # undefined: the table and the scalar take their branch for it
    s = CoherentProduct(0.3, 0)
    want = np.zeros((4, 4))
    want[0, 0] = 1.0
    assert np.array_equal(coherent_superposition_table(s, -0.3, 0, 3), want)
    assert coherent_tomogram(s, 0, 0, -0.3, 0) == 1.0
    assert coherent_tomogram(s, 1, 0, -0.3, 0) == 0.0


@pytest.mark.filterwarnings("error")
def test_huge_displacements_raise_overflow_error():
    # float ** raises where a square leaves the float range; the library
    # lets that OverflowError through, and the CLI reports it (exit 3).
    # The scalar route raises it before any numpy warning
    cat, coherent = CatState(1, 1), CoherentProduct(0.5, 0.5j)
    with pytest.raises(OverflowError):
        cat_tomogram(cat, 1, 0, 1e200, 0)
    with pytest.raises(OverflowError):
        cat_tomogram(CatState(1e200, 1), 1, 0, 0, 0)
    with pytest.raises(OverflowError):
        coherent_tomogram(coherent, 1, 0, 1e200, 0)
    # finite amplitude and setting whose sum alpha + gamma is infinite:
    # its square does not raise, and the rows would be NaN
    far = CoherentProduct(1e308, 0)
    with pytest.raises(OverflowError):
        coherent_tomogram(far, 1, 0, 1e308, 0)
    with pytest.raises(OverflowError):
        coherent_superposition_table(far, 1e308, 0, 2)


# 60 digits hold N = 1/sqrt(2 (1 + e^(-2S))) far beyond a float's 53 bits
CAT_NORM_ULPS = 2


def test_cat_norm_is_within_2_ulp_of_60_digit_mpmath():
    # through log cosh S, N lost up to 2.9e-14 relative (about 185 ulp) to
    # cancellation at S of several hundred; S is log-uniform over
    # [1e-10, 700], split between the modes at a random angle, each
    # amplitude at a random phase
    draws = np.random.default_rng(30)
    worst = 0.0
    for log_s in np.append(draws.uniform(math.log(1e-10), math.log(700.0), 2000),
                           [math.log(1e-10), math.log(700.0)]):
        root, split = math.sqrt(math.exp(log_s)), draws.uniform(0.0, math.pi / 2)
        g1, g2 = (root * r * cmath.exp(2j * math.pi * draws.random())
                  for r in (math.cos(split), math.sin(split)))
        (norm, _, _), _ = coherent_superposition_terms(CatState(g1, g2))
        S = abs(g1) ** 2 + abs(g2) ** 2
        with mpmath.workdps(60):
            want = 1 / mpmath.sqrt(2 * (1 + mpmath.exp(-2 * mpmath.mpf(S))))
            ulps = float(abs(mpmath.mpf(norm) - want)) / math.ulp(float(want))
        worst = max(worst, ulps)
    assert worst <= CAT_NORM_ULPS


def test_cat_closed_forms_take_the_terms_normalization():
    # one N^2 for the cat's terms and its closed-form portraits, bit for bit
    for g1, g2 in ((1.0, 1.0), (0.7 + 0.3j, -0.5 + 0.2j), (0j, 0j), (math.sqrt(50), 5j),
                   (20.0, 0.1j)):
        cat = CatState(g1, g2)
        n2 = _cat_norm2(abs(g1) ** 2 + abs(g2) ** 2)
        assert coherent_superposition_terms(cat)[0][0] == math.sqrt(n2)
        for p in (PartitionScheme.even_odd(), PartitionScheme.zero_nonzero()):
            assert make_portrait_fn(cat, p)._norm2 == n2


def test_vacuum_cat_tomogram_at_origin():
    s = CatState(0j, 0j)
    assert cat_tomogram(s, 0, 0, 0j, 0j) == pytest.approx(1.0, abs=1e-12)
    assert cat_tomogram(s, 1, 0, 0j, 0j) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("state, n1, n2, a1, a2", [
    # (a1 + g1)^60 (a2 + g2)^60 overflows a float
    (CatState(1, 1), 60, 60, 20 + 0j, 20 + 0j),
    # exp(-|a1|^2) / (4 n1! n2! cosh S) underflows to 0
    (CatState(1 + 1j, 0.5), 40, 0, 30 + 0j, 0j),
])
def test_cat_tomogram_outside_the_float_range_of_the_direct_product(state, n1, n2, a1, a2):
    # the paper's closed product, evaluated directly in floats, overflows on
    # the first and underflows to 0.0 on the second; the scalar multiplies
    # amplitudes of modulus <= 1 and leaves the float range on neither
    got = cat_tomogram(state, n1, n2, a1, a2)
    want = FockOracleSource(state).tomogram(n1, n2, a1, a2)
    entry = make_source(state).tomogram_table(a1, a2, max(n1, n2))[n1, n2]
    assert 0.0 < want < 1e-170
    # relative bounds: pytest.approx would also allow an absolute 1e-12
    assert abs(got - want) <= 1e-10 * want
    assert abs(got - entry) <= 1e-10 * want


# 60-digit mpmath holds the closed product exactly enough; the scalar is
# held to this relative error wherever the value is above MP_FLOOR
MP_RTOL = 1e-10
MP_FLOOR = 1e-290


def _mp_draws(count=300, seed=29):
    """(state, n1, n2, alpha1, alpha2): cats and coherent products with
    |gamma_j| components up to 6, so that |g1|^2 + |g2|^2 > 30 on about one
    draw in six, counts up to 80 and |alpha| up to 25; then the two
    float-range cases of the closed product, and two exact zeros."""
    draws = np.random.default_rng(seed)
    for _ in range(count):
        kind = CatState if draws.random() < 0.5 else CoherentProduct
        scale = draws.uniform(0.0, 6.0)
        g1, g2 = (complex(*draws.uniform(-scale, scale, 2)) for _ in range(2))
        # |alpha| = 25 u^2 keeps most draws where the value is a normal float
        a1, a2 = (25 * draws.random() ** 2 * cmath.exp(2j * math.pi * draws.random())
                  for _ in range(2))
        yield kind(g1, g2), int(draws.integers(0, 81)), int(draws.integers(0, 81)), a1, a2
    yield CatState(1, 1), 60, 60, 20 + 0j, 20 + 0j
    yield CatState(1 + 1j, 0.5), 40, 0, 30 + 0j, 0j
    # mode 1 in the vacuum at alpha1 = 0 has no photon to count
    yield CatState(0, 6), 1, 3, 0j, 0.5 - 1j
    # alpha1 = -gamma1 kills the term of +gamma1; the other one remains
    yield CatState(1.5 - 0.5j, 2), 2, 1, -1.5 + 0.5j, 0.3j


def test_superposition_scalar_matches_60_digit_mpmath():
    # the Fock oracle computes the scalar's own formula; mpmath's closed
    # product does not, and it has no float range to leave
    checked = large = 0
    for state, n1, n2, a1, a2 in _mp_draws():
        scalar = cat_tomogram if isinstance(state, CatState) else coherent_tomogram
        got = scalar(state, n1, n2, a1, a2)
        want = mp_superposition_tomogram(state, n1, n2, a1, a2)
        assert abs(got - want) <= MP_RTOL * max(want, MP_FLOOR), (state, n1, n2, a1, a2)
        checked += want > MP_FLOOR
        large += abs(state.gamma1) ** 2 + abs(state.gamma2) ** 2 > 30
    assert checked >= 250 and large >= 30
    assert cat_tomogram(CatState(0, 6), 1, 3, 0j, 0.5 - 1j) == 0.0


BOX_SETTINGS = ((0j, 0j), (1.7 - 1.2j, -1.9 + 0.6j), (-2 + 2j, 2 - 0.5j))
# the squeezed example's tables are refused at the box corners
WORKED_SETTINGS = ((-0.12j, 0.04j), (0.22j, -0.32j), (1j, 0j))


@pytest.mark.parametrize("state, settings", [
    (CatState(1.0 + 0.5j, -0.7), BOX_SETTINGS),
    (CatState(math.sqrt(50), 0.5j), BOX_SETTINGS),
    (CoherentProduct(1.2 - 0.4j, -0.3 + 0.9j), BOX_SETTINGS),
    (gaussian_purity_family(0.9, 0.04), BOX_SETTINGS),
    (GaussianSpec(SQUEEZED_M, np.zeros(4)), WORKED_SETTINGS),
], ids=["cat", "cat-log-branch", "coherent", "family", "squeezed"])
def test_library_source_scalar_is_its_table_entry(state, settings):
    # the scalar route ``tomobell tomogram`` prints; a Gaussian scalar is
    # read from the table, so it must be that entry bit for bit
    src = make_source(state)
    exact = isinstance(state, GaussianSpec)
    for a1, a2 in settings:
        for n1, n2 in ((0, 0), (3, 0), (0, 5), (7, 4), (15, 15), (30, 12)):
            got = src.tomogram(n1, n2, a1, a2)
            entry = float(src.tomogram_table(a1, a2, max(n1, n2))[n1, n2])
            if exact:
                assert got == entry
            else:
                assert abs(got - entry) <= 1e-14


# --- Gaussian machinery -----------------------------------------------------


def test_gaussian_R_reproduces_printed_pattern():
    a = (3 * math.sqrt(35) - 7 * math.sqrt(3)) / 42
    b = -(3 * math.sqrt(35) + 7 * math.sqrt(3)) / 42
    want = np.zeros((4, 4))
    want[0, 1] = want[1, 0] = want[2, 3] = want[3, 2] = a
    want[0, 3] = want[3, 0] = want[1, 2] = want[2, 1] = b
    got = gaussian_R(SQUEEZED_M)
    assert np.max(np.abs(got - want)) < 1e-10


def test_gaussian_y_worked_value():
    g = GaussianSpec(SQUEEZED_M, np.zeros(4))
    y = gaussian_y(SQUEEZED_M, gaussian_shifted_mean(g, 1j, 0j))
    want = np.array([1.0, -math.sqrt(3), 1.0, -math.sqrt(3)])
    assert np.max(np.abs(y - want)) < 1e-10


def test_degenerate_gaussian_refused():
    # at the vacuum M = I/2, I - 2M vanishes and the Hermite route is
    # undefined; the tomogram, read from the table, is the coherent
    # product's Poisson weight e^(-|alpha|^2)
    vacuum = np.eye(4) / 2
    with pytest.raises(DegenerateGaussian):
        gaussian_y(vacuum, np.zeros(4))
    w = gaussian_tomogram(GaussianSpec(vacuum), 0, 0, 0.3j, 0j)
    assert w == pytest.approx(math.exp(-0.09), rel=1e-15)


# ids by public name: cat_tomogram and coherent_tomogram are one function,
# whose __name__ would give both cases the same id
@pytest.mark.parametrize("tomogram, state", [
    (cat_tomogram, CatState(1, 1)),
    (coherent_tomogram, CoherentProduct(1, 1)),
    (fock_oracle_tomogram, CatState(1, 1)),
    (gaussian_tomogram, gaussian_purity_family(0.9, 0.0)),
], ids=["cat_tomogram-state0", "coherent_tomogram-state1",
        "fock_oracle_tomogram-state2", "gaussian_tomogram-state3"])
@pytest.mark.parametrize("bad", [2.5, True, -1])
def test_scalar_tomograms_refuse_a_bad_photon_count(tomogram, state, bad):
    # int(2.5) and True would otherwise be read as the counts 2 and 1
    with pytest.raises(ValueError, match="n1"):
        tomogram(state, bad, 0, 0.1j, 0j)
    with pytest.raises(ValueError, match="n2"):
        tomogram(state, 0, bad, 0.1j, 0j)


def test_degenerate_gaussian_guard_is_scale_invariant():
    # I - 2M = 1e-8 * ones is a tiny multiple of a singular matrix and is
    # refused; I - 2M = 1e-3 * I is small but well conditioned and is not
    with pytest.raises(DegenerateGaussian):
        gaussian_y((np.eye(4) - 1e-8 * np.ones((4, 4))) / 2, np.zeros(4))
    y = gaussian_y((1.0 - 1e-3) * np.eye(4) / 2, np.ones(4))
    assert np.all(np.isfinite(y))


def test_gaussian_R_and_y_reject_malformed_M():
    for bad in (np.eye(3), np.ones(4), np.where(np.eye(4) > 0, np.nan, 0.0)):
        with pytest.raises(ValueError):
            gaussian_R(bad)
        with pytest.raises(ValueError):
            gaussian_y(bad, np.zeros(4))


def test_thermal_diagonal_is_geometric():
    nbar1, nbar2 = 0.8, 2.3
    m = np.diag([nbar1 + 0.5, nbar2 + 0.5, nbar1 + 0.5, nbar2 + 0.5])
    g = GaussianSpec(m, np.zeros(4))
    table = gaussian_tomogram_table(g, 0j, 0j, 15)
    for n1 in range(16):
        for n2 in range(16):
            want = (nbar1 ** n1 / (nbar1 + 1) ** (n1 + 1)
                    * nbar2 ** n2 / (nbar2 + 1) ** (n2 + 1))
            assert abs(table[n1, n2] - want) <= GEOMETRIC_TOL * max(want, 1e-12)


def test_displaced_thermal_table_matches_laguerre_form():
    nbar1, nbar2 = 0.8, 2.3
    g = GaussianSpec(np.diag([nbar1 + 0.5, nbar2 + 0.5, nbar1 + 0.5, nbar2 + 0.5]))
    for a1, a2 in ((1.7 - 1.2j, -1.9 + 0.6j), (-2 + 2j, 0.4j), (0j, 0j)):
        table = gaussian_tomogram_table(g, a1, a2, 30)
        want = np.outer(displaced_thermal(nbar1, a1, 30), displaced_thermal(nbar2, a2, 30))
        err = np.abs(table - want)
        assert err.max() <= 1e-14
        # criterion 7's relative metric and bound
        assert np.max(err / np.maximum(want, 1e-12)) <= ORACLE_TOL


def test_two_mode_squeezed_vacuum_table():
    # P(n, n) = tanh^2n(r) / cosh^2(r) and nothing off the diagonal; the
    # purity family at l = 0 is its mirror p2 -> -p2, with the same counts
    # at zero displacement
    for r in (0.3, 0.7, 1.1):
        k = math.cosh(2 * r) / 2
        want = np.diag(math.tanh(r) ** (2 * np.arange(31)) / math.cosh(r) ** 2)
        for g in (two_mode_squeezed_vacuum(r), gaussian_purity_family(k, 0.0)):
            table = gaussian_tomogram_table(g, 0j, 0j, 30)
            assert np.max(np.abs(table - want)) <= 1e-14


# At box-scale settings the table of a strongly squeezed TMSV misses the
# bound: its exp recurrence cancels about nine digits there (ROADMAP
# item 2). The marks keep that measured loss in view; strict, so a fix
# shows as XPASS.
_TABLE_LOSS = pytest.mark.xfail(
    strict=True, reason="the exp recurrence loses 1e-10 to 2e-9 here (1e-6 at other draws)")


@pytest.mark.parametrize("r, scale", [
    (0.3, 0.35), (0.7, 0.35), (1.1, 0.35), (1.4, 0.35), (0.3, 2.0), (0.7, 2.0),
    pytest.param(1.1, 2.0, marks=_TABLE_LOSS), pytest.param(1.4, 2.0, marks=_TABLE_LOSS),
])
def test_displaced_two_mode_squeezed_vacuum_matches_fock_oracle(r, scale):
    # a TMSV spec has the Fock amplitudes C = diag((-tanh r)^n / cosh r);
    # displaced by (a1, a2) they are D(a1) C D(a2)^T, here in 100 Fock
    # states per mode (200 moves no entry by more than 1e-16); 10
    # settings with |Re|, |Im| <= scale
    dim, nmax = 100, 30
    local = np.random.default_rng(29)
    tmsv = two_mode_squeezed_vacuum(r)
    amps = np.diag((-math.tanh(r)) ** np.arange(dim) / math.cosh(r))
    for _ in range(10):
        a1, a2 = (complex(*local.uniform(-scale, scale, 2)) for _ in range(2))
        c = displacement_operator(a1, dim) @ amps @ displacement_operator(a2, dim).T
        want = np.abs(c[: nmax + 1, : nmax + 1]) ** 2
        table = gaussian_tomogram_table(tmsv, a1, a2, nmax)
        assert np.max(np.abs(table - want)) <= 1e-11, (a1, a2)


# r = 0.3, n = (30, 30): the Hermite box's corner there carries an
# imaginary residue of 7.6e35 on a real part of 3.5e39, from which the
# paper's route cannot recover a value near 1e-30
_TMSV_BOX_DRAW = (0.3, -1.994 + 1.894j, -0.806 - 0.744j)


def test_gaussian_tomogram_is_the_table_entry():
    r, a1, a2 = _TMSV_BOX_DRAW
    tmsv = two_mode_squeezed_vacuum(r)
    specs = (GaussianSpec(SQUEEZED_M), gaussian_purity_family(0.9, 0.02),
             two_mode_squeezed_vacuum(0.7))
    settings = ((-0.12j, 0.04j), (1.5 + 0.5j, -1 + 1j), (-1.8 + 1.2j, 0.7 - 1.9j))
    counts = ((0, 0), (3, 1), (0, 15), (17, 4), (30, 30))
    cases = [(g, a, b) for g in specs for a, b in settings] + [(tmsv, a1, a2)]
    for g, a, b in cases:
        for n1, n2 in counts:
            try:
                want = gaussian_tomogram_table(g, a, b, max(n1, n2))[n1, n2]
            except NumericalNegativity:
                with pytest.raises(NumericalNegativity):
                    gaussian_tomogram(g, n1, n2, a, b)
                continue
            got = gaussian_tomogram(g, n1, n2, a, b)
            assert type(got) is float
            assert np.float64(got).view(np.int64) == want.view(np.int64), (g, a, b, n1, n2)
    # the draw against the displaced-TMSV Fock amplitudes
    dim = 100
    amps = np.diag((-math.tanh(r)) ** np.arange(dim) / math.cosh(r))
    c = displacement_operator(a1, dim) @ amps @ displacement_operator(a2, dim).T
    w = gaussian_tomogram(tmsv, 30, 30, a1, a2)
    assert 0.0 < w < 1e-29
    assert abs(w - abs(c[30, 30]) ** 2) <= 1e-11


def _hermite_table(g, a1, a2, nmax):
    # the paper's route: the (n1, n2, n1, n2) diagonal of a Hermite box
    ctx = HermiteParams(gaussian_R(g.M), gaussian_y(g.M, gaussian_shifted_mean(g, a1, a2)),
                        max_order=4 * nmax)
    box = hermite_box(ctx, (nmax + 1,) * 4)
    n = np.arange(nmax + 1)
    h = box[n[:, None], n[None, :], n[:, None], n[None, :]]
    mu = gaussian_effective_mean(g, a1, a2)
    prefactor = (math.exp(-mu @ np.linalg.inv(2 * g.M + np.eye(4)) @ mu)
                 / math.sqrt(np.linalg.det(g.M + np.eye(4) / 2)))
    fact = np.array([math.factorial(int(k)) for k in n], dtype=float)
    return prefactor * h / np.outer(fact, fact)


def test_gaussian_table_matches_hermite_box():
    for g in (GaussianSpec(SQUEEZED_M), gaussian_purity_family(0.9, 0.04)):
        for a1, a2 in ((0j, 0j), (-0.12j, 0.04j), (-0.12j, -0.32j),
                       (0.22j, 0.04j), (0.22j, -0.32j)):
            want = _hermite_table(g, a1, a2, 30)
            assert np.max(np.abs(want.imag)) <= 1e-13
            table = gaussian_tomogram_table(g, a1, a2, 30)
            assert np.max(np.abs(table - want.real)) <= 1e-13


def test_vacuum_noise_gaussian_table_is_coherent():
    # M = I/2 makes I - 2M singular, which the Hermite route cannot take;
    # the state is the coherent product at the mean
    mean = np.array([0.3, -1.1, 0.8, 0.5])
    g = GaussianSpec(np.eye(4) / 2, mean)
    coh = make_source(CoherentProduct(complex(mean[2], mean[0]) / math.sqrt(2),
                                      complex(mean[3], mean[1]) / math.sqrt(2)))
    for a1, a2 in ((0j, 0j), (1.5 + 0.5j, -1 + 1j), (-2 - 2j, 0.3j)):
        for nmax in (0, 1, 2, 30):
            table = gaussian_tomogram_table(g, a1, a2, nmax)
            assert table.shape == (nmax + 1, nmax + 1)
            want = coh.tomogram_table(a1, a2, nmax)
            assert np.max(np.abs(table - want)) <= 1e-14


def test_gaussian_table_mass_at_moderate_settings():
    g = GaussianSpec(SQUEEZED_M, np.zeros(4))
    table = gaussian_tomogram_table(g, -0.12j, 0.04j, 30)
    assert abs(table.sum() - 1.0) < 1e-4


def test_gaussian_table_negativity_guard():
    # the squeezed example passes det M >= 1/16 but violates the full
    # symplectic uncertainty relations, so it is no physical state: its
    # "table" here has truly negative entries, which the guard refuses
    g = GaussianSpec(SQUEEZED_M, np.zeros(4))
    with pytest.raises(NumericalNegativity):
        gaussian_tomogram_table(g, 1.5 + 0.5j, -1 + 1j, 30)


def _with(entries, base=np.eye(4) * 0.5):
    m = base.copy()
    for (i, j), v in entries.items():
        m[i, j] = v
    return m


# every refusal of GaussianSpec, with its exact message
SPEC_REFUSALS = {
    "shape-3x3": ((np.eye(3),), "M must be 4x4, got shape (3, 3)"),
    "shape-4x4x1": ((np.zeros((4, 4, 1)),), "M must be 4x4, got shape (4, 4, 1)"),
    "shape-4": (([1.0] * 4,), "M must be 4x4, got shape (4,)"),
    "nan-everywhere": ((np.full((4, 4), np.nan),), "M entries must be finite"),
    "nan-off-diagonal": ((_with({(2, 1): np.nan, (1, 2): np.nan}),), "M entries must be finite"),
    "inf": ((_with({(3, 3): np.inf}),), "M entries must be finite"),
    "minus-inf": ((_with({(0, 0): -np.inf}),), "M entries must be finite"),
    "asymmetric-0.3": ((_with({(0, 1): 0.3}),), "M deviates from symmetry by 3.000e-01 (> 1e-12)"),
    "asymmetric-2e-9": ((_with({(2, 3): 2e-9}),), "M deviates from symmetry by 2.000e-09 (> 1e-12)"),
    "asymmetric-3e-12": ((_with({(3, 1): -3e-12}),),
                         "M deviates from symmetry by 3.000e-12 (> 1e-12)"),
    # two negative eigenvalues leave det M = 1 above the uncertainty bound,
    # so only the eigenvalue check refuses this symmetric matrix
    "not-positive-definite": ((np.diag([1.0, 1.0, -1.0, -1.0]),),
                              "M must be positive definite, min eigenvalue -1.000e+00"),
    "singular": ((np.diag([0.5, 0.5, 0.5, 0.0]),),
                 "M must be positive definite, min eigenvalue 0.000e+00"),
    "det-0.0016": ((np.eye(4) * 0.2,), "det M = 0.001600000000 violates the uncertainty bound 1/16"),
    "det-0.0576": ((np.eye(4) * 0.49,), "det M = 0.057648010000 violates the uncertainty bound 1/16"),
    "mean-shape-3": ((np.eye(4) * 0.5, np.zeros(3)), "mean must be a finite 4-vector"),
    "mean-shape-4x1": ((np.eye(4) * 0.5, np.zeros((4, 1))), "mean must be a finite 4-vector"),
    "mean-scalar": ((np.eye(4) * 0.5, 5.0), "mean must be a finite 4-vector"),
    "mean-nan": ((np.eye(4) * 0.5, [0, 0, np.nan, 0]), "mean must be a finite 4-vector"),
    "mean-inf": ((np.eye(4) * 0.5, [np.inf, 0, 0, 0]), "mean must be a finite 4-vector"),
    "mean-tuple-minus-inf": ((np.eye(4) * 0.5, (0.0, 0.0, 0.0, -np.inf)),
                             "mean must be a finite 4-vector"),
}


@pytest.mark.parametrize("args, message", SPEC_REFUSALS.values(), ids=SPEC_REFUSALS.keys())
def test_gaussian_spec_refusals_keep_their_class_and_message(args, message):
    with pytest.raises(NonPhysicalSpec) as refused:
        GaussianSpec(*args)
    assert type(refused.value) is NonPhysicalSpec
    assert str(refused.value) == message


# The rounding band of the LDL^T checks: a matrix whose det M lies within
# DET_BAND (relative) of the bound 1/16 - DET_BOUND_SLACK, or whose smallest
# eigenvalue lies within EIG_BAND of the largest one from 0, may be decided
# either way by rounding. On 9,000 physical draws scaled across each bound
# (seed 1), the two routes disagreed only within 2.0e-14 of the det bound
# and 2.5e-16 of 0.
DET_BAND = 1e-13
EIG_BAND = 1e-15
DET_BOUND = 1.0 / 16.0 - DET_BOUND_SLACK


def _spec_refusal(m):
    """The message of GaussianSpec's refusal of m, or None."""
    try:
        GaussianSpec(m)
    except NonPhysicalSpec as exc:
        return str(exc)
    return None


def _ldlt_decision(m):
    """The decisions on m of the LDL^T route and of the eigvalsh and det
    route, each "accepted" or the check that refused ("positive definite"
    or "det"), or None for a matrix inside the rounding band."""
    eigs = np.linalg.eigvalsh(m)
    if abs(eigs[0]) <= EIG_BAND * eigs[-1] or abs(np.linalg.det(m) - DET_BOUND) <= DET_BAND * DET_BOUND:
        return None
    got, want = _spec_refusal(m), eigvalsh_det_refusal(m)
    if want is not None and want.startswith("M must be positive definite"):
        # the eigenvalues word this refusal on both routes
        assert got == want
    return tuple("accepted" if r is None else "positive definite" if "definite" in r else "det"
                 for r in (got, want))


def _straddles(m, sign, exponent):
    """m scaled to det = DET_BOUND (1 + 4 sign 10^exponent) or so, and m
    shifted to the smallest eigenvalue -sign 10^exponent lambda_min."""
    eigs = np.linalg.eigvalsh(m)
    scale = (DET_BOUND / np.linalg.det(m)) ** 0.25 * (1.0 + sign * 10.0 ** exponent)
    return scale * m, m - eigs[0] * (1.0 + sign * 10.0 ** exponent) * np.eye(4)


def test_ldlt_checks_decide_as_eigvalsh_and_det_do():
    # physical draws are accepted; scaled across det = 1/16 - 1e-10 and
    # shifted across lambda_min = 0 they are refused by the same check as
    # eigvalsh and det refuse them, outside the rounding band
    local = np.random.default_rng(2027)
    decisions, in_band = {}, 0
    for i in range(1500):
        m, _ = random_physical_gaussian(local)
        assert _ldlt_decision(m) == ("accepted", "accepted")
        for drawn in _straddles(m, (-1.0) ** i, local.uniform(-15.0, -8.0)):
            decision = _ldlt_decision(drawn)
            if decision is None:
                in_band += 1
                continue
            assert decision[0] == decision[1], drawn.tolist()
            decisions[decision[0]] = decisions.get(decision[0], 0) + 1
    # every decision on both sides of both bounds, few draws in the band
    assert min(decisions.values()) > 500 and len(decisions) == 3, decisions
    assert in_band < 750, in_band  # a quarter of the 3,000 straddling draws


def test_ldlt_checks_refuse_a_zero_pivot_at_every_step():
    # a pivot of 0 or below, as given or made by elimination, is refused
    # before anything is divided by it, in the words of eigvalsh
    refused = []
    for at in range(4):
        for value in (0.0, -0.0, -1e-300, -2.0):
            m = np.eye(4)
            m[at, at] = value
            refused.append(m)
        if at:
            # rows at - 1 and at equal: elimination leaves pivot `at` at 0
            m = np.eye(4)
            m[at - 1, at] = m[at, at - 1] = 1.0
            refused.append(m)
    for m in refused:
        refusal = _spec_refusal(m)
        assert refusal.startswith("M must be positive definite")
        assert refusal == eigvalsh_det_refusal(m)


@given(physical_gaussians(), st.sampled_from([-1.0, 1.0]), st.floats(min_value=-16.0, max_value=-8.0))
@settings(deadline=None, max_examples=200)
def test_physical_gaussian_strategy_is_decided_as_eigvalsh_and_det_decide(draw, sign, exponent):
    m, mean = draw
    g = GaussianSpec(m, mean)
    assert g.M.tobytes() == m.tobytes() and g.mean.tobytes() == mean.tobytes()
    assert _ldlt_decision(m) == ("accepted", "accepted")
    for drawn in _straddles(m, sign, exponent):
        decision = _ldlt_decision(drawn)
        assert decision is None or decision[0] == decision[1]


def test_gaussian_spec_reads_lists_ints_and_tuples_as_float_arrays():
    m = [[3, 1, 0, 0], [1, 3, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    near = np.array(m, dtype=float)
    near[0, 1] += 1e-13  # inside the symmetry tolerance: M is symmetrized
    for M, mean in ((m, None), (m, (1, -2, 0.5, 0)), (near, [0.1, 0.2, 0.3, 0.4]),
                    (SQUEEZED_M, np.arange(4.0))):
        g = GaussianSpec(M, mean)
        a = np.asarray(M, dtype=float)
        assert g.M.tobytes() == (0.5 * (a + a.T)).tobytes()
        expected_mean = np.zeros(4) if mean is None else np.asarray(mean, dtype=float)
        assert g.mean.tobytes() == expected_mean.tobytes()
        assert g.M.dtype == g.mean.dtype == np.float64
        assert not g.M.flags.writeable and not g.mean.flags.writeable
    # changing the caller's arrays afterwards leaves the spec as it was
    M, mean = np.array(SQUEEZED_M), np.arange(4.0)
    g = GaussianSpec(M, mean)
    M_bits, mean_bits = g.M.tobytes(), g.mean.tobytes()
    M[0, 0], mean[1] = 9.0, 9.0
    assert (g.M.tobytes(), g.mean.tobytes()) == (M_bits, mean_bits)


def test_purity_family_parameters():
    with pytest.raises(InvalidParameter):
        gaussian_purity_family(0.4, 0.0)
    with pytest.raises(InvalidParameter):
        gaussian_purity_family(1.0, -0.1)
    pure = gaussian_purity_family(0.9, 0.0)
    assert np.linalg.det(pure.M) == pytest.approx(1.0 / 16.0, rel=1e-12)
    mixed = gaussian_purity_family(0.9, 0.04)
    assert np.linalg.det(mixed.M) == pytest.approx((1 + 4 * 0.04) / 16.0, rel=1e-12)


def test_gaussian_mean_shifts_the_distribution():
    # moving the state's mean is the same as displacing in the opposite
    # direction through the measurement settings
    m = np.diag([0.9, 0.7, 0.9, 0.7])
    g0 = GaussianSpec(m, np.zeros(4))
    shift = np.array([0.3, -0.4, 0.5, 0.2])
    g1 = GaussianSpec(m, shift)
    # mean (p1, p2, q1, q2) maps to alpha = (q + i p)/sqrt(2) per mode
    a1 = complex(shift[2], shift[0]) / math.sqrt(2)
    a2 = complex(shift[3], shift[1]) / math.sqrt(2)
    t_shifted = gaussian_tomogram_table(g1, 0j, 0j, 12)
    t_displaced = gaussian_tomogram_table(g0, a1, a2, 12)
    assert np.max(np.abs(t_shifted - t_displaced)) < 1e-10


# --- state descriptions ------------------------------------------------------


def test_parse_state_cat_and_coherent():
    s = parse_state({"type": "cat", "gamma1": [1.0, -0.5], "gamma2": 2.0})
    assert isinstance(s, CatState)
    assert s.gamma1 == 1.0 - 0.5j
    assert s.gamma2 == 2.0 + 0j
    c = parse_state({"type": "coherent", "gamma1": 0.5, "gamma2": [0.0, 1.0]})
    assert isinstance(c, CoherentProduct)
    assert c.gamma2 == 1j


@pytest.mark.parametrize("cls", [CatState, CoherentProduct])
@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.5, -math.inf), complex(math.nan, 0.0),
                                 True, False])
def test_amplitudes_must_be_finite(cls, bad):
    # these used to be accepted and gave nan tomograms or a silent B = 0;
    # a bool read as the amplitude 1 or 0
    with pytest.raises(InvalidParameter, match="gamma1"):
        cls(bad, 1.0)
    with pytest.raises(InvalidParameter, match="gamma2"):
        cls(1j, bad)
    # json reads NaN and Infinity, so state files reach the same check
    doc = json.loads('{"type": "%s", "gamma1": [0.5, 0], "gamma2": Infinity}'
                     % ("cat" if cls is CatState else "coherent"))
    with pytest.raises(InvalidParameter, match="gamma2"):
        parse_state(doc)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.5, -math.inf),
                                 complex(math.nan, 0.0), complex(0.0, math.nan)])
def test_tomograms_and_closed_portraits_refuse_a_setting_that_is_not_finite(bad):
    # the cat and coherent scalars returned nan here, and the Gaussian one
    # and the closed-form portraits raised NumericalNegativity for values
    # that were not finite
    states = (CatState(1.0, 1.0), CoherentProduct(1.0, 1.0), gaussian_purity_family(0.8, 0.02))
    scalars = [(cat_tomogram, states[0]), (coherent_tomogram, states[1]), (gaussian_tomogram, states[2])]
    for scalar, state in scalars:
        with pytest.raises(InvalidParameter, match="alpha1 must be a finite number"):
            scalar(state, 0, 0, bad, 0.3j)
        with pytest.raises(InvalidParameter, match="alpha2 must be a finite number"):
            scalar(state, 1, 2, -0.2, bad)
    for state in states:
        for p in (PartitionScheme.even_odd(), PartitionScheme.zero_nonzero()):
            fn = make_portrait_fn(state, p)
            with pytest.raises(InvalidParameter, match="alpha1 must be a finite number"):
                fn(bad, 0.3j)
            with pytest.raises(InvalidParameter, match="alpha2 must be a finite number"):
                fn(-0.2, bad)


class _PoissonSource(TomogramSource):
    """A user source: the coherent product of amplitudes (0.5, 0.3i),
    by hand, with no check of its own on the settings."""

    def tomogram(self, n1, n2, alpha1, alpha2):
        w = 1.0
        for n, lam in ((n1, abs(alpha1 + 0.5) ** 2), (n2, abs(alpha2 + 0.3j) ** 2)):
            w *= math.exp(-lam) * lam ** n / math.factorial(n)
        return w


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.5, -math.inf),
                                 complex(math.nan, 0.0), complex(0.0, math.nan)])
def test_truncated_portraits_and_tables_refuse_a_setting_that_is_not_finite(bad):
    # these raised NumericalNegativity, after a numpy warning for an
    # infinity, or returned a table of NaN
    family = gaussian_purity_family(0.8, 0.02)
    tables = [(CatState(1.0, 1.0), coherent_superposition_table),
              (CoherentProduct(1.0, 1.0), coherent_superposition_table),
              (family, gaussian_tomogram_table),
              (_PoissonSource(), None)]
    for state, table in tables:
        routes = [lambda a1, a2: portrait_truncated(state, PartitionScheme(2, 2), a1, a2),
                  make_portrait_fn(state, PartitionScheme(1, 1))]
        if table is not None:
            routes.append(lambda a1, a2: table(state, a1, a2, 8))
        for route in routes:
            with pytest.raises(InvalidParameter, match="alpha1 must be a finite number"):
                route(bad, 0.3j)
            with pytest.raises(InvalidParameter, match="alpha2 must be a finite number"):
                route(-0.2, bad)


class _PoissonCoherentSource(CoherentSource):
    """A subclass of a library source whose tomograms, by hand, check nothing."""

    tomogram = _PoissonSource.tomogram


def test_truncated_portrait_checks_each_setting_once(monkeypatch):
    # a library source's table checked both settings after portrait_truncated
    # had; nmax and tail_eps are still refused first, and a source whose
    # table may not check still has its settings checked
    import tomobell.portrait
    import tomobell.states

    real = tomobell.states._check_finite
    names = []

    def counting(value, name):
        names.append(name)
        real(value, name)

    sources = [CatState(1.0, 1.0), CoherentProduct(1.0, 1.0), gaussian_purity_family(0.8, 0.02),
               _PoissonSource(), _PoissonCoherentSource(CoherentProduct(0.5, 0.3j))]
    monkeypatch.setattr(tomobell.states, "_check_finite", counting)
    monkeypatch.setattr(tomobell.portrait, "_check_finite", counting)
    p = PartitionScheme(2, 2)
    for src in sources:
        names.clear()
        portrait_truncated(src, p, -0.2, 0.3j, 8)
        assert names == ["alpha1", "alpha2"]
        with pytest.raises(InvalidParameter, match="nmax must be >= 1"):
            portrait_truncated(src, p, math.nan, math.nan, 0, 0.0)
        with pytest.raises(InvalidParameter, match="tail_eps must be > 0"):
            portrait_truncated(src, p, math.nan, math.nan, 8, 0.0)
        with pytest.raises(InvalidParameter, match="alpha1 must be a finite number"):
            portrait_truncated(src, p, math.nan, math.nan, 8)
        with pytest.raises(InvalidParameter, match="alpha2 must be a finite number"):
            portrait_truncated(src, p, -0.2, math.inf, 8)


@pytest.mark.filterwarnings("error")
def test_gaussian_table_at_a_huge_setting_raises_without_a_numpy_warning():
    # the displaced mean is formed on Python floats, so its overflow to
    # infinity warns nowhere, and the table refuses the mean's quadratic form
    # as the overflow it is
    family = gaussian_purity_family(0.8, 0.02)
    with pytest.raises(OverflowError, match="quadratic form leaves the float range"):
        gaussian_tomogram_table(family, 1.3e308, 0.0, 8)
    with pytest.raises(OverflowError, match="quadratic form leaves the float range"):
        portrait_truncated(family, PartitionScheme(1, 1), 1.3e308, 0.0)


def test_parse_state_gaussian_nested_and_flat():
    nested = parse_state({"type": "gaussian", "M": SQUEEZED_M.tolist()})
    flat = parse_state({"type": "gaussian", "M": SQUEEZED_M.ravel().tolist()})
    assert np.array_equal(nested.M, flat.M)
    assert np.array_equal(nested.mean, np.zeros(4))


def test_parse_state_family_and_errors():
    f = parse_state({"type": "gaussian_family", "k": 0.8, "l": 0.01})
    assert isinstance(f, GaussianSpec)
    with pytest.raises(ValueError):
        parse_state({"type": "galaxy"})
    with pytest.raises(ValueError):
        parse_state({"type": "cat", "gamma1": "one", "gamma2": 0})
    with pytest.raises(ValueError):
        parse_state([1, 2, 3])
    # json reads true as True, and float() reads True as 1.0 and "0.5" as 0.5
    m = SQUEEZED_M.tolist()
    for doc in (
        {"type": "cat", "gamma1": True, "gamma2": 0},
        {"type": "cat", "gamma1": [True, False], "gamma2": 0},
        {"type": "coherent", "gamma1": 0.5, "gamma2": [0, "1"]},
        {"type": "gaussian_family", "k": True, "l": 0},
        {"type": "gaussian_family", "k": "0.9", "l": 0},
        {"type": "gaussian_family", "k": 0.9},
        {"type": "gaussian", "M": [[True] + m[0][1:]] + m[1:]},
        {"type": "gaussian", "M": [["3"] + m[0][1:]] + m[1:]},
        {"type": "gaussian", "M": SQUEEZED_M.ravel().tolist()[:-1] + [True]},
        {"type": "gaussian", "M": m, "mean": [True, 0, 0, 0]},
        {"type": "gaussian", "M": m, "mean": [0, 0, "0.5", 0]},
    ):
        with pytest.raises(ValueError, match="must be a number"):
            parse_state(doc)


def test_parse_state_refuses_a_gaussian_of_the_wrong_size():
    m = SQUEEZED_M.ravel().tolist()
    with pytest.raises(ValueError, match="16 numbers"):
        parse_state({"type": "gaussian", "M": m[:15]})
    with pytest.raises(ValueError, match="4 numbers"):
        parse_state({"type": "gaussian", "M": m, "mean": [0, 0, 0]})


def test_load_state_roundtrip(tmp_path):
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"type": "cat", "gamma1": [1, 0], "gamma2": [1, 0]}))
    s = load_state(str(path))
    assert isinstance(s, CatState)
    assert s.gamma1 == 1 + 0j


def test_make_source_dispatch():
    assert make_source(CatState(1, 1)).tomogram_table(0j, 0j, 3).shape == (4, 4)
    with pytest.raises(UnsupportedState):
        make_source("not a state")


def test_fock_oracle_rejects_gaussian():
    with pytest.raises(UnsupportedState):
        FockOracleSource(GaussianSpec(SQUEEZED_M))
    # a list of (coeff, delta1, delta2) triples is no state either
    with pytest.raises(UnsupportedState):
        FockOracleSource([(1.0, 0.5, 0.5)])
