"""Acceptance criteria, one test per criterion, run in order.

Each test prints one ``ACCEPTANCE nn: PASS/FAIL - detail`` line before its
assertion so a plain test log reads as a checklist. Criteria 3 and 8 encode
claimed bounds that the implementation measures and finds false; they are
kept at their stated values and fail honestly rather than being loosened.
Criterion 10 must stay last in this file: it audits the ceiling tracker over
every Bell number computed by the earlier criteria.
"""

import math

import numpy as np
import pytest

from tomobell import (
    BellSettings,
    CatState,
    CoherentProduct,
    FockOracleSource,
    GaussianSpec,
    HermiteParams,
    MaximizeConfig,
    NumericalNegativity,
    PartitionScheme,
    TSIRELSON_BOUND,
    bell_matrix,
    bell_number,
    cat_portrait_even_odd,
    cat_portrait_zero_nonzero,
    cat_tomogram,
    coherent_tomogram,
    gaussian_R,
    gaussian_portrait_even_odd,
    gaussian_purity_family,
    gaussian_tomogram_table,
    get_bell_high_water,
    hermite_eval,
    hermite_oracle,
    make_portrait_fn,
    make_source,
    maximize_bell,
)

R_TOL = 1e-10
ENTRY_TOL = 5e-3
B_TOL = 0.02
ORACLE_RTOL = 1e-10
MASS_TOL = 1e-4
SEPARABLE_TOL = 1e-9
CEILING_TOL = 1e-6

SQUEEZED_M = np.array([
    [3.0, math.sqrt(35) / 2, 0.0, 0.0],
    [math.sqrt(35) / 2, 3.0, 0.0, 0.0],
    [0.0, 0.0, 1.0, math.sqrt(3) / 2],
    [0.0, 0.0, math.sqrt(3) / 2, 1.0],
])

WORKED_SETTINGS = BellSettings(alpha1=-0.12j, alpha2=0.04j,
                               beta1=0.22j, beta2=-0.32j)

PRINTED_MG = np.array([
    [0.6199, 0.5907, 0.6083, 0.4678],
    [0.0222, 0.0515, 0.0291, 0.1696],
    [0.0241, 0.0395, 0.0357, 0.1624],
    [0.3335, 0.3181, 0.3266, 0.2000],
])


def _line(num: int, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_01_squeezed_hermite_matrix():
    a = (3 * math.sqrt(35) - 7 * math.sqrt(3)) / 42
    b = -(3 * math.sqrt(35) + 7 * math.sqrt(3)) / 42
    want = np.zeros((4, 4), dtype=complex)
    for i, j in ((0, 1), (1, 0), (2, 3), (3, 2)):
        want[i, j] = a
    for i, j in ((0, 3), (3, 0), (1, 2), (2, 1)):
        want[i, j] = b
    got = gaussian_R(SQUEEZED_M)
    err = float(np.max(np.abs(got - want)))
    assert _line(1, err <= R_TOL,
                 f"squeezed-state Hermite coefficient matrix, max error {err:.3e}")


def test_criterion_02_printed_bell_matrix_reproduction():
    src = make_source(GaussianSpec(SQUEEZED_M))
    fn = make_portrait_fn(src, PartitionScheme.even_odd(), nmax=30,
                          prefer_closed_form=False)
    m = bell_matrix(fn, WORKED_SETTINGS)
    entry_err = float(np.max(np.abs(m.matrix - PRINTED_MG)))
    b = bell_number(m)
    ok = entry_err <= ENTRY_TOL and abs(b - 2.26) <= B_TOL
    assert _line(2, ok,
                 f"worked Bell matrix: max entry error {entry_err:.2e}, B = {b:.6f}")


def test_criterion_03_squeezed_zero_nonzero_box_ceiling():
    # claim under test: with zero-nonzero counting and displacement
    # settings confined to the box |Re|,|Im| <= 2, the squeezed example
    # never exceeds the classical bound 2. The optimizer refutes this:
    # the maximum sits near 2.4709 at real in-box settings, so this
    # criterion fails and is preserved as a faithful record.
    r = maximize_bell(GaussianSpec(SQUEEZED_M), PartitionScheme.zero_nonzero(),
                      MaximizeConfig(box=2.0, starts=64, seed=0))
    ok = r.f <= 2.0 + 1e-3
    assert _line(3, ok,
                 f"squeezed zero-nonzero box maximum {r.f:.9f} vs claimed bound 2")


def test_criterion_04_large_cat_maxima():
    eo = PartitionScheme.even_odd()
    f10 = maximize_bell(CatState(math.sqrt(10), math.sqrt(10)), eo,
                        MaximizeConfig(starts=24, seed=0)).f
    f50 = maximize_bell(CatState(math.sqrt(50), math.sqrt(50)), eo,
                        MaximizeConfig(starts=24, seed=0)).f
    ok = (2.65 <= f10 < TSIRELSON_BOUND) and (2.73 <= f50 < TSIRELSON_BOUND)
    assert _line(4, ok,
                 f"large-cat even-odd maxima f(10)={f10:.6f} f(50)={f50:.6f}")


def test_criterion_05_cat_zero_nonzero_violation():
    zn = PartitionScheme.zero_nonzero()
    fs = [maximize_bell(CatState(g, g), zn, MaximizeConfig(starts=32, seed=0)).f
          for g in (0.5, 1.0, 1.5)]
    ok = all(f > 2.0 - 1e-6 for f in fs)
    assert _line(5, ok,
                 "cat zero-nonzero maxima " + " ".join(f"{f:.6f}" for f in fs))


def test_criterion_06_purity_family_trend():
    eo = PartitionScheme.even_odd()
    ls = (0.0, 0.01, 0.04, 0.07)
    ok = True
    heads = []
    for k in (0.6, 0.9, 1.2):
        fs = [maximize_bell(gaussian_purity_family(k, l), eo,
                            MaximizeConfig(starts=16, seed=0)).f for l in ls]
        heads.append(fs[0])
        if any(fs[i + 1] > fs[i] + 1e-6 for i in range(len(fs) - 1)):
            ok = False
    if not any(h > 2.0 for h in heads):
        ok = False
    assert _line(6, ok,
                 "family maxima non-increasing in admixture, pure heads "
                 + " ".join(f"{h:.6f}" for h in heads))


def test_criterion_07_closed_forms_match_oracles():
    rng = np.random.default_rng(11)
    worst = 0.0

    done = 0
    while done < 200:
        k = tuple(int(v) for v in rng.integers(0, 7, 4))
        if sum(k) > 6:
            continue
        raw = rng.uniform(-1, 1, (4, 4)) + 1j * rng.uniform(-1, 1, (4, 4))
        ctx = HermiteParams((raw + raw.T) / 2,
                            rng.uniform(-1, 1, 4) + 1j * rng.uniform(-1, 1, 4))
        got = hermite_eval(ctx, k)
        want = hermite_oracle(ctx, k)
        worst = max(worst, abs(got - want) / max(abs(want), 1e-12))
        done += 1

    for _ in range(100):
        g1, g2 = (complex(*rng.uniform(-1.2, 1.2, 2)) for _ in range(2))
        a1, a2 = (complex(*rng.uniform(-1.2, 1.2, 2)) for _ in range(2))
        n1, n2 = (int(v) for v in rng.integers(0, 6, 2))
        cat = CatState(g1, g2)
        coh = CoherentProduct(g1, g2)
        for state, fn in ((cat, cat_tomogram), (coh, coherent_tomogram)):
            got = fn(state, n1, n2, a1, a2)
            want = FockOracleSource(state).tomogram(n1, n2, a1, a2)
            worst = max(worst, abs(got - want) / max(abs(want), 1e-12))

    nbar1, nbar2 = 0.8, 2.3
    thermal = GaussianSpec(np.diag([nbar1 + 0.5, nbar2 + 0.5,
                                    nbar1 + 0.5, nbar2 + 0.5]))
    table = gaussian_tomogram_table(thermal, 0j, 0j, 15)
    for n1 in range(16):
        for n2 in range(16):
            want = (nbar1 ** n1 / (nbar1 + 1) ** (n1 + 1)
                    * nbar2 ** n2 / (nbar2 + 1) ** (n2 + 1))
            worst = max(worst, abs(table[n1, n2] - want) / max(want, 1e-12))

    assert _line(7, worst <= ORACLE_RTOL,
                 f"closed forms vs oracles, worst relative error {worst:.3e}")


def test_criterion_08_truncation_mass_box_bound():
    # claim under test: truncating the squeezed-state photon table at
    # nmax = 30 leaves a residue below 1e-4 anywhere in the settings box.
    # That holds at the worked-example settings (residue ~7e-6) but not
    # across the box: sampled clean points reach residues above 1e-3, and
    # most box points fail the table negativity guard outright. The
    # squeezed example is no physical state (it violates the symplectic
    # uncertainty relations), and those refusals are real negative entries
    # of its table, not rounding artifacts. Kept at the stated bound as a
    # faithful record; expected to fail.
    spec = GaussianSpec(SQUEEZED_M)
    anchors = [(0j, 0j), (-0.12j, 0.04j), (-0.12j, -0.32j),
               (0.22j, 0.04j), (0.22j, -0.32j)]
    samples = []
    for a1, a2 in anchors:
        samples.append(float(gaussian_tomogram_table(spec, a1, a2, 30).sum()))

    rng = np.random.default_rng(20260816)
    draws = 0
    while len(samples) < 17 and draws < 400:
        draws += 1
        x = rng.uniform(-2.0, 2.0, 4)
        try:
            table = gaussian_tomogram_table(spec, complex(x[0], x[1]),
                                            complex(x[2], x[3]), 30)
        except NumericalNegativity:
            continue
        samples.append(float(table.sum()))

    deficits = [abs(1.0 - m) for m in samples]
    worst = max(deficits)
    bad = sum(1 for d in deficits if d > MASS_TOL)
    assert _line(8, worst <= MASS_TOL,
                 f"box truncation residue: {bad}/{len(deficits)} samples over "
                 f"{MASS_TOL:g}, worst {worst:.3e}")


def test_criterion_09_separable_products_bounded():
    rng = np.random.default_rng(23)
    partitions = (PartitionScheme.zero_nonzero(), PartitionScheme.even_odd())
    worst_b = 0.0
    worst_fact = 0.0
    for i in range(50):
        g1, g2 = (complex(*rng.uniform(-1.5, 1.5, 2)) for _ in range(2))
        part = partitions[i % 2]
        fn = make_portrait_fn(make_source(CoherentProduct(g1, g2)), part)
        s = BellSettings(*(complex(*rng.uniform(-2, 2, 2)) for _ in range(4)))
        m = bell_matrix(fn, s)
        worst_b = max(worst_b, bell_number(m))
        for col in m.matrix.T:
            worst_fact = max(worst_fact, abs(col[0] * col[3] - col[1] * col[2]))
    ok = worst_b <= 2.0 + SEPARABLE_TOL and worst_fact <= SEPARABLE_TOL
    assert _line(9, ok,
                 f"50 coherent products: max B {worst_b:.12f}, "
                 f"max factorization defect {worst_fact:.2e}")


def test_criterion_10_tsirelson_ceiling():
    # fresh sweep over random valid states and settings, then the audit:
    # the module-level high-water mark has seen every Bell number computed
    # in this file (this test is last), and none may top 2*sqrt(2)
    rng = np.random.default_rng(31)
    worst = 0.0
    for i in range(500):
        s = BellSettings(*(complex(*rng.uniform(-2, 2, 2)) for _ in range(4)))
        kind = i % 3
        if kind == 0:
            state = CatState(complex(*rng.uniform(-1.5, 1.5, 2)),
                             complex(*rng.uniform(-1.5, 1.5, 2)))
            fn = lambda a1, a2: cat_portrait_even_odd(state, a1, a2)
        elif kind == 1:
            state = CatState(complex(*rng.uniform(-1.5, 1.5, 2)),
                             complex(*rng.uniform(-1.5, 1.5, 2)))
            fn = lambda a1, a2: cat_portrait_zero_nonzero(state, a1, a2)
        else:
            fam = gaussian_purity_family(0.5 + rng.uniform(0, 1.0),
                                         rng.uniform(0, 0.1))
            fn = lambda a1, a2: gaussian_portrait_even_odd(fam, a1, a2)
        worst = max(worst, bell_number(bell_matrix(fn, s)))

    high_water = get_bell_high_water()
    ok = worst <= TSIRELSON_BOUND + CEILING_TOL and high_water <= TSIRELSON_BOUND + CEILING_TOL
    assert _line(10, ok,
                 f"sweep max {worst:.6f}, session high-water {high_water:.6f}, "
                 f"ceiling {TSIRELSON_BOUND:.6f}")
