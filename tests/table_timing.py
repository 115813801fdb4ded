"""Per-table timings of the photon-number tables, and of Bell-number
assembly on closed forms, as ``timeit`` minima.

Usage::

    PYTHONPATH=src python3 tests/table_timing.py [REPEATS [SECTION ...]]

runs the named sections (``tables``, ``closed_forms``, ``bell_sweep``), or
all three in that order when none is named. Each line is the minimum over
REPEATS (default 25) runs of about 5 ms each.

At ``nmax`` 15 and 30 (``tables``), it prints one call of:

- ``gaussian_tomogram_table`` on the paper's squeezed example at the
  worked-example settings (-0.12i, 0.04i), and on a purity-family member
  (k = 0.8, l = 0.02) at the same settings. These specs are warm: they
  keep their polynomials and their series 1/Delta and log Delta between
  calls, so the lines time only the work that depends on the settings;
- the same family table on a cold spec, built afresh for every call,
  which also pays for the spec's checks, its polynomials and its series
  (the warm lines alone would hide that cost, which a caller that makes
  one table per spec pays every time);
- ``coherent_superposition_table`` on a cat state and on a coherent
  product (amplitudes 0.7 + 0.3i and -0.5 + 0.2i);
- ``portrait_truncated`` of the cat state under the threshold partition
  (2, 2), which is the cat table plus its cell sums;
- the scalar ``gaussian_tomogram`` of the family member at
  (n1, n2) = (nmax, nmax), which is one table at that ``nmax``;
- the scalars ``cat_tomogram`` and ``coherent_tomogram`` of the cat state
  and the coherent product at (nmax, nmax), which sum that one entry's
  terms and cost about the same at every ``nmax``.

Then (``closed_forms``), for the cat state, the coherent product, the squeezed example and
the family member under each canonical partition, at the worked-example
settings (-0.12i, 0.04i, 0.22i, -0.32i), it prints one closed-form
``bell_columns(s)`` call next to one ``bell_number(bell_matrix(fn, s))``,
so that the cost of assembling B shows beside the cost of its columns,
and one portrait call ``fn(a1, a2)`` at (-0.12i, 0.04i), which evaluates
one column through the same values function.
After them, for each member of the benchmark's ``maximize-closed`` mix
(the ``MIX`` of ``tests/test_optimizer.py``), it prints one call of the
maximizer's fused closed-form objective (-B and its gradient, the
function the search descends) at the same settings.

Last (``bell_sweep``), the layers of the benchmark's ``bell-sweep`` workload for a fresh
state, per kind: the four above and a physical Gaussian with a mean (a
two-mode squeezed vacuum, r = 0.4). It prints:

- ``spec``: the state's construction (for the family, through
  ``gaussian_purity_family``), which for a Gaussian runs the spec's checks;
- ``kernels``: for a Gaussian, the spec's two kernels (W, K, det W) on a
  fresh spec, which the first portrait function would otherwise build;
- ``first portrait function``: ``make_portrait_fn`` under even-odd on a
  fresh state, kernels included;
- ``second portrait function``: ``make_portrait_fn`` under zero-nonzero
  on the same state, which reads the kernels the first one built;
- ``one Bell number``: ``bell_number(bell_matrix(fn, s))`` under each
  canonical partition at the worked-example settings;
- ``whole state``: a fresh state with both portrait functions and 4 Bell
  numbers under each, the unit of work of ``bell-sweep``, which draws its
  settings at random instead.

The whole state costs about the spec, the two portrait functions and 8
Bell numbers, so a change to one layer can be split from the rest.

It times one table at a time, in one process, what the traced runs of
the benchmark's ``truncated-tables`` workload report per table
(``states.table.ms.*``, medians within whole samples). Each line is a
minimum over many short runs, so that a machine shared with other work
still shows its quiet moments; where two runs of the script disagree,
take the lower figure. pytest does not collect this file.
"""

import sys
import timeit

from tomobell.bell import BellSettings, _closed_form_objective, bell_matrix, bell_number
from tomobell.portrait import PartitionScheme, make_portrait_fn, portrait_truncated
from tomobell.states import (
    CatState,
    CoherentProduct,
    GaussianSpec,
    cat_tomogram,
    coherent_superposition_table,
    coherent_tomogram,
    gaussian_purity_family,
    gaussian_tomogram,
    gaussian_tomogram_table,
    DEFAULT_BOX,
    make_source,
)

from oracles import SQUEEZED_M, two_mode_squeezed_vacuum
from test_optimizer import MIX

SETTINGS = (-0.12j, 0.04j)
BELL_SETTINGS = BellSettings(-0.12j, 0.04j, 0.22j, -0.32j)
AMPLITUDES = (0.7 + 0.3j, -0.5 + 0.2j)


def _minimum_us(call, repeats):
    # enough calls per run that one run takes about 5 ms
    number = max(1, int(0.005 / max(timeit.timeit(call, number=1), 1e-7)))
    return min(timeit.repeat(call, number=number, repeat=repeats)) / number * 1e6


def _fresh_us(build, call, repeats, count=400):
    """The minimum time of ``call(state)`` over REPEATS runs, each on COUNT
    states that ``build`` made before the run started."""
    best = float("inf")
    for _ in range(repeats):
        fresh = [build() for _ in range(count)]
        best = min(best, timeit.timeit(lambda: [call(state) for state in fresh], number=1))
    return best / count * 1e6


def main(repeats=25, *sections):
    unknown = [name for name in sections if name not in SECTIONS]
    if unknown:
        raise SystemExit(f"unknown section {', '.join(unknown)}; choose from {', '.join(SECTIONS)}")
    for section in sections or SECTIONS:
        SECTIONS[section](repeats)


def tables(repeats):
    a1, a2 = SETTINGS
    squeezed, family = GaussianSpec(SQUEEZED_M), gaussian_purity_family(0.8, 0.02)
    cat, coherent = CatState(*AMPLITUDES), CoherentProduct(*AMPLITUDES)
    cat_source, threshold = make_source(cat), PartitionScheme(2, 2)
    for nmax in (15, 30):
        calls = {
            "gaussian_tomogram_table squeezed": lambda: gaussian_tomogram_table(squeezed, a1, a2, nmax),
            "gaussian_tomogram_table family": lambda: gaussian_tomogram_table(family, a1, a2, nmax),
            "gaussian_tomogram_table family, cold spec":
                lambda: gaussian_tomogram_table(GaussianSpec(family.M), a1, a2, nmax),
            "coherent_superposition_table cat": lambda: coherent_superposition_table(cat, a1, a2, nmax),
            "coherent_superposition_table coherent":
                lambda: coherent_superposition_table(coherent, a1, a2, nmax),
            "portrait_truncated cat threshold-2":
                lambda: portrait_truncated(cat_source, threshold, a1, a2, nmax),
            "gaussian_tomogram family (nmax, nmax)":
                lambda: gaussian_tomogram(family, nmax, nmax, a1, a2),
            "cat_tomogram cat (nmax, nmax)": lambda: cat_tomogram(cat, nmax, nmax, a1, a2),
            "coherent_tomogram coherent (nmax, nmax)":
                lambda: coherent_tomogram(coherent, nmax, nmax, a1, a2),
        }
        for name, call in calls.items():
            call()
            print(f"nmax {nmax:2d}  {name:40s} {_minimum_us(call, repeats):8.1f} us")


def closed_forms(repeats):
    a1, a2 = SETTINGS
    squeezed, family = GaussianSpec(SQUEEZED_M), gaussian_purity_family(0.8, 0.02)
    cat, coherent = CatState(*AMPLITUDES), CoherentProduct(*AMPLITUDES)
    s = BELL_SETTINGS
    for kind, state in (("cat", cat), ("coherent", coherent), ("squeezed", squeezed), ("family", family)):
        for p in (PartitionScheme.even_odd(), PartitionScheme.zero_nonzero()):
            fn = make_portrait_fn(state, p)
            calls = {
                "bell_columns": lambda: fn.bell_columns(s),
                "bell_number(bell_matrix)": lambda: bell_number(bell_matrix(fn, s)),
                "portrait call fn(a1, a2)": lambda: fn(a1, a2),
            }
            for name, call in calls.items():
                call()
                label = f"{kind} {p.kind}"
                print(f"{label:23s} {name:26s} {_minimum_us(call, repeats):8.1f} us")
    x = s.as_vector().tolist()
    for label, (state, p, _, _) in MIX.items():
        negative_b = _closed_form_objective(make_portrait_fn(state, p), DEFAULT_BOX)
        negative_b(x)
        us = _minimum_us(lambda: negative_b(x), repeats)
        print(f"{label:23s} {'fused value and gradient':26s} {us:8.1f} us")


def bell_sweep(repeats):
    s = BELL_SETTINGS
    eo, zn = PartitionScheme.even_odd(), PartitionScheme.zero_nonzero()
    tmsv = two_mode_squeezed_vacuum(0.4, (0.3, -0.2, 0.1, 0.4))
    builders = {
        "cat": lambda: CatState(*AMPLITUDES),
        "coherent": lambda: CoherentProduct(*AMPLITUDES),
        "squeezed": lambda: GaussianSpec(SQUEEZED_M),
        "family": lambda: gaussian_purity_family(0.8, 0.02),
        "physical": lambda: GaussianSpec(tmsv.M, tmsv.mean),
    }

    def after_even_odd(build):
        state = build()
        make_portrait_fn(state, eo)
        return state

    def whole(state):
        for p in (eo, zn):
            fn = make_portrait_fn(state, p)
            for _ in range(4):
                bell_number(bell_matrix(fn, s))

    for kind, build in builders.items():
        lines = {"spec": _minimum_us(build, repeats)}
        if isinstance(build(), GaussianSpec):
            lines["kernels"] = _fresh_us(build, lambda st: st._kernels, repeats)
        lines["first portrait function (even-odd)"] = _fresh_us(
            build, lambda st: make_portrait_fn(st, eo), repeats)
        lines["second portrait function (zero-nonzero)"] = _fresh_us(
            lambda: after_even_odd(build), lambda st: make_portrait_fn(st, zn), repeats)
        for p in (eo, zn):
            fn = make_portrait_fn(build(), p)
            lines[f"one Bell number ({p.kind})"] = _minimum_us(
                lambda: bell_number(bell_matrix(fn, s)), repeats)
        lines["whole state: 2 fns, 8 Bell numbers"] = _minimum_us(lambda: whole(build()), repeats)
        for name, us in lines.items():
            print(f"{kind:9s} bell-sweep {name:40s} {us:8.1f} us")


SECTIONS = {"tables": tables, "closed_forms": closed_forms, "bell_sweep": bell_sweep}


if __name__ == "__main__":
    main(*(int(a) for a in sys.argv[1:2]), *sys.argv[2:])
