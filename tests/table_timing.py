"""Per-table timings of the photon-number tables, and of Bell-number
assembly on closed forms, as ``timeit`` minima.

Usage::

    PYTHONPATH=src python3 tests/table_timing.py [REPEATS [SECTION ...]]
    PYTHONPATH=src python3 tests/table_timing.py [REPEATS] --against SRC

runs the named sections (``tables``, ``truncated_tables``,
``closed_forms``, ``bell_sweep``), or all four in that order when none is
named. Each line is the minimum over
REPEATS (default 25) runs of about 5 ms each.

With ``--against SRC``, where SRC is the ``src`` directory of another
checkout, the script imports that checkout's package as
``tomobell_against`` in the same process and runs the ``tables`` and
``truncated_tables`` sections (or the one of them named) on both trees:
each line prints this tree's minimum, then the other's, from runs that
alternate between the two (this tree first on even runs, the other first
on odd ones). Separate processes drift apart by more than a few tenths of
a microsecond on a busy machine; interleaved runs in one process see the
same drift on both sides.

At ``nmax`` 15 and 30 (``tables``), it prints one call of:

- ``gaussian_tomogram_table`` on the paper's squeezed example at the
  worked-example settings (-0.12i, 0.04i) and at the box-scale settings
  (1.5 - 1i, -0.7 + 1.8i), on a purity-family member (k = 0.8,
  l = 0.02) at the worked-example settings, and on a two-mode squeezed
  vacuum (r = 0.4) with mean (0.3, -0.2, 0.1, 0.4) at both. Rounding
  noise in the squeezed example's and the squeezed vacuum's Delta is
  where products near the subnormal range showed before the series
  were flushed below 2^-922; the family's Delta has none. These specs
  are warm: they keep their polynomials and their series 1/Delta and
  log Delta between calls, so the lines time only the work that depends
  on the settings;
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

Then (``truncated_tables``), the unit of work of the benchmark's
``truncated-tables`` workload at the worked-example settings, per state
kind (the squeezed example, the family member, the cat state and the
coherent product): one ``portrait_truncated`` call, with the workload's
``tail_eps`` of 1e-4, under each of even-odd, zero-nonzero, threshold-0
(built through ``PartitionScheme.from_config``, as the workload builds it)
and threshold-2, at ``nmax`` 15 and 30, and all eight of them as one line.
A refused portrait (``TailTooLarge`` where the tail holds more than 1e-4)
is timed up to its refusal, as the workload times it. Last in the section,
one ``coherent_superposition_table`` of the cat state at alpha1 = -gamma1,
where one branch's mode-1 row is the vacuum's and takes no log.

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

import argparse
import importlib.util
import math
import os
import sys
import timeit

import tomobell
from tomobell.bell import BellSettings, _closed_form_objective, bell_matrix, bell_number
from tomobell.portrait import PartitionScheme, make_portrait_fn
from tomobell.states import (
    CatState,
    CoherentProduct,
    GaussianSpec,
    gaussian_purity_family,
    DEFAULT_BOX,
)

from oracles import SQUEEZED_M, two_mode_squeezed_vacuum
from test_optimizer import MIX

SETTINGS = (-0.12j, 0.04j)
BOX_SETTINGS = (1.5 - 1j, -0.7 + 1.8j)
TMSV = two_mode_squeezed_vacuum(0.4, (0.3, -0.2, 0.1, 0.4))
BELL_SETTINGS = BellSettings(-0.12j, 0.04j, 0.22j, -0.32j)
AMPLITUDES = (0.7 + 0.3j, -0.5 + 0.2j)


def _minima_us(calls, repeats):
    """The minimum time of each of CALLS over REPEATS runs, the runs of the
    calls interleaved, in alternating order from one run to the next."""
    # enough calls per run that one run takes about 5 ms
    numbers = [max(1, int(0.005 / max(timeit.timeit(call, number=1), 1e-7))) for call in calls]
    best = [math.inf] * len(calls)
    for r in range(repeats):
        for i in range(len(calls)) if r % 2 == 0 else reversed(range(len(calls))):
            best[i] = min(best[i], timeit.timeit(calls[i], number=numbers[i]) / numbers[i])
    return [b * 1e6 for b in best]


def _minimum_us(call, repeats):
    return _minima_us([call], repeats)[0]


def _fresh_us(build, call, repeats, count=400):
    """The minimum time of ``call(state)`` over REPEATS runs, each on COUNT
    states that ``build`` made before the run started."""
    best = float("inf")
    for _ in range(repeats):
        fresh = [build() for _ in range(count)]
        best = min(best, timeit.timeit(lambda: [call(state) for state in fresh], number=1))
    return best / count * 1e6


def main(repeats=25, *sections, against=None):
    unknown = [name for name in sections if name not in SECTIONS]
    if unknown:
        raise SystemExit(f"unknown section {', '.join(unknown)}; choose from {', '.join(SECTIONS)}")
    if against is not None:
        if not set(sections) <= {"tables", "truncated_tables"}:
            raise SystemExit("--against runs the tables and truncated_tables sections only")
        package = _load_against(against)
        for section in sections or ("tables", "truncated_tables"):
            SECTIONS[section](repeats, package)
        return
    for section in sections or SECTIONS:
        SECTIONS[section](repeats)


def _load_against(src):
    """The ``tomobell`` package under SRC, imported as ``tomobell_against``."""
    init = os.path.join(src, "tomobell", "__init__.py")
    spec = importlib.util.spec_from_file_location(
        "tomobell_against", init, submodule_search_locations=[os.path.dirname(init)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = package
    spec.loader.exec_module(package)
    return package


def _table_calls(package, nmax):
    """The ``tables`` section's calls at NMAX, through PACKAGE's own states."""
    st, a1, a2 = package.states, *SETTINGS
    squeezed, family = st.GaussianSpec(SQUEEZED_M), st.gaussian_purity_family(0.8, 0.02)
    tmsv = st.GaussianSpec(TMSV.M, TMSV.mean)
    cat, coherent = st.CatState(*AMPLITUDES), st.CoherentProduct(*AMPLITUDES)
    cat_source, threshold = st.make_source(cat), package.portrait.PartitionScheme(2, 2)
    return {
        "gaussian_tomogram_table squeezed": lambda: st.gaussian_tomogram_table(squeezed, a1, a2, nmax),
        "gaussian_tomogram_table squeezed, box setting":
            lambda: st.gaussian_tomogram_table(squeezed, *BOX_SETTINGS, nmax),
        "gaussian_tomogram_table TMSV r=0.4": lambda: st.gaussian_tomogram_table(tmsv, a1, a2, nmax),
        "gaussian_tomogram_table TMSV r=0.4, box setting":
            lambda: st.gaussian_tomogram_table(tmsv, *BOX_SETTINGS, nmax),
        "gaussian_tomogram_table family": lambda: st.gaussian_tomogram_table(family, a1, a2, nmax),
        "gaussian_tomogram_table family, cold spec":
            lambda: st.gaussian_tomogram_table(st.GaussianSpec(family.M), a1, a2, nmax),
        "coherent_superposition_table cat": lambda: st.coherent_superposition_table(cat, a1, a2, nmax),
        "coherent_superposition_table coherent":
            lambda: st.coherent_superposition_table(coherent, a1, a2, nmax),
        "portrait_truncated cat threshold-2":
            lambda: package.portrait.portrait_truncated(cat_source, threshold, a1, a2, nmax),
        "gaussian_tomogram family (nmax, nmax)":
            lambda: st.gaussian_tomogram(family, nmax, nmax, a1, a2),
        "cat_tomogram cat (nmax, nmax)": lambda: st.cat_tomogram(cat, nmax, nmax, a1, a2),
        "coherent_tomogram coherent (nmax, nmax)":
            lambda: st.coherent_tomogram(coherent, nmax, nmax, a1, a2),
    }


def _print_interleaved(trees, repeats, width):
    """One line per name of the dicts of calls in TREES, one for each tree:
    the minima of each name's calls, from interleaved runs."""
    for name in trees[0]:
        calls = [tree[name] for tree in trees]
        for call in calls:
            call()
        times = "  against ".join(f"{us:8.1f} us" for us in _minima_us(calls, repeats))
        print(f"{name:{width}s} {times}")


def tables(repeats, against=None):
    packages = [tomobell] if against is None else [tomobell, against]
    for nmax in (15, 30):
        trees = [{f"nmax {nmax:2d}  {name}": call for name, call in _table_calls(package, nmax).items()}
                 for package in packages]
        _print_interleaved(trees, repeats, 57)


def _truncated_calls(package):
    """The ``truncated_tables`` section's calls, through PACKAGE's own code."""
    st, pt, a1, a2 = package.states, package.portrait, *SETTINGS
    threshold_0 = pt.PartitionScheme.from_config({"mode1": {"threshold": 0}, "mode2": {"threshold": 0}})
    parts = {"even-odd": pt.PartitionScheme.even_odd(), "zero-nonzero": pt.PartitionScheme.zero_nonzero(),
             "threshold-0": threshold_0, "threshold-2": pt.PartitionScheme(2, 2)}
    states = {"squeezed": st.GaussianSpec(SQUEEZED_M), "family": st.gaussian_purity_family(0.8, 0.02),
              "cat": st.CatState(*AMPLITUDES), "coherent": st.CoherentProduct(*AMPLITUDES)}

    def portrait(source, p, nmax):
        try:
            pt.portrait_truncated(source, p, a1, a2, nmax, 1e-4)
        except package.errors.TomobellError:
            pass

    def unit(source):
        for nmax in (15, 30):
            for p in parts.values():
                portrait(source, p, nmax)

    calls = {}
    for kind, state in states.items():
        source = st.make_source(state)
        for nmax in (15, 30):
            for name, p in parts.items():
                calls[f"{kind:9s} nmax {nmax:2d}  portrait_truncated {name}"] = (
                    lambda source=source, p=p, nmax=nmax: portrait(source, p, nmax))
        calls[f"{kind:9s} all 8 portraits (2 nmax x 4 partitions)"] = lambda source=source: unit(source)
    cat = states["cat"]
    for nmax in (15, 30):
        calls[f"{'cat':9s} nmax {nmax:2d}  coherent_superposition_table, branch at the vacuum"] = (
            lambda nmax=nmax: st.coherent_superposition_table(cat, -cat.gamma1, a2, nmax))
    return calls


def truncated_tables(repeats, against=None):
    packages = [tomobell] if against is None else [tomobell, against]
    _print_interleaved([_truncated_calls(package) for package in packages], repeats, 72)


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


SECTIONS = {"tables": tables, "truncated_tables": truncated_tables, "closed_forms": closed_forms,
            "bell_sweep": bell_sweep}


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="timeit minima of the library's layers")
    parser.add_argument("repeats", nargs="?", type=int, default=25)
    parser.add_argument("sections", nargs="*")
    parser.add_argument("--against", metavar="SRC", help="another checkout's src directory")
    args = parser.parse_args()
    main(args.repeats, *args.sections, against=args.against)
