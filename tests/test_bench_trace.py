"""The benchmark's trace mode still finds every name it wraps.

``perfbench/spans.py`` wraps library functions and classes by name from
outside the package. If one of those names is deleted or renamed,
``install`` fails, and ``python3 perfbench/run.py --trace 1`` with it.
"""

import types
from pathlib import Path

import tomobell
import tomobell.cli  # noqa: F401  (``install`` wraps names in the cli module)

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    # compiled from its source text, so nothing is written under perfbench/
    module = types.ModuleType("perfbench_spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), module.__dict__)
    return module


def test_trace_install_finds_and_restores_every_name():
    spans = _load_spans()
    tracer = spans.Tracer()
    try:
        spans.install(tracer, tomobell)
        # (owner, attribute, original, owned) per wrapped name
        patches = list(tracer._patches)
        assert patches
        for owner, attribute, original, _ in patches:
            wrapper = getattr(owner, attribute)
            assert wrapper is not original
            assert wrapper.__wrapped__ is original, (owner, attribute)
    finally:
        tracer.uninstall()
    # several names share one function (the per-state closed forms), so
    # each must come back as that object, and an inherited one not at all
    for owner, attribute, original, owned in patches:
        assert getattr(owner, attribute) is original, (owner, attribute)
        if owned:
            assert vars(owner)[attribute] is original, (owner, attribute)
        else:
            assert attribute not in vars(owner), (owner, attribute)


def test_trace_records_one_table_span_per_library_state():
    # ``install`` wraps ``tomogram_table`` on the state classes (under their
    # former source-class names), so one truncated portrait of each state
    # records exactly one table span with its kind and nmax
    spans = _load_spans()
    tracer = spans.Tracer()
    cases = ((tomobell.CatState(1.0, 0.5j), "cat"),
             (tomobell.CoherentProduct(0.3, -0.2j), "coherent"),
             (tomobell.gaussian_purity_family(0.8, 0.0), "gaussian"))
    try:
        spans.install(tracer, tomobell)
        for state, kind in cases:
            tracer.clear()
            tomobell.portrait.portrait_truncated(state, tomobell.PartitionScheme(2, 2),
                                                 0.1, 0.2j, 15)
            ids = tracer.spans()["states.table"]["ids"]
            assert len(ids) == 1, kind
            assert tracer.attrs[int(ids[0])] == {"kind": kind, "nmax": 15}
    finally:
        tracer.uninstall()
