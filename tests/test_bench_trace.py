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
