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
    original = tomobell.bell.minimize
    tracer = spans.Tracer()
    try:
        spans.install(tracer, tomobell)
        assert tomobell.bell.minimize is not original
    finally:
        tracer.uninstall()
    assert tomobell.bell.minimize is original
