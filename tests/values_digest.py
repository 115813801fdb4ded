"""One digest of the closed-form values route over fresh ``bell-sweep`` states.

Usage::

    PYTHONPATH=src python3 tests/values_digest.py FIRST_SEED LAST_SEED

draws, for every seed from FIRST_SEED up to, not including, LAST_SEED,
one state of each kind of the benchmark's ``bell-sweep`` workload (cat,
coherent product, purity-family member and physical Gaussian with a mean)
with its settings, as ``BellSweep`` in ``perfbench/workloads.py`` draws
them (the class is imported, not copied, and nothing in ``perfbench`` is
changed). Under each canonical partition, for each of the state's 4 Bell
settings s, it digests as float hex:

- the four checked columns of ``bell_columns(s)``;
- ``bell_number(bell_matrix(fn, s))``;
- one portrait call ``fn(s.alpha1, s.beta2)``, its four cells and its
  tail deficit.

A refusal goes in as its class and message, in place of the value. It
prints one SHA-256 digest. A change to the closed forms that must keep
every returned bit, and every error, prints the same digest as its
parent: run this script from a copy of each tree. 500 seeds (2,000
states) take a few seconds on one core. pytest does not collect this
file.
"""

import hashlib
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))

import tomobell  # noqa: E402
from tomobell.bell import bell_matrix, bell_number  # noqa: E402
from tomobell.portrait import make_portrait_fn  # noqa: E402
from workloads import BellSweep  # noqa: E402


def _hex(values):
    return ",".join(float(v).hex() for v in values)


def _record(call):
    """The digested text of one evaluation, or of its refusal."""
    try:
        return call()
    except (tomobell.TomobellError, OverflowError) as exc:
        return f"{type(exc).__name__}: {exc}"


def state_lines(sweep, kind):
    """The digested lines of one freshly drawn state of ``kind``."""
    kind, params, settings = sweep._draw(kind)
    try:
        state = sweep._build(kind, params)
    except tomobell.TomobellError as exc:
        return [f"{kind}|{type(exc).__name__}: {exc}"]
    lines = []
    for p, part_settings in zip(sweep.partitions, settings):
        fn = make_portrait_fn(state, p)
        for s in part_settings:
            fields = [
                kind, p.kind,
                _record(lambda: ";".join(_hex(column) for column in fn.bell_columns(s))),
                _record(lambda: _hex([bell_number(bell_matrix(fn, s))])),
                _record(lambda: _hex(vars(fn(s.alpha1, s.beta2)).values())),
            ]
            lines.append("|".join(fields))
    return lines


def main(argv):
    first, last = int(argv[0]), int(argv[1])
    digest = hashlib.sha256()
    states = refusals = 0
    for seed in range(first, last):
        sweep = BellSweep(tomobell, seed)
        for kind in BellSweep.KINDS:
            for line in state_lines(sweep, kind):
                digest.update(line.encode() + b"\n")
                refusals += ": " in line
            states += 1
    print(f"seeds {first}-{last - 1}: {states} states, {refusals} lines with a refusal, "
          f"sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main(sys.argv[1:])
