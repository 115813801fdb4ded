"""One digest of the maximizer's results over the benchmark's maximize mix.

Usage::

    PYTHONPATH=src python3 tests/mix_digest.py FIRST_SEED LAST_SEED

runs ``maximize_bell`` on each of the eight members of the
``maximize-closed`` mix (the ``MIX`` of ``tests/test_optimizer.py``, with
the benchmark's start counts) at every seed from FIRST_SEED up to, not
including, LAST_SEED, and prints one SHA-256 digest over, per call:

- ``f``, every ``per_start_best`` and the argmax, as float hex;
- ``per_start_nfev``, ``per_start_converged`` and ``per_start_error``;
- ``evaluations``.

A change to the search that must keep every iterate, evaluation count and
returned bit prints the same digest as its parent. The digest depends on
the BLAS build behind numpy (the curvature memory's matrix products may
round differently on another build), so compare a parent and a change on
one machine; the digest itself is not a pinned value. Seeds 0 to 400 take
about a minute on one core.
"""

import hashlib
import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

from test_optimizer import MIX  # noqa: E402

from tomobell.bell import MaximizeConfig, maximize_bell  # noqa: E402


def _hex(v):
    return float(v).hex()


def call_record(label, seed):
    """The digested fields of one mix call, as one line of text."""
    state, p, starts, _ = MIX[label]
    r = maximize_bell(state, p, MaximizeConfig(starts=starts, seed=seed))
    a = r.argmax
    argmax = [a.alpha1, a.alpha2, a.beta1, a.beta2]
    fields = [
        label, str(seed), _hex(r.f),
        ",".join(_hex(v) for v in r.per_start_best),
        ",".join(_hex(c.real) + ":" + _hex(c.imag) for c in argmax),
        repr(r.per_start_nfev), repr(r.per_start_converged), repr(r.per_start_error),
        str(r.evaluations),
    ]
    return "|".join(fields)


def main(argv):
    first, last = int(argv[0]), int(argv[1])
    digest = hashlib.sha256()
    calls = evaluations = 0
    for seed in range(first, last):
        for label in MIX:
            line = call_record(label, seed)
            digest.update(line.encode() + b"\n")
            calls += 1
            evaluations += int(line.rsplit("|", 1)[1])
    print(f"seeds {first}-{last - 1}: {calls} calls, {evaluations} evaluations, "
          f"sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main(sys.argv[1:])
