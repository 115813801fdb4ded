"""Run the tomobell CLI with the layer tracer installed (traced scan-cli runs).

    python3 perfbench/scan_traced.py SPOOL_DIR <tomobell arguments>

Writes JSON lines to SPOOL_DIR/<pid>.jsonl: one ``import`` record from the
main process, then one ``point`` record per scan grid point from whichever
process ran it, with that point's wall time and its layer totals. Pool
workers are forked, so they inherit the wrappers; each writes its own file,
so nothing is interleaved.
"""

import functools
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def _write(spool, record):
    with open(spool / f"{os.getpid()}.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")


def main():
    spool = Path(sys.argv[1])
    spool.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    import tomobell
    import tomobell.cli
    _write(spool, {"kind": "import", "seconds": time.perf_counter() - t0})

    from spans import LayerTotals, Tracer, install

    tracer = Tracer()
    install(tracer, tomobell)
    original = tomobell.cli._scan_point

    def point(*args):
        tracer.clear()
        t = time.perf_counter()
        row = original(*args)
        seconds = time.perf_counter() - t
        totals = LayerTotals()
        totals.absorb(tracer)
        _write(spool, {"kind": "point", "p1": args[2], "p2": args[3], "seconds": seconds,
                       "layers": totals.to_json()})
        return row

    # keep the original's module and name: the pool pickles the function
    # by name and finds this wrapper at tomobell.cli._scan_point
    functools.update_wrapper(point, original)
    tomobell.cli._scan_point = point
    return tomobell.cli.main(sys.argv[2:])


if __name__ == "__main__":
    sys.exit(main())
