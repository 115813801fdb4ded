"""Wall time of whole CLI processes, stage by stage, as subprocess medians.

Usage::

    python3 tests/cli_timing.py [RUNS]

runs each of these command lines RUNS times (default 15), in an order
shuffled afresh for every round, and prints the median, quartiles and
range of their wall times in ms:

- ``python3 -c pass``: the interpreter and ``site``;
- ``python3 -c "import numpy"``;
- ``python3 -c "import tomobell.cli"``: the package's import, which
  without a bytecode cache includes compiling it;
- the same import followed by ``gc.freeze()``, as a CLI process ends: the
  difference to the line above is the interpreter's collections at exit;
- ``python3 -m tomobell.cli`` on the benchmark's ``scan-cli`` command line
  (the 4 corners of the ``gaussian-family`` grid at 3 starts), at
  ``--jobs 1`` and at ``--jobs 2``.

Each process runs with ``PYTHONDONTWRITEBYTECODE=1`` and one BLAS thread,
as the benchmark's are, and imports the package from this checkout's
``src``. Differences of consecutive lines give the package's share of a
CLI process (import, run and exit); a line's spread shows how much a
machine shared with other work moved it. pytest does not collect this file.
"""

import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
SCAN = ["-m", "tomobell.cli", "scan", "--preset", "gaussian-family", "--param1", "0.6,1.0",
        "--param2", "0.0,0.07", "--starts", "3", "--seed", "5"]
COMMANDS = {
    "-c pass": ["-c", "pass"],
    "import numpy": ["-c", "import numpy"],
    "import tomobell.cli": ["-c", "import tomobell.cli"],
    "  then gc.freeze()": ["-c", "import gc, tomobell.cli; gc.freeze()"],
    "scan-cli --jobs 1": SCAN + ["--jobs", "1"],
    "scan-cli --jobs 2": SCAN + ["--jobs", "2"],
}


def _env():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _ms(argv, env):
    t0 = time.perf_counter()
    subprocess.run([sys.executable] + argv, env=env, stdout=subprocess.DEVNULL, check=True)
    return (time.perf_counter() - t0) * 1e3


def main(runs):
    env = _env()
    times = {name: [] for name in COMMANDS}
    for _ in range(runs):
        order = list(COMMANDS)
        random.shuffle(order)
        for name in order:
            times[name].append(_ms(COMMANDS[name], env))
    print(f"wall ms over {runs} runs each: median [quartiles] (min-max)")
    for name, ms in times.items():
        q1, _, q3 = statistics.quantiles(ms, n=4)
        print(f"{name:22s} {statistics.median(ms):7.1f} [{q1:.1f}, {q3:.1f}] "
              f"({min(ms):.1f}-{max(ms):.1f})")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 15)
