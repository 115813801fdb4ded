"""Per-table timings of the photon-number tables, as ``timeit`` minima.

Usage::

    PYTHONPATH=src python3 tests/table_timing.py [REPEATS]

prints, at ``nmax`` 15 and 30, the minimum over REPEATS (default 25)
runs of about 5 ms each of one call of:

- ``gaussian_tomogram_table`` on the paper's squeezed example at the
  worked-example settings (-0.12i, 0.04i), and on a purity-family member
  (k = 0.8, l = 0.02) at the same settings;
- ``coherent_superposition_table`` on a cat state and on a coherent
  product (amplitudes 0.7 + 0.3i and -0.5 + 0.2i);
- ``portrait_truncated`` of the cat state under the threshold partition
  (2, 2), which is the cat table plus its cell sums;
- the scalar ``gaussian_tomogram`` of the family member at
  (n1, n2) = (nmax, nmax), which is one table at that ``nmax``.

It times one table at a time, in one process, what the traced runs of
the benchmark's ``truncated-tables`` workload report per table
(``states.table.ms.*``, medians within whole samples). Each line is a
minimum over many short runs, so that a machine shared with other work
still shows its quiet moments; where two runs of the script disagree,
take the lower figure. pytest does not collect this file.
"""

import math
import sys
import timeit

import numpy as np

from tomobell.portrait import PartitionScheme, portrait_truncated
from tomobell.states import (
    CatState,
    CoherentProduct,
    GaussianSpec,
    coherent_superposition_table,
    gaussian_purity_family,
    gaussian_tomogram,
    gaussian_tomogram_table,
    make_source,
)

SQUEEZED_M = np.array([
    [3.0, math.sqrt(35) / 2, 0.0, 0.0],
    [math.sqrt(35) / 2, 3.0, 0.0, 0.0],
    [0.0, 0.0, 1.0, math.sqrt(3) / 2],
    [0.0, 0.0, math.sqrt(3) / 2, 1.0],
])
SETTINGS = (-0.12j, 0.04j)
AMPLITUDES = (0.7 + 0.3j, -0.5 + 0.2j)


def _minimum_us(call, repeats):
    # enough calls per run that one run takes about 5 ms
    number = max(1, int(0.005 / max(timeit.timeit(call, number=1), 1e-7)))
    return min(timeit.repeat(call, number=number, repeat=repeats)) / number * 1e6


def main(repeats=25):
    a1, a2 = SETTINGS
    squeezed, family = GaussianSpec(SQUEEZED_M), gaussian_purity_family(0.8, 0.02)
    cat, coherent = CatState(*AMPLITUDES), CoherentProduct(*AMPLITUDES)
    cat_source, threshold = make_source(cat), PartitionScheme(2, 2)
    for nmax in (15, 30):
        calls = {
            "gaussian_tomogram_table squeezed": lambda: gaussian_tomogram_table(squeezed, a1, a2, nmax),
            "gaussian_tomogram_table family": lambda: gaussian_tomogram_table(family, a1, a2, nmax),
            "coherent_superposition_table cat": lambda: coherent_superposition_table(cat, a1, a2, nmax),
            "coherent_superposition_table coherent":
                lambda: coherent_superposition_table(coherent, a1, a2, nmax),
            "portrait_truncated cat threshold-2":
                lambda: portrait_truncated(cat_source, threshold, a1, a2, nmax),
            "gaussian_tomogram family (nmax, nmax)":
                lambda: gaussian_tomogram(family, nmax, nmax, a1, a2),
        }
        for name, call in calls.items():
            call()
            print(f"nmax {nmax:2d}  {name:40s} {_minimum_us(call, repeats):8.1f} us")


if __name__ == "__main__":
    main(*(int(a) for a in sys.argv[1:2]))
