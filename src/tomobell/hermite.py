"""Four-dimensional Hermite polynomials H^R_k(x), filled as a box.

Definition: H^R_k(x) = (-1)^|k| exp(x.R.x / 2) d^k/dx^k exp(-x.R.x / 2)
for a complex symmetric 4x4 matrix R, evaluated at a complex 4-vector x.
The paper writes the tomogram of a Gaussian state through the diagonal
H^R_{n1,n2,n1,n2} of such polynomials; the tests keep that route, with
its parameters R and y, as an oracle for the photon tables
(``tests/oracles.py``).

``hermite_box`` fills a whole index box from the recursion

    H_{k+e_i} = (Rx)_i H_k - sum_j R_ij k_j H_{k-e_j}

obtained by differentiating the generating function, sweeping one axis at
a time with whole-slab numpy operations; ``hermite_eval`` reads one entry
from the smallest box that holds it.

No library function calls this module: photon tables, and the scalar
Gaussian tomogram read from them, come from generating functions in
``states``. It stays in the package only because ``perfbench/spans.py``
patches ``hermite_box`` and ``hermite_eval`` by name in ``states``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .errors import AsymmetricR, OrderOverflow

# largest |A - A^T| entry accepted for a matrix that must be symmetric
# (R here, the dispersion matrix M in ``states``)
SYMMETRY_TOL = 1e-12
DEFAULT_MAX_ORDER = 128

Index = Tuple[int, int, int, int]


class HermiteParams:
    """One (R, x) evaluation context: a checked symmetric R, x and Rx, and
    the largest total order |k| an evaluation may reach."""

    def __init__(self, R, x, max_order: int = DEFAULT_MAX_ORDER):
        R = np.asarray(R, dtype=complex)
        x = np.asarray(x, dtype=complex)
        if R.shape != (4, 4):
            raise ValueError(f"R must be 4x4, got {R.shape}")
        if x.shape != (4,):
            raise ValueError(f"x must be a 4-vector, got {x.shape}")
        if not (np.all(np.isfinite(R)) and np.all(np.isfinite(x))):
            raise ValueError("R and x must be finite")
        asym = float(np.max(np.abs(R - R.T)))
        if asym > SYMMETRY_TOL:
            raise AsymmetricR(
                f"R deviates from symmetry by {asym:.3e} (> {SYMMETRY_TOL:.0e})"
            )
        self.R = R.copy()
        self.x = x.copy()
        self.Rx = R @ x
        self.max_order = int(max_order)


def _check_index(k, max_order: int) -> Index:
    k = tuple(int(v) for v in k)
    if len(k) != 4:
        raise ValueError(f"index must have 4 components, got {k}")
    if any(v < 0 for v in k):
        raise ValueError(f"index components must be nonnegative, got {k}")
    if sum(k) > max_order:
        raise OrderOverflow(f"total order {sum(k)} exceeds maximum {max_order}")
    return k  # type: ignore[return-value]


def hermite_eval(params: HermiteParams, k) -> complex:
    """Evaluate H^R_k(x): the corner entry of the box [0, k].

    Raises:
        OrderOverflow: if sum(k) exceeds the context's max_order.
        AsymmetricR: raised earlier, at context construction.
    """
    k = _check_index(k, params.max_order)
    return complex(hermite_box(params, [v + 1 for v in k])[k])


def hermite_box(params: HermiteParams, shape) -> np.ndarray:
    """Fill H^R_k(x) for every k in the box [0, A] x [0, B] x [0, C] x [0, D].

    ``shape`` gives the box extents as (A+1, B+1, C+1, D+1). Axis i is
    filled along the slab of the axes before it, with the later axes at 0,
    so every entry a step needs is already in place. Its diagonal
    (n1, n2, n1, n2) is the paper's route to Gaussian photon tables, which
    tests compare against.
    """
    shape = tuple(int(s) for s in shape)
    if len(shape) != 4 or any(s < 1 for s in shape):
        raise ValueError(f"shape must be four positive extents, got {shape}")
    if sum(shape) - 4 > params.max_order:
        raise OrderOverflow(
            f"box corner order {sum(shape) - 4} exceeds maximum {params.max_order}"
        )
    R, Rx = params.R, params.Rx
    H = np.zeros(shape, dtype=complex)
    H[0, 0, 0, 0] = 1.0
    for i in range(4):
        lead, tail = (slice(None),) * i, (0,) * (3 - i)
        counts = [np.arange(shape[j]).reshape([-1 if a == j else 1 for a in range(i)])
                  for j in range(i)]
        for n in range(1, shape[i]):
            prev = H[lead + (n - 1,) + tail]
            v = Rx[i] * prev
            for j in range(i):
                # H_{k-e_j} on the slab: prev shifted one step along axis j
                shifted = np.zeros_like(prev)
                shifted[lead[:j] + (slice(1, None),)] = prev[lead[:j] + (slice(None, -1),)]
                v = v - R[i, j] * counts[j] * shifted
            if n >= 2:
                v = v - R[i, i] * (n - 1) * H[lead + (n - 2,) + tail]
            H[lead + (n,) + tail] = v
    return H
