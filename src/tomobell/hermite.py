"""Four-dimensional Hermite polynomials H^R_k(x).

Definition: H^R_k(x) = (-1)^|k| exp(x.R.x / 2) d^k/dx^k exp(-x.R.x / 2)
for a complex symmetric 4x4 matrix R, evaluated at a complex 4-vector x.

``hermite_box`` fills a whole index box from the recursion

    H_{k+e_i} = (Rx)_i H_k - sum_j R_ij k_j H_{k-e_j}

obtained by differentiating the generating function, sweeping one axis at
a time with whole-slab numpy operations; ``hermite_eval`` reads one entry
from the smallest box that holds it. ``hermite_oracle`` instead
differentiates exp(-x.R.x/2) symbolically, carrying the exact
multivariate polynomial coefficient table, and is the ground truth the
recursion is tested against. Photon tables come from generating functions
in ``states``; tests use the box as their oracle.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from .errors import AsymmetricR, OrderOverflow

# largest |A - A^T| entry accepted for a matrix that must be symmetric
# (R here, the dispersion matrix M in ``states``)
SYMMETRY_TOL = 1e-12
DEFAULT_MAX_ORDER = 128

# only used by the symbolic oracle, which scales exponentially with order
ORACLE_MAX_ORDER = 8

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


# ---------------------------------------------------------------------------
# symbolic derivative oracle
# ---------------------------------------------------------------------------

Poly = Dict[Index, complex]  # monomial exponent tuple -> coefficient


def _poly_derivative(p: Poly, axis: int) -> Poly:
    out: Poly = {}
    for exps, coeff in p.items():
        e = exps[axis]
        if e == 0:
            continue
        reduced = list(exps)
        reduced[axis] -= 1
        key: Index = tuple(reduced)  # type: ignore[assignment]
        out[key] = out.get(key, 0.0 + 0.0j) + coeff * e
    return out


def _poly_times_linear(p: Poly, linear: np.ndarray) -> Poly:
    # multiply by sum_j linear[j] * x_j
    out: Poly = {}
    for exps, coeff in p.items():
        for j in range(4):
            lj = linear[j]
            if lj == 0:
                continue
            raised = list(exps)
            raised[j] += 1
            key: Index = tuple(raised)  # type: ignore[assignment]
            out[key] = out.get(key, 0.0 + 0.0j) + coeff * lj
    return out


def _poly_sub(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for key, coeff in b.items():
        out[key] = out.get(key, 0.0 + 0.0j) - coeff
    return out


def hermite_oracle(params: HermiteParams, k) -> complex:
    """Literal derivative-definition evaluation of H^R_k(x).

    Builds the polynomial P_k with d^k exp(-x.R.x/2) = P_k(x) exp(-x.R.x/2)
    one derivative at a time via the product rule on exact monomial
    tables, then returns (-1)^|k| P_k(x). Exponential in |k|, so capped
    at |k| <= 8; meant as a test oracle, not a production path.
    """
    k = _check_index(k, ORACLE_MAX_ORDER)
    poly: Poly = {(0, 0, 0, 0): 1.0 + 0.0j}
    for axis in range(4):
        for _ in range(k[axis]):
            # d/dx_axis of P*F = (dP - (Rx)_axis * P) * F with F = exp(-x.R.x/2)
            poly = _poly_sub(_poly_derivative(poly, axis), _poly_times_linear(poly, params.R[axis]))
    value = 0.0 + 0.0j
    for exps, coeff in poly.items():
        term = coeff
        for j in range(4):
            if exps[j]:
                term = term * params.x[j] ** exps[j]
        value += term
    return complex((-1) ** (k[0] + k[1] + k[2] + k[3]) * value)
