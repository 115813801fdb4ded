"""Four-dimensional Hermite polynomials H^R_k(x).

Definition: H^R_k(x) = (-1)^|k| exp(x.R.x / 2) d^k/dx^k exp(-x.R.x / 2)
for a complex symmetric 4x4 matrix R, evaluated at a complex 4-vector x.

Two independent evaluation routes are provided. ``hermite_eval`` walks the
recursion

    H_{k+e_i} = (Rx)_i H_k - sum_j R_ij k_j H_{k-e_j}

obtained by differentiating the generating function, memoized per (R, x)
context. ``hermite_oracle`` instead differentiates exp(-x.R.x/2)
symbolically, carrying the exact multivariate polynomial coefficient
table, and is the ground truth the recursion is tested against.
``hermite_box`` fills a whole index box with vectorized sweeps. Photon
tables come from generating functions in ``states``; tests use the box as
their oracle.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

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
    """One (R, x) evaluation context with its private memo cache.

    The cache lives and dies with the context, so evaluations for a new
    argument vector (a new displacement alpha downstream) never see stale
    entries. Set ``memoize=False`` to force full recomputation on every
    call; both modes perform the identical arithmetic in the identical
    order and therefore agree bit for bit.
    """

    def __init__(self, R, x, max_order: int = DEFAULT_MAX_ORDER, memoize: bool = True):
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
        self._cache: Optional[Dict[Index, complex]] = {} if memoize else None


def _check_index(k, max_order: int) -> Index:
    k = tuple(int(v) for v in k)
    if len(k) != 4:
        raise ValueError(f"index must have 4 components, got {k}")
    if any(v < 0 for v in k):
        raise ValueError(f"index components must be nonnegative, got {k}")
    if sum(k) > max_order:
        raise OrderOverflow(f"total order {sum(k)} exceeds maximum {max_order}")
    return k  # type: ignore[return-value]


def _eval_recursive(params: HermiteParams, k: Index) -> complex:
    cache = params._cache
    if cache is not None:
        hit = cache.get(k)
        if hit is not None:
            return hit
    total = k[0] + k[1] + k[2] + k[3]
    if total == 0:
        value = 1.0 + 0.0j
    else:
        # step down along the first occupied axis
        i = 0
        while k[i] == 0:
            i += 1
        km = list(k)
        km[i] -= 1
        km_t: Index = tuple(km)  # type: ignore[assignment]
        value = params.Rx[i] * _eval_recursive(params, km_t)
        Ri = params.R[i]
        for j in range(4):
            kj = km_t[j]
            if kj == 0:
                continue
            kmm = list(km_t)
            kmm[j] -= 1
            value = value - Ri[j] * kj * _eval_recursive(params, tuple(kmm))  # type: ignore[arg-type]
    if cache is not None:
        cache[k] = value
    return value


def hermite_eval(params: HermiteParams, k) -> complex:
    """Evaluate H^R_k(x) through the generating-function recursion.

    Raises:
        OrderOverflow: if sum(k) exceeds the context's max_order.
        AsymmetricR: raised earlier, at context construction.
    """
    k = _check_index(k, params.max_order)
    return complex(_eval_recursive(params, k))


def hermite_box(params: HermiteParams, shape) -> np.ndarray:
    """Fill H^R_k(x) for every k in the box [0, A] x [0, B] x [0, C] x [0, D].

    ``shape`` gives the box extents as (A+1, B+1, C+1, D+1). The fill runs
    the same recursion as ``hermite_eval`` but sweeps one axis at a time
    with whole-slab numpy operations. Its diagonal (n1, n2, n1, n2) is the
    paper's route to Gaussian photon tables, which tests compare against.
    """
    shape = tuple(int(s) for s in shape)
    if len(shape) != 4 or any(s < 1 for s in shape):
        raise ValueError(f"shape must be four positive extents, got {shape}")
    if sum(shape) - 4 > params.max_order:
        raise OrderOverflow(
            f"box corner order {sum(shape) - 4} exceeds maximum {params.max_order}"
        )
    R, Rx = params.R, params.Rx
    A, B, C, D = [s - 1 for s in shape]
    H = np.zeros(shape, dtype=complex)
    H[0, 0, 0, 0] = 1.0

    for a in range(1, A + 1):
        v = Rx[0] * H[a - 1, 0, 0, 0]
        if a >= 2:
            v -= R[0, 0] * (a - 1) * H[a - 2, 0, 0, 0]
        H[a, 0, 0, 0] = v

    ka = np.arange(A + 1)
    for b in range(1, B + 1):
        prev = H[:, b - 1, 0, 0]
        v = Rx[1] * prev
        sh = np.zeros(A + 1, dtype=complex)
        sh[1:] = prev[:-1]
        v = v - R[1, 0] * ka * sh
        if b >= 2:
            v = v - R[1, 1] * (b - 1) * H[:, b - 2, 0, 0]
        H[:, b, 0, 0] = v

    ka2 = ka.reshape(-1, 1)
    kb2 = np.arange(B + 1).reshape(1, -1)
    for c in range(1, C + 1):
        prev = H[:, :, c - 1, 0]
        v = Rx[2] * prev
        sha = np.zeros_like(prev)
        sha[1:, :] = prev[:-1, :]
        v = v - R[2, 0] * ka2 * sha
        shb = np.zeros_like(prev)
        shb[:, 1:] = prev[:, :-1]
        v = v - R[2, 1] * kb2 * shb
        if c >= 2:
            v = v - R[2, 2] * (c - 1) * H[:, :, c - 2, 0]
        H[:, :, c, 0] = v

    ka3 = ka.reshape(-1, 1, 1)
    kb3 = np.arange(B + 1).reshape(1, -1, 1)
    kc3 = np.arange(C + 1).reshape(1, 1, -1)
    for d in range(1, D + 1):
        prev = H[:, :, :, d - 1]
        v = Rx[3] * prev
        sha = np.zeros_like(prev)
        sha[1:, :, :] = prev[:-1, :, :]
        v = v - R[3, 0] * ka3 * sha
        shb = np.zeros_like(prev)
        shb[:, 1:, :] = prev[:, :-1, :]
        v = v - R[3, 1] * kb3 * shb
        shc = np.zeros_like(prev)
        shc[:, :, 1:] = prev[:, :, :-1]
        v = v - R[3, 2] * kc3 * shc
        if d >= 2:
            v = v - R[3, 3] * (d - 1) * H[:, :, :, d - 2]
        H[:, :, :, d] = v

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
