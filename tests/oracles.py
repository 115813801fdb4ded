"""Independent oracles and shared fixtures of the test suite.

No code of ``tomobell`` calls anything here. These are the references the
library's fast routes are tested against, written once:

- the paper's Hermite route to a Gaussian tomogram. With dispersion
  matrix M, the tomogram is

      w(n1, n2) = exp(-mu (2M+I)^{-1} mu) / sqrt(det(M + I/2)) *
                  H^R_{n1,n2,n1,n2}(y) / (n1! n2!)

  with mu the kernel-order displaced mean
  (``tomobell.states.gaussian_effective_mean``), R = ``gaussian_R(M)`` and
  y = ``gaussian_y(M, shifted_mean)``. ``tomobell.hermite.hermite_box``
  fills H^R_k(x) by recursion; ``hermite_oracle`` differentiates
  exp(-x.R.x/2) symbolically instead, and is the ground truth for that
  recursion;
- the Fock-basis oracle for finite superpositions of two-mode coherent
  states: ``fock_oracle_tomogram`` sums the displaced Fock amplitudes term
  by term, and ``FockOracleSource`` serves it as a tomogram source;
- ``mp_superposition_tomogram``, the paper's closed products for the cat
  and coherent tomograms in 60-digit ``mpmath``: the reference that does
  not share the Fock formula with ``tomobell.cat_tomogram``;
- ``two_pass_checked_cells``, the portrait check as it was written before
  it ran in one pass: the reference for ``tomobell.portrait._checked_cells``;
- fixtures: the paper's squeezed example ``SQUEEZED_M``, its worked Bell
  matrix as printed (``PRINTED_MG``), and the two-mode squeezed vacuum
  ``two_mode_squeezed_vacuum(r, mean)``.

Test files import it by its bare name, as pytest puts ``tests/`` on
``sys.path``; the scripts in ``tests/`` find it next to them.
"""

from __future__ import annotations

import cmath
import math
from typing import Dict

import mpmath
import numpy as np

from tomobell.errors import NonPhysicalSpec, NumericalNegativity, TomobellError
from tomobell.hermite import HermiteParams, Index, _check_index
from tomobell.portrait import SUM_TOL
from tomobell.states import (
    CatState,
    CoherentProduct,
    GaussianSpec,
    TomogramSource,
    _displacement_phase,
    _integer,
    _log_factorial,
    coherent_superposition_terms,
)

# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

# the paper's squeezed example: it passes det M >= 1/16 but is no physical
# state (it violates the symplectic uncertainty relation)
SQUEEZED_M = np.array([
    [3.0, math.sqrt(35) / 2, 0.0, 0.0],
    [math.sqrt(35) / 2, 3.0, 0.0, 0.0],
    [0.0, 0.0, 1.0, math.sqrt(3) / 2],
    [0.0, 0.0, math.sqrt(3) / 2, 1.0],
])

# the paper's worked Bell matrix of SQUEEZED_M under even-odd, four
# decimals per entry as printed
PRINTED_MG = np.array([
    [0.6199, 0.5907, 0.6083, 0.4678],
    [0.0222, 0.0515, 0.0291, 0.1696],
    [0.0241, 0.0395, 0.0357, 0.1624],
    [0.3335, 0.3181, 0.3266, 0.2000],
])


def two_mode_squeezed_vacuum(r, mean=None) -> GaussianSpec:
    """Two-mode squeezed vacuum, physical for every r, with an optional
    mean. Its Fock amplitudes are diag((-tanh r)^n / cosh r)."""
    k, s = math.cosh(2 * r) / 2, math.sinh(2 * r) / 2
    return GaussianSpec(np.array([[k, -s, 0, 0], [-s, k, 0, 0],
                                  [0, 0, k, s], [0, 0, s, k]]), mean)


# ---------------------------------------------------------------------------
# the paper's Gaussian parameters
# ---------------------------------------------------------------------------


class DegenerateGaussian(TomobellError):
    """I - 2M is singular, so the paper's Hermite argument y is undefined.
    Only ``gaussian_y`` raises it; the library's tables take such states."""


R_SYMMETRY_TOL = 1e-10
# I - 2M counts as singular when |det| <= this multiple of ||I - 2M||_F^4;
# the fourth power keeps the test scale invariant, as det scales as c^4
SINGULARITY_SCALE = 1e-12

# the unitary that maps quadrature variables to the Hermite-form arguments
U_MATRIX = np.array(
    [
        [-1j, 0, 1j, 0],
        [0, -1j, 0, 1j],
        [1, 0, 1, 0],
        [0, 1, 0, 1],
    ],
    dtype=complex,
) / math.sqrt(2)

_I4 = np.eye(4)


def _dispersion(M) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.shape != (4, 4) or not np.all(np.isfinite(M)):
        raise ValueError(f"M must be a finite 4x4 matrix, got shape {M.shape}")
    return M


def gaussian_R(M) -> np.ndarray:
    """Hermite parameter matrix R = U^dag (I - 2M) (I + 2M)^{-1} U^*."""
    M = _dispersion(M)
    core = (_I4 - 2.0 * M) @ np.linalg.inv(_I4 + 2.0 * M)
    R = U_MATRIX.conj().T @ core @ U_MATRIX.conj()
    asym = float(np.max(np.abs(R - R.T)))
    if asym > R_SYMMETRY_TOL:
        raise NonPhysicalSpec(
            f"R came out asymmetric by {asym:.3e}; M is not a valid dispersion matrix"
        )
    return 0.5 * (R + R.T)


def gaussian_y(M, shifted_mean) -> np.ndarray:
    """Hermite argument y = 2 U^tr (I - 2M)^{-1} mu.

    ``shifted_mean`` is the displaced mean in (p1, p2, q1, q2) order as
    returned by ``tomobell.states.gaussian_shifted_mean``; the kernel-order
    exchange to (q1, q2, p1, p2) happens here.

    Raises:
        DegenerateGaussian: when I - 2M is singular (coherent or vacuum
            noise), where y is undefined.
    """
    mu = np.asarray(shifted_mean, dtype=float)[[2, 3, 0, 1]]
    a = _I4 - 2.0 * _dispersion(M)
    if abs(np.linalg.det(a)) <= SINGULARITY_SCALE * float(np.linalg.norm(a)) ** 4:
        raise DegenerateGaussian(
            "I - 2M is singular; the state has coherent-state photon statistics"
        )
    return 2.0 * U_MATRIX.T @ (np.linalg.inv(a) @ mu)


# ---------------------------------------------------------------------------
# symbolic derivative oracle of H^R_k(x)
# ---------------------------------------------------------------------------

# the symbolic oracle scales exponentially with order
ORACLE_MAX_ORDER = 8

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
    at |k| <= 8.
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


# ---------------------------------------------------------------------------
# Fock-basis oracle
# ---------------------------------------------------------------------------


def _fock_amplitude(n: int, mu: complex) -> complex:
    # <n|mu> = exp(-|mu|^2/2) mu^n / sqrt(n!)
    if mu == 0:
        return 1.0 + 0.0j if n == 0 else 0.0 + 0.0j
    log_mag = -abs(mu) ** 2 / 2.0 + n * math.log(abs(mu)) - 0.5 * _log_factorial(n)
    return cmath.exp(complex(log_mag, n * cmath.phase(mu)))


def fock_oracle_tomogram(state, n1: int, n2: int, alpha1: complex, alpha2: complex) -> float:
    """Brute-force tomogram for finite coherent superpositions.

    Sums the displaced Fock amplitudes term by term and squares the total.
    Slow and simple on purpose; this is the ground truth for
    ``coherent_superposition_table``. ``tomobell.cat_tomogram`` sums the
    same formula, so ``mp_superposition_tomogram`` checks that one.
    """
    n1, n2 = _integer(n1, "n1"), _integer(n2, "n2")
    a1, a2 = complex(alpha1), complex(alpha2)
    amp = 0.0 + 0.0j
    for coeff, d1, d2 in coherent_superposition_terms(state):
        amp += (
            coeff
            * _displacement_phase(a1, d1)
            * _fock_amplitude(n1, a1 + d1)
            * _displacement_phase(a2, d2)
            * _fock_amplitude(n2, a2 + d2)
        )
    return abs(amp) ** 2


def mp_superposition_tomogram(state, n1: int, n2: int, alpha1: complex, alpha2: complex,
                              dps: int = 60) -> float:
    """The cat or coherent tomogram from the paper's closed product, in
    ``dps``-digit arithmetic, rounded to the nearest float.

    A cat state's is

        exp(-|a1|^2 - |a2|^2) / (4 n1! n2! cosh S) *
        | e^(-z) (a1 + g1)^n1 (a2 + g2)^n2 + e^z (a1 - g1)^n1 (a2 - g2)^n2 |^2

    with z = conj(a1) g1 + conj(a2) g2 and S = |g1|^2 + |g2|^2; a coherent
    product's is the product of Poisson weights with means |a_j + g_j|^2.
    mpmath's exponent range has no overflow, so this needs no branch.
    """
    with mpmath.workdps(dps):
        a1, a2 = mpmath.mpc(complex(alpha1)), mpmath.mpc(complex(alpha2))
        g1, g2 = mpmath.mpc(complex(state.gamma1)), mpmath.mpc(complex(state.gamma2))
        factorials = mpmath.factorial(n1) * mpmath.factorial(n2)
        if isinstance(state, CoherentProduct):
            lam1, lam2 = abs(a1 + g1) ** 2, abs(a2 + g2) ** 2
            w = mpmath.exp(-lam1 - lam2) * lam1 ** n1 * lam2 ** n2 / factorials
        elif isinstance(state, CatState):
            S = abs(g1) ** 2 + abs(g2) ** 2
            z = mpmath.conj(a1) * g1 + mpmath.conj(a2) * g2
            t = (mpmath.exp(-z) * (a1 + g1) ** n1 * (a2 + g2) ** n2
                 + mpmath.exp(z) * (a1 - g1) ** n1 * (a2 - g2) ** n2)
            w = (mpmath.exp(-abs(a1) ** 2 - abs(a2) ** 2) / (4 * factorials * mpmath.cosh(S))
                 * abs(t) ** 2)
        else:
            raise TypeError(f"no closed product for {type(state).__name__}")
        return float(w)


class FockOracleSource(TomogramSource):
    """``fock_oracle_tomogram`` as a tomogram source; its tables are
    filled entry by entry."""

    def __init__(self, state):
        coherent_superposition_terms(state)  # refuses a state it cannot expand
        self.state = state

    def tomogram(self, n1, n2, alpha1, alpha2):
        return fock_oracle_tomogram(self.state, n1, n2, alpha1, alpha2)


# ---------------------------------------------------------------------------
# the two-pass portrait check
# ---------------------------------------------------------------------------


def two_pass_checked_cells(cells, deficit: float, tol: float, what: str):
    """The portrait check in two passes: the sum for the finiteness test,
    ``min`` of the cells on every call, and the sum again after the clamp.
    ``tomobell.portrait._checked_cells`` must give its outputs and its
    messages bit for bit."""
    w_pp, w_pm, w_mp, w_mm = cells
    if not math.isfinite(w_pp + w_pm + w_mp + w_mm + deficit):
        raise NumericalNegativity(f"{what}: components must be finite")
    low = min(cells)
    if low < 0.0:
        if low < -tol:
            raise NumericalNegativity(f"{what}: cell value {low:.6e} below {-tol:.0e}")
        w_pp, w_pm, w_mp, w_mm = (max(c, 0.0) for c in cells)
    if deficit < 0.0:
        if deficit < -tol:
            raise NumericalNegativity(f"{what}: tail deficit {deficit:.6e} negative")
        deficit = 0.0
    total = w_pp + w_pm + w_mp + w_mm + deficit
    if abs(total - 1.0) > SUM_TOL:
        raise NumericalNegativity(
            f"{what}: components + deficit sum to {total:.12f}, not 1"
        )
    return w_pp, w_pm, w_mp, w_mm, deficit
