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
- ``outer_product_superposition_table``, the cat and coherent table as
  it was written before one exp formed all of its Fock rows (one outer
  product per term): the reference for
  ``tomobell.coherent_superposition_table``;
- ``mp_superposition_tomogram``, the paper's closed products for the cat
  and coherent tomograms in 60-digit ``mpmath``: the reference that does
  not share the Fock formula with ``tomobell.cat_tomogram``;
- ``two_pass_checked_cells``, the portrait check as it was written before
  it ran in one pass: the reference for ``tomobell.portrait._checked_cells``;
  and ``CANONICAL_CELLS``, each canonical partition's cells from G, which
  that check took before one column function per partition formed and
  checked them: with it, the reference for the column functions;
- ``PerColumnPortrait`` and ``per_column_objective``, the closed-form
  portraits and the maximizer's objective as they were computed column by
  column, before each family evaluated B's four columns and gradient in
  one call: the reference for ``tomobell.portrait.ClosedFormPortrait`` and
  ``tomobell.bell._closed_form_objective``;
- ``displaced_thermal``, the Laguerre form of a displaced thermal
  state's photon statistics, and ``displacement_operator``, D(alpha) in a
  truncated Fock basis: closed references for the Gaussian table;
- ``eigvalsh_det_refusal``, the spec's positive-definiteness and
  uncertainty checks as ``eigvalsh`` and ``det`` made them: the reference
  for the LDL^T checks of ``tomobell.states.GaussianSpec``;
- fixtures: the paper's squeezed example ``SQUEEZED_M``, its worked Bell
  matrix as printed (``PRINTED_MG``), the two-mode squeezed vacuum
  ``two_mode_squeezed_vacuum(r, mean)``, and random physical two-mode
  Gaussians (``physical_gaussian_m``, drawn by ``random_physical_gaussian``
  from a numpy generator and by the hypothesis strategy
  ``physical_gaussians``).

Test files import it by its bare name, as pytest puts ``tests/`` on
``sys.path``; the scripts in ``tests/`` find it next to them.
"""

from __future__ import annotations

import cmath
import math
from typing import Dict

import mpmath
import numpy as np
from hypothesis import strategies as st

from tomobell.bell import _clipped
from tomobell.errors import NonPhysicalSpec, NumericalNegativity, TomobellError
from tomobell.hermite import HermiteParams, Index, _check_index
from tomobell.portrait import _CANONICAL, SQRT2, SUM_TOL, _checked_cells
from tomobell.states import (
    DET_BOUND_SLACK,
    _MODE1_IDX,
    _MODE2_IDX,
    NEGATIVITY_TOL,
    NEGATIVITY_TOL_HERMITE,
    CatState,
    CoherentProduct,
    GaussianSpec,
    TomogramSource,
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


# (q1, q2, p1, p2) -> the library's (p1, p2, q1, q2)
_QP_TO_PQ = [2, 3, 0, 1]


def physical_gaussian_m(r, nu, u1, u2) -> np.ndarray:
    """The dispersion matrix of a physical two-mode Gaussian state, in the
    library's (p1, p2, q1, q2) order: M = S diag(nu1, nu2, nu1, nu2) S^T in
    (q1, q2, p1, p2) order, with S = O1 Z O2 (Bloch-Messiah).

    Each passive part O is a 2x2 unitary U acting on the mode operators,
    [[Re U, -Im U], [Im U, Re U]]; Z = diag(e^-r1, e^-r2, e^r1, e^r2)
    squeezes. The vacuum is I/2, as for ``two_mode_squeezed_vacuum``, so
    every nu >= 1/2 gives a state (nu = 1/2: a pure one).
    """
    def passive(u):
        u = np.asarray(u, dtype=complex)
        return np.block([[u.real, -u.imag], [u.imag, u.real]])

    z = np.diag(np.exp([-r[0], -r[1], r[0], r[1]]))
    s = passive(u1) @ z @ passive(u2)
    m = (s @ np.diag([nu[0], nu[1], nu[0], nu[1]]) @ s.T)[np.ix_(_QP_TO_PQ, _QP_TO_PQ)]
    return 0.5 * (m + m.T)


def haar_unitary(rng) -> np.ndarray:
    """A 2x2 unitary drawn from the Haar measure (QR of a complex Gaussian
    matrix, with the phases of R's diagonal moved into Q)."""
    q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    d = np.diag(r)
    return q * (d / abs(d))


def random_physical_gaussian(rng, max_r=1.4, max_nu=1.5, mean=True):
    """(M, mean) of a random physical two-mode Gaussian: Haar passive
    parts, squeezings r in [0, max_r], nu in [1/2, max_nu], and a mean in
    [-1, 1]^4 (zero for ``mean=False``).

    nu is drawn uniformly, so at the defaults no draw is a pure state
    (nu = 1/2 in both modes has probability 0). The nmax-30 Gaussian
    table's refusals of physical states have been seen only among pure
    draws (ROADMAP item 4): a test that needs them draws pure states with
    ``max_nu=0.5``, as ``test_physical_gaussian_routes_agree`` does for
    every second state."""
    m = physical_gaussian_m(rng.uniform(0.0, max_r, 2), rng.uniform(0.5, max_nu, 2),
                            haar_unitary(rng), haar_unitary(rng))
    return m, rng.uniform(-1.0, 1.0, 4) if mean else np.zeros(4)


def _unitary(theta, alpha, beta, phi):
    # every 2x2 unitary has this form
    c, s = math.cos(theta), math.sin(theta)
    return cmath.exp(1j * phi) * np.array([
        [cmath.exp(1j * alpha) * c, cmath.exp(1j * beta) * s],
        [-cmath.exp(-1j * beta) * s, cmath.exp(-1j * alpha) * c],
    ])


_angle = st.floats(min_value=-math.pi, max_value=math.pi, allow_nan=False)


@st.composite
def physical_gaussians(draw, max_r=1.4, max_nu=1.5):
    """A hypothesis strategy of (M, mean) pairs of physical two-mode
    Gaussians: ``physical_gaussian_m`` over squeezings r in [0, max_r],
    nu in [1/2, max_nu], two unitaries and a mean in [-1, 1]^4 or none."""
    r = draw(st.tuples(*[st.floats(min_value=0.0, max_value=max_r)] * 2))
    nu = draw(st.tuples(*[st.floats(min_value=0.5, max_value=max_nu)] * 2))
    u1, u2 = (_unitary(*draw(st.tuples(*[_angle] * 4))) for _ in range(2))
    mean = draw(st.one_of(st.none(), st.tuples(*[st.floats(min_value=-1.0, max_value=1.0)] * 4)))
    return physical_gaussian_m(r, nu, u1, u2), np.zeros(4) if mean is None else np.array(mean)


def eigvalsh_det_refusal(M):
    """The positive-definiteness and uncertainty checks of ``GaussianSpec``
    as they were written before one LDL^T factorization made them: the
    smallest ``eigvalsh`` eigenvalue, then ``det``. Returns the refusal's
    message, or None where both pass. M must be symmetric and finite."""
    M = 0.5 * (M + M.T)
    eigs = np.linalg.eigvalsh(M)
    if eigs[0] <= 0:
        return f"M must be positive definite, min eigenvalue {eigs[0]:.3e}"
    det = float(np.linalg.det(M))
    if det < 1.0 / 16.0 - DET_BOUND_SLACK:
        return f"det M = {det:.12f} violates the uncertainty bound 1/16"
    return None


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


def _displacement_phase(alpha: complex, delta: complex) -> complex:
    # D(alpha)|delta> = exp((alpha conj(delta) - conj(alpha) delta)/2) |alpha+delta>
    return cmath.exp((alpha * delta.conjugate() - alpha.conjugate() * delta) / 2.0)


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


def _fock_amplitudes(mu: complex, log_fact: np.ndarray) -> np.ndarray:
    # <n|mu> for n = 0..len(log_fact) - 1; each has modulus <= 1
    if mu == 0:
        out = np.zeros(len(log_fact), dtype=complex)
        out[0] = 1.0
        return out
    n = np.arange(len(log_fact))
    log_mag = -abs(mu) ** 2 / 2.0 + n * math.log(abs(mu)) - 0.5 * log_fact
    return np.exp(log_mag + 1j * cmath.phase(mu) * n)


def outer_product_superposition_table(state, alpha1: complex, alpha2: complex,
                                      nmax: int) -> np.ndarray:
    """``tomobell.coherent_superposition_table`` as it was written before
    one exp formed every Fock row: per term, the coefficient times both
    displacement phases times the outer product of the two modes' Fock
    amplitudes, each row a magnitude and a phase of its own. The reference
    the library's table must agree with."""
    log_fact = np.array([_log_factorial(n) for n in range(_integer(nmax, "nmax") + 1)])
    a1, a2 = complex(alpha1), complex(alpha2)
    amp = 0.0
    for coeff, d1, d2 in coherent_superposition_terms(state):
        c = coeff * _displacement_phase(a1, d1) * _displacement_phase(a2, d2)
        amp = amp + np.outer(
            c * _fock_amplitudes(a1 + d1, log_fact), _fock_amplitudes(a2 + d2, log_fact)
        )
    return amp.real ** 2 + amp.imag ** 2


class FockOracleSource(TomogramSource):
    """``fock_oracle_tomogram`` as a tomogram source; its tables are
    filled entry by entry."""

    def __init__(self, state):
        coherent_superposition_terms(state)  # refuses a state it cannot expand
        self.state = state

    def tomogram(self, n1, n2, alpha1, alpha2):
        return fock_oracle_tomogram(self.state, n1, n2, alpha1, alpha2)


# ---------------------------------------------------------------------------
# displaced thermal statistics and the displacement operator
# ---------------------------------------------------------------------------


def _laguerre(n, x):
    out = [1.0, 1.0 - x]
    for k in range(1, n):
        out.append(((2 * k + 1 - x) * out[k] - k * out[k - 1]) / (k + 1))
    return np.array(out[: n + 1])


def displaced_thermal(nbar, beta, nmax):
    """Photon statistics P(n), n = 0..nmax, of a thermal state with mean
    nbar displaced by beta: a Laguerre polynomial times a geometric
    weight."""
    x = abs(beta) ** 2
    n = np.arange(nmax + 1)
    return (nbar ** n / (1 + nbar) ** (n + 1) * math.exp(-x / (1 + nbar))
            * _laguerre(nmax, -x / (nbar * (1 + nbar))))


def displacement_operator(alpha, dim):
    """D(alpha) = exp(alpha a^dag - conj(alpha) a) in the Fock basis 0..dim-1."""
    # With alpha = x e^(i phi), D(alpha) = e^(i phi n) exp(x (a^dag - a)) e^(-i phi n),
    # and i (a^dag - a) is Hermitian, so exp(x (a^dag - a)) = V e^(-i lam x) V^H
    # from its eigenvectors V and eigenvalues lam (within 2e-14 of scipy's
    # expm of the generator, and twenty times faster)
    a = np.diag(np.sqrt(np.arange(1, dim)), 1)
    lam, v = np.linalg.eigh(1j * (a.T - a))
    phase = np.exp(1j * np.angle(alpha) * np.arange(dim))
    real_shift = (v * np.exp(-1j * lam * abs(alpha))) @ v.conj().T
    return phase[:, None] * real_shift * phase.conj()[None, :]


# ---------------------------------------------------------------------------
# the two-pass portrait check, and the cells it checked
# ---------------------------------------------------------------------------


def even_odd_cells(p1, p2, p12):
    """Cells from the parities G(-1, 1), G(1, -1) and G(-1, -1)."""
    return (
        0.25 * (1.0 + p1 + p2 + p12),
        0.25 * (1.0 + p1 - p2 - p12),
        0.25 * (1.0 - p1 + p2 - p12),
        0.25 * (1.0 - p1 - p2 + p12),
    )


def zero_nonzero_cells(v1, v2, v12):
    """Cells from the vacuum probabilities G(0, 1), G(1, 0) and G(0, 0)."""
    return (v12, v1 - v12, v2 - v12, 1.0 - v1 - v2 + v12)


# the cells of each canonical partition as the portraits formed them before
# one column function per partition formed and checked them in one call:
# ``_checked_cells(cells(g1, g2, g12), 0.0, tol, what)`` is the reference
# for the column functions of ``tomobell.portrait._CANONICAL``
CANONICAL_CELLS = {"even-odd": even_odd_cells, "zero-nonzero": zero_nonzero_cells}


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


# ---------------------------------------------------------------------------
# the per-column closed-form route
# ---------------------------------------------------------------------------
#
# The closed-form portraits and the maximizer's objective as they were
# computed before each family evaluated B's columns and gradient in one
# call: per-mode terms and their derivatives from ``mode1_grad`` and
# ``mode2_grad``, one ``column_grad`` per Bell-matrix column, and the
# objective that combines them into +B and its gradient. The values route
# (``mode1``, ``mode2``, ``joint``, ``bell_columns``) is kept as it was
# too. ``tomobell.portrait.ClosedFormPortrait`` and
# ``tomobell.bell._closed_form_objective`` must give their columns, values,
# gradients and errors bit for bit (the objective with the sign of -B).


class _PerColumnBranch:
    """Per-mode plumbing of the coherent-branch states: a marginal is the
    joint G with the other mode unmeasured (per-mode terms ``_one1``/``_one2``)."""

    def mode1(self, alpha):
        d = self._mode(alpha, self._g1)
        return self.joint(d, self._one2), d

    def mode2(self, alpha):
        d = self._mode(alpha, self._g2)
        return self.joint(self._one1, d), d

    def mode1_grad(self, alpha):
        d, t = self._mode_grad(alpha, self._g1)
        return self._marginal_grad(d, t, self._one2), d, t

    def mode2_grad(self, alpha):
        d, t = self._mode_grad(alpha, self._g2)
        return self._marginal_grad(d, t, self._one1), d, t


class _PerColumnCat(_PerColumnBranch):
    tol = NEGATIVITY_TOL

    def __init__(self, state: CatState, s: float):
        g1, g2 = complex(state.gamma1), complex(state.gamma2)
        c1, c2 = abs(g1) ** 2, abs(g2) ** 2
        self._g1, self._g2 = (g1.real, g1.imag, c1), (g2.real, g2.imag, c2)
        self._s, self._k = s, 1.0 - s
        self._norm2 = 0.5 / (1.0 + math.exp(-2.0 * (c1 + c2)))
        self._one1 = (0.0, 0.0, -2.0 * c1, 0.0)
        self._one2 = (0.0, 0.0, -2.0 * c2, 0.0)

    def _mode(self, alpha, g):
        ar, ai = alpha.real, alpha.imag
        gr, gi, c = g
        a = ar * ar + ai * ai
        k = self._k
        return (
            -k * ((ar + gr) ** 2 + (ai + gi) ** 2),
            -k * ((ar - gr) ** 2 + (ai - gi) ** 2),
            self._s * (a - c) - (a + c),
            -2.0 * k * (ar * gi - ai * gr),
        )

    def _mode_grad(self, alpha, g):
        ar, ai = alpha.real, alpha.imag
        gr, gi, _ = g
        k2 = -2.0 * self._k
        return self._mode(alpha, g), (
            (k2 * (ar + gr), k2 * (ar - gr), k2 * ar, k2 * gi),
            (k2 * (ai + gi), k2 * (ai - gi), k2 * ai, -k2 * gr),
        )

    def joint(self, d1, d2):
        return self._norm2 * (
            math.exp(d1[0] + d2[0])
            + math.exp(d1[1] + d2[1])
            + 2.0 * math.exp(d1[2] + d2[2]) * math.cos(d1[3] + d2[3])
        )

    def joint_grad(self, d1, t1, d2, t2):
        n = self._norm2
        e_plus = math.exp(d1[0] + d2[0])
        e_minus = math.exp(d1[1] + d2[1])
        x = 2.0 * math.exp(d1[2] + d2[2])
        phase = d1[3] + d2[3]
        x_cos, x_sin = x * math.cos(phase), x * math.sin(phase)
        w0, w1, w2, w3 = n * e_plus, n * e_minus, n * x_cos, -n * x_sin
        (r1, i1), (r2, i2) = t1, t2
        return (
            n * (e_plus + e_minus + x_cos),
            w0 * r1[0] + w1 * r1[1] + w2 * r1[2] + w3 * r1[3],
            w0 * i1[0] + w1 * i1[1] + w2 * i1[2] + w3 * i1[3],
            w0 * r2[0] + w1 * r2[1] + w2 * r2[2] + w3 * r2[3],
            w0 * i2[0] + w1 * i2[1] + w2 * i2[2] + w3 * i2[3],
        )

    def _marginal_grad(self, d, t, one):
        n = self._norm2
        e_plus = math.exp(d[0] + one[0])
        e_minus = math.exp(d[1] + one[1])
        x = 2.0 * math.exp(d[2] + one[2])
        phase = d[3] + one[3]
        x_cos, x_sin = x * math.cos(phase), x * math.sin(phase)
        w0, w1, w2, w3 = n * e_plus, n * e_minus, n * x_cos, -n * x_sin
        r, i = t
        return (
            n * (e_plus + e_minus + x_cos),
            w0 * r[0] + w1 * r[1] + w2 * r[2] + w3 * r[3],
            w0 * i[0] + w1 * i[1] + w2 * i[2] + w3 * i[3],
        )


class _PerColumnCoherent(_PerColumnBranch):
    tol = NEGATIVITY_TOL
    _one1 = _one2 = 0.0

    def __init__(self, state: CoherentProduct, s: float):
        self._g1, self._g2 = complex(state.gamma1), complex(state.gamma2)
        self._k = 1.0 - s

    def _mode(self, alpha, g):
        return -self._k * ((alpha.real + g.real) ** 2 + (alpha.imag + g.imag) ** 2)

    def _mode_grad(self, alpha, g):
        k2 = -2.0 * self._k
        return self._mode(alpha, g), (k2 * (alpha.real + g.real), k2 * (alpha.imag + g.imag))

    def joint(self, e1, e2):
        return math.exp(e1 + e2)

    def joint_grad(self, e1, t1, e2, t2):
        v = math.exp(e1 + e2)
        return v, v * t1[0], v * t1[1], v * t2[0], v * t2[1]

    def _marginal_grad(self, e, t, one):
        v = math.exp(e + one)
        return v, v * t[0], v * t[1]


class _PerColumnGaussian:
    tol = NEGATIVITY_TOL_HERMITE

    def __init__(self, spec: GaussianSpec, s: float):
        scale = 0.5 * (1.0 - s)
        # the kernel of this s alone, with its own inv and det
        w = (1.0 - s) * spec.M + 0.5 * (1.0 + s) * np.eye(4)
        w, K, det_w = w.tolist(), (scale * np.linalg.inv(w)).tolist(), float(np.linalg.det(w))

        def k(i, j):
            return 0.5 * (K[i][j] + K[j][i])

        self._c12 = 1.0 / math.sqrt(det_w)
        per_mode = []
        for i, j in (_MODE1_IDX, _MODE2_IDX):
            det = w[i][i] * w[j][j] - w[i][j] * w[j][i]
            f = scale / det
            per_mode.append((
                1.0 / math.sqrt(det),
                (f * w[j][j], -2.0 * f * w[i][j], f * w[i][i]),
                (k(i, i), 2.0 * k(i, j), k(j, j)),
            ))
        (self._c1, self._k1, self._j1), (self._c2, self._k2, self._j2) = per_mode
        (i1, j1), (i2, j2) = _MODE1_IDX, _MODE2_IDX
        self._x = (2.0 * k(i1, i2), 2.0 * k(i1, j2), 2.0 * k(j1, i2), 2.0 * k(j1, j2))
        self._m1 = (float(spec.mean[2]), float(spec.mean[0]))
        self._m2 = (float(spec.mean[3]), float(spec.mean[1]))

    @staticmethod
    def _form(k, x, y):
        return k[0] * x * x + k[1] * x * y + k[2] * y * y

    @staticmethod
    def _form_grad(k, x, y):
        return 2.0 * k[0] * x + k[1] * y, k[1] * x + 2.0 * k[2] * y

    def mode1(self, alpha):
        x = self._m1[0] + SQRT2 * alpha.real
        y = self._m1[1] + SQRT2 * alpha.imag
        x00, x01, x10, x11 = self._x
        cross = (x00 * x + x10 * y, x01 * x + x11 * y)
        return (
            self._c1 * math.exp(-self._form(self._k1, x, y)),
            (self._form(self._j1, x, y), cross),
        )

    def mode2(self, alpha):
        x = self._m2[0] + SQRT2 * alpha.real
        y = self._m2[1] + SQRT2 * alpha.imag
        return (
            self._c2 * math.exp(-self._form(self._k2, x, y)),
            (self._form(self._j2, x, y), (x, y)),
        )

    def joint(self, d1, d2):
        (own1, (h0, h1)), (own2, (x, y)) = d1, d2
        return self._c12 * math.exp(-(own1 + own2 + h0 * x + h1 * y))

    def _marginal_grad(self, c, k, x, y):
        p = c * math.exp(-self._form(k, x, y))
        kx, ky = self._form_grad(k, x, y)
        return p, -SQRT2 * p * kx, -SQRT2 * p * ky

    def mode1_grad(self, alpha):
        x = self._m1[0] + SQRT2 * alpha.real
        y = self._m1[1] + SQRT2 * alpha.imag
        x00, x01, x10, x11 = self._x
        d = (self._form(self._j1, x, y), (x00 * x + x10 * y, x01 * x + x11 * y))
        return self._marginal_grad(self._c1, self._k1, x, y), d, self._form_grad(self._j1, x, y)

    def mode2_grad(self, alpha):
        x = self._m2[0] + SQRT2 * alpha.real
        y = self._m2[1] + SQRT2 * alpha.imag
        d = (self._form(self._j2, x, y), (x, y))
        return self._marginal_grad(self._c2, self._k2, x, y), d, self._form_grad(self._j2, x, y)

    def joint_grad(self, d1, t1, d2, t2):
        (_, (h0, h1)), (_, (x, y)) = d1, d2
        v = self.joint(d1, d2)
        x00, x01, x10, x11 = self._x
        f = -SQRT2 * v
        return (
            v,
            f * (t1[0] + x00 * x + x01 * y),
            f * (t1[1] + x10 * x + x11 * y),
            f * (t2[0] + h0),
            f * (t2[1] + h1),
        )


_PER_COLUMN_FAMILIES = (
    (CatState, _PerColumnCat, "cat"),
    (CoherentProduct, _PerColumnCoherent, "coherent"),
    (GaussianSpec, _PerColumnGaussian, "gaussian"),
)


class PerColumnPortrait:
    """A closed-form portrait function on the per-column route: per-mode
    terms from ``mode1``/``mode2`` (values) and ``mode1_grad``/``mode2_grad``
    (values and derivatives), one checked column per ``column`` or
    ``column_grad`` call."""

    def __init__(self, state, kind: str):
        s, _, self._weights = _CANONICAL[kind]
        self._cells = CANONICAL_CELLS[kind]
        family, name = next((f, n) for cls, f, n in _PER_COLUMN_FAMILIES if isinstance(state, cls))
        self._g = family(state, s)
        self.mode1, self.mode2 = self._g.mode1, self._g.mode2
        self.mode1_grad, self.mode2_grad = self._g.mode1_grad, self._g.mode2_grad
        self._what = f"{name} {kind} portrait"

    def column(self, m1, m2):
        (p1, d1), (p2, d2) = m1, m2
        cells = self._cells(p1, p2, self._g.joint(d1, d2))
        return _checked_cells(cells, 0.0, self._g.tol, self._what)

    def column_grad(self, m1, m2):
        """``column`` and the derivatives of the column's correlation along
        (Re alpha1, Im alpha1, Re alpha2, Im alpha2)."""
        ((p1, p1_re, p1_im), d1, t1), ((p2, p2_re, p2_im), d2, t2) = m1, m2
        v, v1_re, v1_im, v2_re, v2_im = self._g.joint_grad(d1, t1, d2, t2)
        c1, c2, c12 = self._weights
        checked = _checked_cells(self._cells(p1, p2, v), 0.0, self._g.tol, self._what)
        return checked, (
            c1 * p1_re + c12 * v1_re,
            c1 * p1_im + c12 * v1_im,
            c2 * p2_re + c12 * v2_re,
            c2 * p2_im + c12 * v2_im,
        )

    def __call__(self, alpha1, alpha2):
        return self.column(self.mode1(alpha1), self.mode2(alpha2))

    def bell_columns(self, s):
        (pa1, da1), (pb1, db1) = self.mode1(s.alpha1), self.mode1(s.beta1)
        (pa2, da2), (pb2, db2) = self.mode2(s.alpha2), self.mode2(s.beta2)
        joint, cells, tol, what = self._g.joint, self._cells, self._g.tol, self._what
        return [_checked_cells(cells(pa1, pa2, joint(da1, da2)), 0.0, tol, what),
                _checked_cells(cells(pa1, pb2, joint(da1, db2)), 0.0, tol, what),
                _checked_cells(cells(pb1, pa2, joint(db1, da2)), 0.0, tol, what),
                _checked_cells(cells(pb1, pb2, joint(db1, db2)), 0.0, tol, what)]


def per_column_objective(portrait: PerColumnPortrait, box: float):
    """+B and its gradient at 8 setting coordinates (``BellSettings.as_vector``
    order), clipped into the box, from four ``column_grad`` calls."""
    mode1, mode2, column = portrait.mode1_grad, portrait.mode2_grad, portrait.column_grad

    def bell_value_grad(x):
        c = _clipped(x, box)
        a1, b1 = mode1(complex(c[0], c[1])), mode1(complex(c[2], c[3]))
        a2, b2 = mode2(complex(c[4], c[5])), mode2(complex(c[6], c[7]))
        (k0, g0), (k1, g1), (k2, g2), (k3, g3) = (
            column(a1, a2), column(a1, b2), column(b1, a2), column(b1, b2))
        e = [w_pp - w_pm - w_mp + w_mm for w_pp, w_pm, w_mp, w_mm, _ in (k0, k1, k2, k3)]
        chsh = e[0] + e[1] + e[2] - e[3]
        b = abs(chsh)
        sign = 1.0 if chsh >= 0.0 else -1.0
        return b, [
            sign * (g0[0] + g1[0]), sign * (g0[1] + g1[1]),
            sign * (g2[0] - g3[0]), sign * (g2[1] - g3[1]),
            sign * (g0[2] + g2[2]), sign * (g0[3] + g2[3]),
            sign * (g1[2] - g3[2]), sign * (g1[3] - g3[3]),
        ]

    return bell_value_grad
