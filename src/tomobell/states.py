"""Tomogram sources for two-mode light states.

A photon-number tomogram w(n1, n2, alpha1, alpha2) is the probability of
counting (n1, n2) photons in the two modes after displacing the state by
(alpha1, alpha2). This module implements four sources:

* Schroedinger cat states (superpositions of opposite coherent states),
  through a closed formula with a log-domain branch for large amplitudes;
* products of coherent states (Poisson statistics);
* generic Gaussian states given by a 4x4 dispersion matrix and mean
  vector, through four-dimensional Hermite polynomials;
* a brute-force Fock-basis oracle for any finite superposition of
  two-mode coherent states, used to cross-check the closed forms.

Quadrature ordering is (p1, p2, q1, q2) everywhere a 4-vector or 4x4
matrix appears, with p = -i(a - a^dag)/sqrt(2), q = (a + a^dag)/sqrt(2)
and hbar = 1.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateGaussian,
    InvalidParameter,
    NonPhysicalSpec,
    NumericalNegativity,
    SingularMatrix,
    UnsupportedState,
)
from .hermite import HermiteParams, hermite_box, hermite_eval
from .numerics import mat4_det, mat4_inverse

# cat-state formulas switch to (sign, log magnitude) accumulation above this
# value of |gamma1|^2 + |gamma2|^2; cosh of anything much larger overflows
LOG_DOMAIN_THRESHOLD = 30.0

# tolerated rounding negativity for closed forms / for the Hermite path
NEGATIVITY_TOL = 1e-12
NEGATIVITY_TOL_HERMITE = 1e-9

# |Im H| <= IMAG_RESIDUE_TOL * (1 + |Re H|) must hold before Re is taken
IMAG_RESIDUE_TOL = 1e-8

SYMMETRY_TOL = 1e-12
R_SYMMETRY_TOL = 1e-10
DET_BOUND_SLACK = 1e-10

# photon-number truncation defaults: counts up to 30 per mode, displacement
# components confined to |Re alpha|, |Im alpha| <= 2
DEFAULT_NMAX = 30
DEFAULT_ALPHA_BOX = 2.0

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

# component order of mode 1 / mode 2 inside a (p1, p2, q1, q2) vector
_MODE1_IDX = (0, 2)
_MODE2_IDX = (1, 3)


def _log_cosh(x: float) -> float:
    """log(cosh x), safe for arbitrarily large |x|."""
    ax = abs(x)
    return ax - math.log(2.0) + math.log1p(math.exp(-2.0 * ax))


def _log_factorial(n: int) -> float:
    return math.lgamma(n + 1)


# ---------------------------------------------------------------------------
# state descriptions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CatState:
    """Normalized superposition of |g1, g2> and |-g1, -g2>."""

    gamma1: complex
    gamma2: complex


@dataclass(frozen=True)
class CoherentProduct:
    """Product coherent state |g1> x |g2> (simply separable)."""

    gamma1: complex
    gamma2: complex


class GaussianSpec:
    """A two-mode Gaussian state: dispersion matrix M and mean vector.

    M is the 4x4 real symmetric matrix of quadrature (co)variances in
    (p1, p2, q1, q2) order; mean is the quadrature average vector in the
    same order. Construction validates symmetry, positive definiteness,
    and the uncertainty bound det M >= 1/16.
    """

    def __init__(self, M, mean=None):
        M = np.asarray(M, dtype=float)
        if M.shape != (4, 4):
            raise NonPhysicalSpec(f"M must be 4x4, got shape {M.shape}")
        if not np.all(np.isfinite(M)):
            raise NonPhysicalSpec("M entries must be finite")
        asym = float(np.max(np.abs(M - M.T)))
        if asym > SYMMETRY_TOL:
            raise NonPhysicalSpec(
                f"M deviates from symmetry by {asym:.3e} (> {SYMMETRY_TOL:.0e})"
            )
        M = 0.5 * (M + M.T)
        eigs = np.linalg.eigvalsh(M)
        if eigs[0] <= 0:
            raise NonPhysicalSpec(
                f"M must be positive definite, min eigenvalue {eigs[0]:.3e}"
            )
        det = float(np.linalg.det(M))
        if det < 1.0 / 16.0 - DET_BOUND_SLACK:
            raise NonPhysicalSpec(
                f"det M = {det:.12f} violates the uncertainty bound 1/16"
            )
        if mean is None:
            mean = np.zeros(4)
        mean = np.asarray(mean, dtype=float)
        if mean.shape != (4,) or not np.all(np.isfinite(mean)):
            raise NonPhysicalSpec("mean must be a finite 4-vector")
        self.M = M
        self.mean = mean.copy()
        self.M.setflags(write=False)
        self.mean.setflags(write=False)

    def __repr__(self):
        return f"GaussianSpec(M={self.M.tolist()}, mean={self.mean.tolist()})"


def gaussian_purity_family(k: float, l: float) -> GaussianSpec:
    """The one-knob family of generally mixed squeezed states M(k, l).

    k >= 1/2 controls squeezing (k = 1/2 is the vacuum), l >= 0 admixes
    classical noise into one quadrature; det M(k, l) = (1 + 4l)/16, so
    l = 0 is the pure subfamily.

    Raises:
        InvalidParameter: if k < 1/2 or l < 0.
    """
    k = float(k)
    l = float(l)
    if not (k >= 0.5):
        raise InvalidParameter(f"k must be >= 1/2, got {k}")
    if not (l >= 0.0):
        raise InvalidParameter(f"l must be >= 0, got {l}")
    s = math.sqrt(k * k - 0.25)
    M = np.array(
        [
            [k + l / k, s, 0.0, 0.0],
            [s, k, 0.0, 0.0],
            [0.0, 0.0, k, s],
            [0.0, 0.0, s, k],
        ]
    )
    return GaussianSpec(M, np.zeros(4))


# ---------------------------------------------------------------------------
# cat state
# ---------------------------------------------------------------------------


def cat_log_normalization(gamma1: complex, gamma2: complex) -> float:
    """log N for the cat state, stable for any amplitude."""
    S = abs(gamma1) ** 2 + abs(gamma2) ** 2
    return 0.5 * S - math.log(2.0) - 0.5 * _log_cosh(S)


def cat_normalization(gamma1: complex, gamma2: complex) -> float:
    """Normalization factor N = exp(S/2) / (2 sqrt(cosh S)), S = |g1|^2+|g2|^2.

    Always computed through the log domain; N itself lies in (1/2, 1/sqrt(2)]
    so the returned value is finite for every input.
    """
    return math.exp(cat_log_normalization(gamma1, gamma2))


def _clamp_probability(w: float, tol: float, what: str) -> float:
    if w < -tol:
        raise NumericalNegativity(f"{what} evaluated to {w:.6e}")
    return max(w, 0.0)


def cat_tomogram(s: CatState, n1: int, n2: int, alpha1: complex, alpha2: complex) -> float:
    """Photon-number tomogram of the cat state.

    w = exp(-|a1|^2-|a2|^2) / (4 n1! n2! cosh S) *
        | e^{-z} (a1+g1)^{n1} (a2+g2)^{n2} + e^{z} (a1-g1)^{n1} (a2-g2)^{n2} |^2

    with z = conj(a1) g1 + conj(a2) g2 and S = |g1|^2 + |g2|^2. Above the
    log-domain threshold each product is carried as a complex logarithm.
    """
    if n1 < 0 or n2 < 0:
        raise ValueError("photon numbers must be nonnegative")
    g1, g2 = complex(s.gamma1), complex(s.gamma2)
    a1, a2 = complex(alpha1), complex(alpha2)
    S = abs(g1) ** 2 + abs(g2) ** 2
    z = a1.conjugate() * g1 + a2.conjugate() * g2
    log_common = (
        -abs(a1) ** 2
        - abs(a2) ** 2
        - math.log(4.0)
        - _log_factorial(n1)
        - _log_factorial(n2)
        - _log_cosh(S)
    )

    if S <= LOG_DOMAIN_THRESHOLD:
        t_plus = cmath.exp(-z) * (a1 + g1) ** n1 * (a2 + g2) ** n2
        t_minus = cmath.exp(z) * (a1 - g1) ** n1 * (a2 - g2) ** n2
        w = math.exp(log_common) * abs(t_plus + t_minus) ** 2
        return _clamp_probability(w, NEGATIVITY_TOL, "cat tomogram")

    # log-domain branch: term = exp(lt) with complex lt; a zero base with a
    # positive exponent kills the term outright
    terms = []
    for sign in (+1, -1):
        lt = -sign * z
        dead = False
        for base, n in (((a1 + sign * g1), n1), ((a2 + sign * g2), n2)):
            if n == 0:
                continue
            if base == 0:
                dead = True
                break
            lt = lt + n * cmath.log(base)
        if not dead:
            terms.append(lt)
    if not terms:
        return 0.0
    peak = max(t.real for t in terms)
    ssum = sum(cmath.exp(t - peak) for t in terms)
    mag = abs(ssum)
    if mag == 0.0:
        return 0.0
    w = math.exp(log_common + 2.0 * peak + 2.0 * math.log(mag))
    return _clamp_probability(w, NEGATIVITY_TOL, "cat tomogram")


# ---------------------------------------------------------------------------
# coherent product
# ---------------------------------------------------------------------------


def _poisson_pmf(n: int, lam: float) -> float:
    if lam == 0.0:
        return 1.0 if n == 0 else 0.0
    return math.exp(-lam + n * math.log(lam) - _log_factorial(n))


def coherent_tomogram(
    s: CoherentProduct, n1: int, n2: int, alpha1: complex, alpha2: complex
) -> float:
    """Product of Poisson weights with means |alpha_i + gamma_i|^2."""
    if n1 < 0 or n2 < 0:
        raise ValueError("photon numbers must be nonnegative")
    lam1 = abs(complex(alpha1) + complex(s.gamma1)) ** 2
    lam2 = abs(complex(alpha2) + complex(s.gamma2)) ** 2
    return _poisson_pmf(n1, lam1) * _poisson_pmf(n2, lam2)


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


def coherent_superposition_terms(state):
    """Expand a supported pure state into [(coeff, delta1, delta2), ...].

    Supported inputs are CatState, CoherentProduct, or an explicit list of
    (coeff, delta1, delta2) triples.

    Raises:
        UnsupportedState: for anything else (mixed Gaussian specs included).
    """
    if isinstance(state, CatState):
        norm = cat_normalization(state.gamma1, state.gamma2)
        return [
            (norm, complex(state.gamma1), complex(state.gamma2)),
            (norm, -complex(state.gamma1), -complex(state.gamma2)),
        ]
    if isinstance(state, CoherentProduct):
        return [(1.0 + 0.0j, complex(state.gamma1), complex(state.gamma2))]
    if isinstance(state, (list, tuple)) and all(
        isinstance(t, (list, tuple)) and len(t) == 3 for t in state
    ) and len(state) > 0:
        return [(complex(c), complex(d1), complex(d2)) for c, d1, d2 in state]
    raise UnsupportedState(
        f"no coherent-superposition expansion for {type(state).__name__}"
    )


def fock_oracle_tomogram(state, n1: int, n2: int, alpha1: complex, alpha2: complex) -> float:
    """Brute-force tomogram for finite coherent superpositions.

    Sums the displaced Fock amplitudes term by term and squares the total.
    Slow and simple on purpose; this is the ground truth for the cat and
    coherent closed forms.
    """
    if n1 < 0 or n2 < 0:
        raise ValueError("photon numbers must be nonnegative")
    a1, a2 = complex(alpha1), complex(alpha2)
    terms = coherent_superposition_terms(state)
    amp = 0.0 + 0.0j
    for coeff, d1, d2 in terms:
        amp += (
            coeff
            * _displacement_phase(a1, d1)
            * _fock_amplitude(n1, a1 + d1)
            * _displacement_phase(a2, d2)
            * _fock_amplitude(n2, a2 + d2)
        )
    return abs(amp) ** 2


# ---------------------------------------------------------------------------
# Gaussian states
# ---------------------------------------------------------------------------


def gaussian_shifted_mean(g: GaussianSpec, alpha1: complex, alpha2: complex) -> np.ndarray:
    """Quadrature mean of the displaced state, in (p1, p2, q1, q2) order.

    Displacing by (alpha1, alpha2) shifts p_j by sqrt(2) Im alpha_j and
    q_j by sqrt(2) Re alpha_j; the dispersion matrix M is unchanged.
    """
    a1, a2 = complex(alpha1), complex(alpha2)
    shift = math.sqrt(2.0) * np.array([a1.imag, a2.imag, a1.real, a2.real])
    return g.mean + shift


def gaussian_effective_mean(g: GaussianSpec, alpha1: complex, alpha2: complex) -> np.ndarray:
    """Displaced mean as consumed by the tomogram kernel.

    The photon-count kernel below takes the displaced mean with the p and
    q pairs exchanged, i.e. in (q1, q2, p1, p2) order relative to
    ``gaussian_shifted_mean``. Both the exponential prefactor and the
    Hermite argument y must use this same vector; mixing the two orderings
    breaks normalization.
    """
    m = gaussian_shifted_mean(g, alpha1, alpha2)
    return m[[2, 3, 0, 1]]


def gaussian_R(M) -> np.ndarray:
    """Hermite parameter matrix R = U^dag (I - 2M) (I + 2M)^{-1} U^*."""
    M = np.asarray(M, dtype=float)
    core = (_I4 - 2.0 * M) @ mat4_inverse(_I4 + 2.0 * M)
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
    returned by ``gaussian_shifted_mean``; the kernel-order exchange to
    (q1, q2, p1, p2) happens here.

    Raises:
        DegenerateGaussian: when I - 2M is singular (coherent or vacuum
            state); the Poisson closed form applies there instead.
    """
    M = np.asarray(M, dtype=float)
    mu = np.asarray(shifted_mean, dtype=float)[[2, 3, 0, 1]]
    try:
        inv = mat4_inverse(_I4 - 2.0 * M)
    except SingularMatrix as exc:
        raise DegenerateGaussian(
            "I - 2M is singular; the state has coherent-state photon statistics"
        ) from exc
    return 2.0 * U_MATRIX.T @ (inv @ mu)


def _gaussian_prefactor(g: GaussianSpec, alpha1: complex, alpha2: complex) -> float:
    mu = gaussian_effective_mean(g, alpha1, alpha2)
    quad = float(mu @ mat4_inverse(2.0 * g.M + _I4) @ mu)
    det = float(mat4_det(g.M + 0.5 * _I4).real)
    return math.exp(-quad) / math.sqrt(det)


def _take_real_checked(h: complex, what: str) -> float:
    if abs(h.imag) > IMAG_RESIDUE_TOL * (1.0 + abs(h.real)):
        raise NumericalNegativity(
            f"{what}: imaginary residue {h.imag:.3e} too large for real part {h.real:.3e}"
        )
    return h.real


def gaussian_tomogram(
    g: GaussianSpec, n1: int, n2: int, alpha1: complex, alpha2: complex
) -> float:
    """Photon-number tomogram of a Gaussian state via Hermite polynomials.

    w = exp(-mu (2M+I)^{-1} mu) / sqrt(det(M + I/2)) *
        H^R_{n1,n2,n1,n2}(y) / (n1! n2!)

    Raises:
        DegenerateGaussian: if I - 2M is singular.
        NumericalNegativity: if the Hermite value carries a non-negligible
            imaginary part, or the final value is negative beyond 1e-9.
    """
    if n1 < 0 or n2 < 0:
        raise ValueError("photon numbers must be nonnegative")
    R = gaussian_R(g.M)
    y = gaussian_y(g.M, gaussian_shifted_mean(g, alpha1, alpha2))
    order = 2 * (n1 + n2)
    ctx = HermiteParams(R, y, max_order=max(order, 8))
    h = hermite_eval(ctx, (n1, n2, n1, n2))
    hr = _take_real_checked(h, "gaussian tomogram Hermite value")
    w = (
        _gaussian_prefactor(g, alpha1, alpha2)
        * hr
        * math.exp(-_log_factorial(n1) - _log_factorial(n2))
    )
    return _clamp_probability(w, NEGATIVITY_TOL_HERMITE, "gaussian tomogram")


def gaussian_tomogram_table(
    g: GaussianSpec, alpha1: complex, alpha2: complex, nmax: int = DEFAULT_NMAX
) -> np.ndarray:
    """All tomogram values for 0 <= n1, n2 <= nmax as an array.

    One Hermite box fill per displacement, then the diagonal index pattern
    (n1, n2, n1, n2) is read off. Orders of magnitude faster than calling
    ``gaussian_tomogram`` in a double loop.
    """
    if nmax < 0:
        raise ValueError("nmax must be nonnegative")
    R = gaussian_R(g.M)
    y = gaussian_y(g.M, gaussian_shifted_mean(g, alpha1, alpha2))
    ctx = HermiteParams(R, y, max_order=4 * max(nmax, 2))
    box = hermite_box(ctx, (nmax + 1,) * 4)
    idx = np.arange(nmax + 1)
    h = box[idx[:, None], idx[None, :], idx[:, None], idx[None, :]]
    bad = np.abs(h.imag) > IMAG_RESIDUE_TOL * (1.0 + np.abs(h.real))
    if np.any(bad):
        worst = h[bad][0]
        raise NumericalNegativity(
            f"gaussian tomogram table: imaginary residue {worst.imag:.3e} "
            f"too large for real part {worst.real:.3e}"
        )
    log_fact = np.array([_log_factorial(n) for n in range(nmax + 1)])
    w = _gaussian_prefactor(g, alpha1, alpha2) * h.real * np.exp(
        -log_fact[:, None] - log_fact[None, :]
    )
    low = float(w.min())
    if low < -NEGATIVITY_TOL_HERMITE:
        raise NumericalNegativity(f"gaussian tomogram table hit {low:.6e}")
    np.clip(w, 0.0, None, out=w)
    return w


# ---------------------------------------------------------------------------
# uniform source interface
# ---------------------------------------------------------------------------


class TomogramSource:
    """Anything that can evaluate w(n1, n2, alpha1, alpha2)."""

    def tomogram(self, n1: int, n2: int, alpha1: complex, alpha2: complex) -> float:
        raise NotImplementedError

    # sources that can fill a whole photon-number table cheaply override this
    def tomogram_table(self, alpha1, alpha2, nmax):
        n = int(nmax) + 1
        out = np.empty((n, n))
        for i in range(n):
            for j in range(n):
                out[i, j] = self.tomogram(i, j, alpha1, alpha2)
        return out


class CatSource(TomogramSource):
    def __init__(self, state: CatState):
        self.state = state

    def tomogram(self, n1, n2, alpha1, alpha2):
        return cat_tomogram(self.state, n1, n2, alpha1, alpha2)


class CoherentSource(TomogramSource):
    def __init__(self, state: CoherentProduct):
        self.state = state

    def tomogram(self, n1, n2, alpha1, alpha2):
        return coherent_tomogram(self.state, n1, n2, alpha1, alpha2)


class GaussianSource(TomogramSource):
    def __init__(self, state: GaussianSpec):
        self.state = state

    def tomogram(self, n1, n2, alpha1, alpha2):
        return gaussian_tomogram(self.state, n1, n2, alpha1, alpha2)

    def tomogram_table(self, alpha1, alpha2, nmax):
        return gaussian_tomogram_table(self.state, alpha1, alpha2, nmax)


class FockOracleSource(TomogramSource):
    def __init__(self, state):
        self.terms = coherent_superposition_terms(state)

    def tomogram(self, n1, n2, alpha1, alpha2):
        return fock_oracle_tomogram(self.terms, n1, n2, alpha1, alpha2)


def make_source(state) -> TomogramSource:
    """Wrap a state description in its natural tomogram evaluator."""
    if isinstance(state, CatState):
        return CatSource(state)
    if isinstance(state, CoherentProduct):
        return CoherentSource(state)
    if isinstance(state, GaussianSpec):
        return GaussianSource(state)
    if isinstance(state, TomogramSource):
        return state
    raise UnsupportedState(f"no tomogram source for {type(state).__name__}")


# ---------------------------------------------------------------------------
# state description files
# ---------------------------------------------------------------------------


def _parse_complex_pair(value, field: str) -> complex:
    if isinstance(value, (int, float)):
        return complex(float(value), 0.0)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        re, im = value
        if isinstance(re, (int, float)) and isinstance(im, (int, float)):
            return complex(float(re), float(im))
    raise ValueError(f"{field} must be a number or a [re, im] pair, got {value!r}")


def parse_state(doc: dict):
    """Build a state object from its JSON-style description.

    Formats:
        {"type": "cat", "gamma1": [re, im], "gamma2": [re, im]}
        {"type": "coherent", "gamma1": [re, im], "gamma2": [re, im]}
        {"type": "gaussian", "M": [[...4 rows of 4...]], "mean": [4 reals]}
        {"type": "gaussian_family", "k": real, "l": real}

    gamma values also accept a bare number for a real amplitude; the
    gaussian M accepts a flat list of 16 numbers.
    """
    if not isinstance(doc, dict):
        raise ValueError("state description must be a JSON object")
    kind = doc.get("type")
    if kind == "cat":
        return CatState(
            _parse_complex_pair(doc.get("gamma1"), "gamma1"),
            _parse_complex_pair(doc.get("gamma2"), "gamma2"),
        )
    if kind == "coherent":
        return CoherentProduct(
            _parse_complex_pair(doc.get("gamma1"), "gamma1"),
            _parse_complex_pair(doc.get("gamma2"), "gamma2"),
        )
    if kind == "gaussian":
        M = np.asarray(doc.get("M"), dtype=float)
        if M.size == 16:
            M = M.reshape(4, 4)
        if M.shape != (4, 4):
            raise ValueError("gaussian M must hold 16 numbers (4x4 or flat)")
        mean = doc.get("mean", [0.0, 0.0, 0.0, 0.0])
        mean = np.asarray(mean, dtype=float)
        if mean.shape != (4,):
            raise ValueError("gaussian mean must hold 4 numbers")
        return GaussianSpec(M, mean)
    if kind == "gaussian_family":
        if "k" not in doc or "l" not in doc:
            raise ValueError("gaussian_family needs numeric fields k and l")
        return gaussian_purity_family(float(doc["k"]), float(doc["l"]))
    raise ValueError(f"unknown state type {kind!r}")


def load_state(path):
    """Read a state description file (JSON) and build the state."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return parse_state(doc)
