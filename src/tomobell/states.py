"""Tomogram sources for two-mode light states.

A photon-number tomogram w(n1, n2, alpha1, alpha2) is the probability of
counting (n1, n2) photons in the two modes after displacing the state by
(alpha1, alpha2). This module implements three sources:

* Schroedinger cat states (superpositions of opposite coherent states);
* products of coherent states (Poisson statistics);
* generic Gaussian states given by a 4x4 dispersion matrix and mean
  vector.

Cat and coherent tomograms have one formula over the coherent
superposition terms (c_b, delta_b1, delta_b2):
|sum_b c_b <n1|D(alpha1)|delta_b1> <n2|D(alpha2)|delta_b2>|^2, whose
displaced Fock amplitudes have modulus at most 1. A table is one
vectorized pass of it; the scalar ``cat_tomogram`` (also named
``coherent_tomogram``) sums the same terms for one entry. A Gaussian
table is the array of Taylor coefficients of the closed-form generating
function G(s1, s2) = sum P(n1, n2) s1^n1 s2^n2, expanded in real
arithmetic, and ``gaussian_tomogram`` reads one entry of it. The paper's
closed products (cats, coherent products) and its four-dimensional
Hermite polynomials (Gaussians) are the tests' oracles.

Quadrature ordering is (p1, p2, q1, q2) everywhere a 4-vector or 4x4
matrix appears, with p = -i(a - a^dag)/sqrt(2), q = (a + a^dag)/sqrt(2)
and hbar = 1.
"""

from __future__ import annotations

import cmath
import json
import math
import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    InvalidParameter,
    NonPhysicalSpec,
    NumericalNegativity,
    UnsupportedState,
)
# nothing here calls the Hermite route; ``hermite_box`` and ``hermite_eval``
# stay importable from this module only because ``perfbench/spans.py``
# patches them here by name
from .hermite import SYMMETRY_TOL, hermite_box, hermite_eval  # noqa: F401

# tolerated rounding negativity of a probability: for cat and coherent
# closed forms, and for Gaussian values and sums over truncated tables
NEGATIVITY_TOL = 1e-12
NEGATIVITY_TOL_HERMITE = 1e-9

DET_BOUND_SLACK = 1e-10

# photon-number truncation defaults: counts up to 30 per mode, displacement
# components confined to |Re alpha|, |Im alpha| <= 2
DEFAULT_NMAX = 30
DEFAULT_BOX = 2.0

# the (R, L) series a Gaussian spec keeps, one pair per nmax: every nmax
# from 0 to DEFAULT_NMAX, which the entry-by-entry default of
# ``TomogramSource.tomogram_table`` cycles through, so that cycle never
# recomputes one (0.17 MB for nmax 0..30)
DELTA_SERIES_CACHE_SIZE = DEFAULT_NMAX + 1

# below this magnitude a float is subnormal: x86 arithmetic on it is slow,
# and it carries fewer significant bits
_TINY = float(np.finfo(float).tiny)

_I4 = np.eye(4)

# the points s of a Gaussian spec's kernels (parity, vacuum), and per point, as
# (point, row, column) arrays: 1 - s, the identity times (1 + s)/2, (1 - s)/2
_KERNEL_POINTS = (-1.0, 0.0)
_KERNEL_S = np.array(_KERNEL_POINTS)[:, None, None]
_KERNEL_TERMS = (1.0 - _KERNEL_S, 0.5 * (1.0 + _KERNEL_S) * _I4, 0.5 * (1.0 - _KERNEL_S))

# component order of mode 1 / mode 2 inside a (p1, p2, q1, q2) vector
_MODE1_IDX = (0, 2)
_MODE2_IDX = (1, 3)


def _log_cosh(x: float) -> float:
    """log(cosh x), safe for arbitrarily large |x|."""
    ax = abs(x)
    return ax - math.log(2.0) + math.log1p(math.exp(-2.0 * ax))


def _log_factorial(n: int) -> float:
    return math.lgamma(n + 1)


def _integer(value, name: str, low: int = 0) -> int:
    """An integer argument >= low as an int: a photon count, a table's nmax,
    a partition rule, a search's starts, seed or iteration budget.

    A bool or a non-integer is refused rather than truncated: int(2.5)
    would silently give a 3 x 3 table and True a 2 x 2 one.
    """
    # a plain int skips the slow ABC check below; a bool's type is not int
    if type(value) is not int:
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise InvalidParameter(f"{name} must be an integer, got {value!r}")
        value = int(value)
    if value < low:
        raise InvalidParameter(f"{name} must be >= {low}, got {value!r}")
    return value


def _check_finite(value, name: str) -> None:
    """Raise InvalidParameter unless value is a finite real or complex number."""
    # a plain float or complex skips the slow ABC check; True == 1 would
    # pass as the number 1
    if (type(value) not in (float, complex) and (
        isinstance(value, bool) or not isinstance(value, numbers.Number)
    )) or not cmath.isfinite(value):
        raise InvalidParameter(f"{name} must be a finite number, got {value!r}")


@lru_cache(maxsize=8)
def _log_factorials(nmax: int) -> np.ndarray:
    """log n! for n = 0..nmax, read-only."""
    out = np.array([_log_factorial(n) for n in range(nmax + 1)])
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# state descriptions
# ---------------------------------------------------------------------------


def _check_amplitudes(state) -> None:
    _check_finite(state.gamma1, "gamma1")
    _check_finite(state.gamma2, "gamma2")


@dataclass(frozen=True)
class CatState:
    """Normalized superposition of |g1, g2> and |-g1, -g2>."""

    gamma1: complex
    gamma2: complex

    __post_init__ = _check_amplitudes


@dataclass(frozen=True)
class CoherentProduct:
    """Product coherent state |g1> x |g2> (simply separable)."""

    gamma1: complex
    gamma2: complex

    __post_init__ = _check_amplitudes


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
        m = M.tolist()
        if not all(map(math.isfinite, m[0] + m[1] + m[2] + m[3])):
            raise NonPhysicalSpec("M entries must be finite")
        asym = max(abs(m[i][j] - m[j][i]) for i in range(4) for j in range(i))
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
        # a copy, so the caller's array can change without moving the spec
        mean = np.zeros(4) if mean is None else np.array(mean, dtype=float)
        if mean.shape != (4,) or not all(map(math.isfinite, mean.tolist())):
            raise NonPhysicalSpec("mean must be a finite 4-vector")
        self.M = M
        self.mean = mean
        self.M.setflags(write=False)
        self.mean.setflags(write=False)
        # (R, L) of ``_delta_series`` by nmax, oldest first
        self._series_cache = {}

    def __repr__(self):
        return f"GaussianSpec(M={self.M.tolist()}, mean={self.mean.tolist()})"

    @cached_property
    def _kernels(self):
        """(W, K, det W) of G(s, s) at each of ``_KERNEL_POINTS``, read-only:
        W = (1 - s) M + (1 + s)/2 and K = (1 - s)/2 W^-1. One stacked ``inv``
        and ``det`` give the bits of one call per s."""
        weights, identities, scales = _KERNEL_TERMS
        W = weights * self.M + identities
        kernels = W, scales * np.linalg.inv(W), np.linalg.det(W)
        for a in kernels:
            a.setflags(write=False)
        return kernels

    @cached_property
    def _generating_polynomials(self):
        # depends on M alone, so every table of this spec shares it
        return _generating_polynomials(self.M)

    def _series(self, n: int):
        """R = 1/Delta and L = log Delta to order n (``_delta_series``),
        shared by every table of this spec at that nmax."""
        cache = self._series_cache
        series = cache.get(n)
        if series is None:
            if len(cache) >= DELTA_SERIES_CACHE_SIZE:
                del cache[next(iter(cache))]
            series = cache[n] = _delta_series(self._generating_polynomials[0], n)
        return series


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
# coherent superpositions: cat states and coherent products
# ---------------------------------------------------------------------------


def _displacement_phase(alpha: complex, delta: complex) -> complex:
    # D(alpha)|delta> = exp((alpha conj(delta) - conj(alpha) delta)/2) |alpha+delta>
    return cmath.exp((alpha * delta.conjugate() - alpha.conjugate() * delta) / 2.0)


def coherent_superposition_terms(state):
    """Expand a CatState or CoherentProduct into [(coeff, delta1, delta2), ...].

    A cat's coefficient is N = e^(S/2) / (2 sqrt(cosh S)), S = |g1|^2 + |g2|^2,
    computed through log N, which is finite for every amplitude.

    Raises:
        UnsupportedState: for anything else (mixed Gaussian specs included).
    """
    if isinstance(state, CatState):
        g1, g2 = complex(state.gamma1), complex(state.gamma2)
        S = abs(g1) ** 2 + abs(g2) ** 2
        norm = math.exp(0.5 * S - math.log(2.0) - 0.5 * _log_cosh(S))
        return [(norm, g1, g2), (norm, -g1, -g2)]
    if isinstance(state, CoherentProduct):
        return [(1.0 + 0.0j, complex(state.gamma1), complex(state.gamma2))]
    raise UnsupportedState(
        f"no coherent-superposition expansion for {type(state).__name__}"
    )


def _log_fock_amplitude(n: int, alpha: complex, delta: complex) -> complex:
    """log <n|D(alpha)|delta>, whose real part is <= 0.

    With mu = alpha + delta, that amplitude is
    exp(-|mu|^2/2 + i Im(alpha conj(delta))) mu^n / sqrt(n!), and 0, with
    log -inf, where mu = 0 and n > 0.
    """
    mu = alpha + delta
    if mu == 0:
        return -math.inf if n else 0.0
    return n * cmath.log(mu) + complex(
        -abs(mu) ** 2 / 2.0 - 0.5 * _log_factorial(n), (alpha * delta.conjugate()).imag
    )


def _superposition_tomogram(state, n1: int, n2: int, alpha1: complex, alpha2: complex) -> float:
    """Photon-number tomogram of a cat state or a coherent product: entry
    (n1, n2) of ``coherent_superposition_table``, summed for it alone.

    Each term is c_b exp(log <n1|D(alpha1)|delta_b1> + log <n2|...>), whose
    modulus is at most |c_b|, so no term overflows at any amplitude or count.

    Raises:
        InvalidParameter: a count is not an integer >= 0, or a setting is
            not a finite number.
        OverflowError: where |alpha + delta|^2 or a cat's |gamma|^2 leaves
            the float range.
        UnsupportedState: for a state that is neither.
    """
    n1, n2 = _integer(n1, "n1"), _integer(n2, "n2")
    _check_finite(alpha1, "alpha1")
    _check_finite(alpha2, "alpha2")
    a1, a2 = complex(alpha1), complex(alpha2)
    amp = 0.0
    for coeff, d1, d2 in coherent_superposition_terms(state):
        log_amp = _log_fock_amplitude(n1, a1, d1) + _log_fock_amplitude(n2, a2, d2)
        amp += coeff * cmath.exp(log_amp)
    return amp.real ** 2 + amp.imag ** 2


# the public names of the one scalar; each takes either state
cat_tomogram = coherent_tomogram = _superposition_tomogram


def _fock_amplitudes(mu: complex, log_fact: np.ndarray) -> np.ndarray:
    # <n|mu> for n = 0..len(log_fact) - 1; each has modulus <= 1
    if mu == 0:
        out = np.zeros(len(log_fact), dtype=complex)
        out[0] = 1.0
        return out
    n = np.arange(len(log_fact))
    log_mag = -abs(mu) ** 2 / 2.0 + n * math.log(abs(mu)) - 0.5 * log_fact
    return np.exp(log_mag + 1j * cmath.phase(mu) * n)


def coherent_superposition_table(
    state, alpha1: complex, alpha2: complex, nmax: int = DEFAULT_NMAX
) -> np.ndarray:
    """All tomogram values for 0 <= n1, n2 <= nmax of a coherent superposition.

    The state's displaced Fock amplitudes, summed over its terms and
    squared, for every (n1, n2) at once: |sum_b c_b phi_b1 (x) phi_b2|^2,
    where phi_bj holds the Fock amplitudes <n|alpha_j + delta_bj> for
    n = 0..nmax and c_b is the term's
    coefficient times its displacement phases. Every amplitude has modulus
    at most 1, so no amplitude needs a log-domain branch.
    """
    log_fact = _log_factorials(_integer(nmax, "nmax"))
    a1, a2 = complex(alpha1), complex(alpha2)
    amp = 0.0
    for coeff, d1, d2 in coherent_superposition_terms(state):
        c = coeff * _displacement_phase(a1, d1) * _displacement_phase(a2, d2)
        amp = amp + np.outer(
            c * _fock_amplitudes(a1 + d1, log_fact), _fock_amplitudes(a2 + d2, log_fact)
        )
    return amp.real ** 2 + amp.imag ** 2


# ---------------------------------------------------------------------------
# Gaussian states
# ---------------------------------------------------------------------------


def gaussian_shifted_mean(g: GaussianSpec, alpha1: complex, alpha2: complex) -> np.ndarray:
    """Quadrature mean of the displaced state, in (p1, p2, q1, q2) order.

    Displacing by (alpha1, alpha2) shifts p_j by sqrt(2) Im alpha_j and
    q_j by sqrt(2) Re alpha_j; the dispersion matrix M is unchanged.
    """
    a1, a2 = complex(alpha1), complex(alpha2)
    # on Python floats, which round as numpy's float64 does but leave an
    # overflow to infinity without a warning
    r = math.sqrt(2.0)
    return g.mean + np.array([r * a1.imag, r * a2.imag, r * a1.real, r * a2.real])


def gaussian_effective_mean(g: GaussianSpec, alpha1: complex, alpha2: complex) -> np.ndarray:
    """Displaced mean as consumed by the tomogram kernel.

    The generating function below takes the displaced mean with the p and
    q pairs exchanged, i.e. in (q1, q2, p1, p2) order relative to
    ``gaussian_shifted_mean``; the other order breaks normalization.
    """
    m = gaussian_shifted_mean(g, alpha1, alpha2)
    return m[[2, 3, 0, 1]]


def _generating_polynomials(M):
    """Coefficients of Delta = det W and A = adj(W) diag(1 - s) in (s1, s2).

    W(s) = diag(1 - s) M + diag((1 + s)/2) = (M + 1/2) + diag(s) (1/2 - M)
    with s = (s1, s2, s1, s2). A determinant is linear in each row, so
    Delta is the sum over the 16 ways of taking each row from M + 1/2 or
    from s_i (1/2 - M), and each cofactor of W the same sum over the three
    rows it keeps: 16 determinants and 256 3x3 minors, with no matrix
    inversion and no cancellation between samples. Returns Delta[a, b] and
    A[i, j, a, b], the real coefficients of s1^a s2^b (a, b <= 2).
    """
    # mask m takes row i from 1/2 - M when bit i is set; bits 0, 2 belong
    # to mode 1 and bits 1, 3 to mode 2, so mask m carries s1^a s2^b with
    # powers[m, a, b] = 1
    masks = (np.arange(16)[:, None] >> np.arange(4)) & 1
    powers = np.zeros((16, 3, 3))
    powers[np.arange(16), masks[:, 0] + masks[:, 2], masks[:, 1] + masks[:, 3]] = 1.0
    rows = np.where(masks[:, :, None] == 1, 0.5 * _I4 - M, M + 0.5 * _I4)
    delta = np.einsum("m,mab->ab", np.linalg.det(rows), powers)
    # minors[m, i, j]: rows[m] without row i and column j
    kept = np.array([[k for k in range(4) if k != i] for i in range(4)])
    minors = np.linalg.det(rows[:, kept[:, None, :, None], kept[None, :, None, :]])
    sign = (-1.0) ** np.add.outer(np.arange(4), np.arange(4))
    # adj(W)[i, j] is the cofactor of W[j, i], which does not involve row j
    adjugates = np.swapaxes(sign * minors, 1, 2) * (masks[:, None, :] == 0)
    adj = np.einsum("mij,mab->ijab", adjugates, powers)
    # times diag(1 - s): column j gains a factor 1 - s of its own mode
    A = adj.copy()
    A[:, 0::2, 1:, :] -= adj[:, 0::2, :-1, :]
    A[:, 1::2, :, 1:] -= adj[:, 1::2, :, :-1]
    # every table of a spec shares them
    delta.setflags(write=False)
    A.setflags(write=False)
    return delta, A


def _s2_multipliers(rows, n: int) -> np.ndarray:
    """Multiplication by each s2-series in ``rows``, truncated at order n.

    Returns T with T[i, r, j] = rows[r][i - j] (0 for j > i): T[:, r] is
    the lower-triangular Toeplitz matrix that multiplies a series by
    rows[r], and ``T.reshape(n + 1, -1)`` applies all of them to stacked
    series and sums the products.
    """
    rows = np.atleast_2d(rows)[:, : n + 1]
    z = np.zeros((len(rows), 2 * n + 1))
    z[:, n : n + rows.shape[1]] = rows
    # T[i, r, j] = z[r, n + i - j]: a strided view of z, copied once
    step = z.itemsize
    view = np.ndarray((n + 1, len(rows), n + 1), float, z, n * step, (step, z.strides[0], -step))
    return view.copy()


def _exp_series(e: list) -> list:
    """Taylor coefficients of exp(e(s)) from those of e, as many as given.

    f' = e' f gives (k + 1) f[k + 1] = sum_j (j + 1) e[j + 1] f[k - j].
    The series is short, so this runs on Python floats.
    """
    de = [e[j + 1] * (j + 1) for j in range(len(e) - 1)]
    f = [math.exp(e[0])]
    for k in range(len(de)):
        acc = 0.0
        for a, b in zip(de, reversed(f)):
            acc += a * b
        f.append(acc / (k + 1))
    return f


def _flush_subnormals(x: np.ndarray) -> None:
    """Set the subnormal entries of x to zero in place, keeping their sign."""
    np.multiply(x, 0.0, out=x, where=np.abs(x) < _TINY)


def _delta_series(delta: np.ndarray, n: int):
    """R = 1/Delta and L = log Delta as read-only (n + 1) x (n + 1) arrays
    of Taylor coefficients in (s1, s2), subnormal entries set to zero.

    They depend on M and n alone. Rounding noise in Delta (a coefficient
    of -2.9e-16 where the exact one is 0, on the paper's squeezed
    example) raised to high powers leaves subnormal entries, and every
    product with one of them is slow; those entries are far below any
    entry of the table.
    """
    # R row by row in s1: Delta_0 R_k = -(Delta_1 R_(k-1) + Delta_2 R_(k-2)),
    # row 0 on Python floats. The other rows are written in place, with
    # the bits of -(q1 @ R_(k-1)) - q2 @ R_(k-2); one product with [q1 | q2]
    # would sum in another order and move the tables of non-states at
    # box-scale settings by up to 1e-12
    d00, d01, d02 = delta[0].tolist()
    r0 = [1.0 / d00]
    for k in range(1, n + 1):
        r0.append(-(d01 * r0[k - 1] + (d02 * r0[k - 2] if k >= 2 else 0.0)) / d00)
    d_rows = _s2_multipliers(delta, n)
    inv0 = _s2_multipliers(r0, n)[:, 0]
    neg_q1, q2 = -(inv0 @ d_rows[:, 1]), inv0 @ d_rows[:, 2]
    R = np.zeros((n + 1, n + 1))
    R[0] = r0
    q2_term = np.empty(n + 1)
    for k in range(1, n + 1):
        row = R[k]
        neg_q1.dot(R[k - 1], out=row)
        if k >= 2:
            row -= q2.dot(R[k - 2], out=q2_term)

    # log Delta: row 0 from d/ds2 log Delta_0 = Delta_0' R_0, the other
    # rows from d/ds1 log Delta = (Delta_1 + 2 s1 Delta_2) R
    L = np.zeros((n + 1, n + 1))
    L[0, 0] = math.log(d00)
    L[0, 1:] = [
        (d01 * r0[k] + 2.0 * d02 * (r0[k - 1] if k else 0.0)) / (k + 1) for k in range(n)
    ]
    dlog = R @ d_rows[:, 1].T
    dlog[1:] += 2.0 * R[:-1] @ d_rows[:, 2].T
    L[1:] = dlog[:-1] / np.arange(1, n + 1)[:, None]
    for x in (R, L):
        _flush_subnormals(x)
        x.setflags(write=False)
    return R, L


def gaussian_tomogram_table(
    g: GaussianSpec, alpha1: complex, alpha2: complex, nmax: int = DEFAULT_NMAX
) -> np.ndarray:
    """All tomogram values for 0 <= n1, n2 <= nmax as an array.

    The table is the array of Taylor coefficients of the generating
    function of the displaced state,

        G(s1, s2) = exp(-mu' A mu / (2 Delta)) / sqrt(Delta),

    with mu the kernel-order displaced mean (``gaussian_effective_mean``)
    and Delta, A the polynomials of ``_generating_polynomials``. The spec
    keeps those, and per nmax the series R = 1/Delta and L = log Delta
    (``_delta_series``), so a call does only the work that depends on the
    displacement: E = log G = -(N R + L)/2 with N = mu' A mu, a real series
    in powers of s1 whose coefficients are series in s2 truncated at
    nmax, then exp(E) from the recurrence
    (k + 1) P_{k+1} = sum_j (j + 1) E_{j+1} P_{k-j} along s1, with
    products along s2. There is no complex arithmetic and no Hermite box.

    Raises:
        NumericalNegativity: if an entry is not finite or lies below
            -1e-9. A spec that passes the det M >= 1/16 check without
            being a physical state can have such a table, and so can a
            strongly squeezed state at box-scale settings, where the
            recurrence loses up to about 1e-6 to rounding.
    """
    n = _integer(nmax, "nmax")
    R, L = g._series(n)
    mu = gaussian_effective_mean(g, alpha1, alpha2)
    N = np.einsum("i,ijab,j->ab", mu, g._generating_polynomials[1], mu)
    # N overflows at displacements near 1e154; the products below would
    # turn its infinities into NaNs, with a numpy warning for each
    if not np.isfinite(N).all():
        raise NumericalNegativity("gaussian tomogram table is not finite")

    # E = -(N R + L)/2, with N of degree <= 2 in s1; its subnormal entries
    # go for the reason given in ``_delta_series``
    n_rows = _s2_multipliers(N, n)
    NR = R @ n_rows[:, 0].T
    NR[1:] += R[:-1] @ n_rows[:, 1].T
    NR[2:] += R[:-2] @ n_rows[:, 2].T
    E = -0.5 * (NR + L)
    _flush_subnormals(E)

    # P = exp(E): row 0 along s2, then P_(k+1) from P_k .. P_0 stored in
    # reverse (P_m in row n - m) so that they lie contiguous in memory.
    # ``@`` reads the column slice of dE in place, where np.dot copies it
    dE = _s2_multipliers(E[1:] * np.arange(1, n + 1)[:, None], n).reshape(n + 1, -1)
    P = np.zeros((n + 1, n + 1))
    P[n] = _exp_series(E[0].tolist())
    for k in range(n):
        P[n - k - 1] = dE[:, : (k + 1) * (n + 1)] @ P[n - k:].ravel() / (k + 1)
    w = P[::-1]

    # a NaN or an infinity shows in the minimum or the maximum
    low, high = float(w.min()), float(w.max())
    if not (math.isfinite(low) and math.isfinite(high)):
        raise NumericalNegativity("gaussian tomogram table is not finite")
    if low < -NEGATIVITY_TOL_HERMITE:
        raise NumericalNegativity(f"gaussian tomogram table hit {low:.6e}")
    return np.clip(w, 0.0, None)


def gaussian_tomogram(
    g: GaussianSpec, n1: int, n2: int, alpha1: complex, alpha2: complex
) -> float:
    """Photon-number tomogram of a Gaussian state: entry (n1, n2) of
    ``gaussian_tomogram_table`` at nmax = max(n1, n2).

    Raises:
        InvalidParameter: a count is not an integer >= 0, or a setting is
            not a finite number.
        NumericalNegativity: where that table is refused.
    """
    n1, n2 = _integer(n1, "n1"), _integer(n2, "n2")
    _check_finite(alpha1, "alpha1")
    _check_finite(alpha2, "alpha2")
    return float(gaussian_tomogram_table(g, alpha1, alpha2, max(n1, n2))[n1, n2])


# ---------------------------------------------------------------------------
# uniform source interface
# ---------------------------------------------------------------------------


class TomogramSource:
    """Anything that can evaluate w(n1, n2, alpha1, alpha2)."""

    def tomogram(self, n1: int, n2: int, alpha1: complex, alpha2: complex) -> float:
        raise NotImplementedError

    # sources that can fill a whole photon-number table cheaply override this
    def tomogram_table(self, alpha1, alpha2, nmax):
        n = _integer(nmax, "nmax") + 1
        out = np.empty((n, n))
        for i in range(n):
            for j in range(n):
                out[i, j] = self.tomogram(i, j, alpha1, alpha2)
        return out


class _LibrarySource(TomogramSource):
    """A library state's source: whole tables come from the state itself."""

    def __init__(self, state):
        self.state = state

    def tomogram_table(self, alpha1, alpha2, nmax):
        # a subclass may override ``tomogram``, so only the library's own
        # classes are known to tabulate the state itself
        if type(self) not in _LIBRARY_SOURCES:
            return super().tomogram_table(alpha1, alpha2, nmax)
        return self._table(self.state, alpha1, alpha2, nmax)


class _SuperpositionSource(_LibrarySource):
    """A cat state's or a coherent product's source: one scalar, one table."""

    _table = staticmethod(coherent_superposition_table)

    def tomogram(self, n1, n2, alpha1, alpha2):
        return _superposition_tomogram(self.state, n1, n2, alpha1, alpha2)


class CatSource(_SuperpositionSource):
    """Tomograms of a ``CatState``."""


class CoherentSource(_SuperpositionSource):
    """Tomograms of a ``CoherentProduct``."""


class GaussianSource(_LibrarySource):
    _table = staticmethod(gaussian_tomogram_table)

    def tomogram(self, n1, n2, alpha1, alpha2):
        return gaussian_tomogram(self.state, n1, n2, alpha1, alpha2)


# sources whose tomograms are known to be those of their ``state``
_LIBRARY_SOURCES = (CatSource, CoherentSource, GaussianSource)


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


def _json_float(value, field: str) -> float:
    """A number of a state description as a float. Bools and strings are
    refused, though float() would read true as 1.0 and "0.5" as 0.5."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{field} must be a number, got {value!r}")
    return float(value)


def _parse_complex_pair(value, field: str) -> complex:
    re, im = value if isinstance(value, (list, tuple)) and len(value) == 2 else (value, 0.0)
    return complex(_json_float(re, field), _json_float(im, field))


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
        M = np.asarray(doc.get("M"), dtype=object)
        M = np.reshape([_json_float(v, "gaussian M entry") for v in M.flat], M.shape)
        if M.size == 16:
            M = M.reshape(4, 4)
        if M.shape != (4, 4):
            raise ValueError("gaussian M must hold 16 numbers (4x4 or flat)")
        mean = np.asarray(doc.get("mean", [0.0, 0.0, 0.0, 0.0]), dtype=object)
        mean = np.reshape([_json_float(v, "gaussian mean entry") for v in mean.flat], mean.shape)
        if mean.shape != (4,):
            raise ValueError("gaussian mean must hold 4 numbers")
        return GaussianSpec(M, mean)
    if kind == "gaussian_family":
        return gaussian_purity_family(_json_float(doc.get("k"), "gaussian_family k"),
                                      _json_float(doc.get("l"), "gaussian_family l"))
    raise ValueError(f"unknown state type {kind!r}")


def load_state(path):
    """Read a state description file (JSON) and build the state."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return parse_state(doc)
