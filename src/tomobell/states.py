"""Tomogram sources for two-mode light states.

A photon-number tomogram w(n1, n2, alpha1, alpha2) is the probability of
counting (n1, n2) photons in the two modes after displacing the state by
(alpha1, alpha2). This module implements three sources:

* Schroedinger cat states (superpositions of opposite coherent states);
* products of coherent states (Poisson statistics);
* generic Gaussian states given by a 4x4 dispersion matrix and mean
  vector.

Cat and coherent tomograms have one formula over the coherent
superposition terms (c_b, delta_b1, delta_b2), with a cat's
c_b^2 = 1/(2 (1 + e^(-2S))):
|sum_b c_b <n1|D(alpha1)|delta_b1> <n2|D(alpha2)|delta_b2>|^2, whose
displaced Fock amplitudes have modulus at most 1. One helper writes a
term's two rows of them; a table forms all rows with one exp and sums the
terms with one matrix product, and the scalar ``cat_tomogram`` (also
named ``coherent_tomogram``) evaluates the same rows at one entry. A
Gaussian table is the array of Taylor coefficients of the closed-form
generating function G(s1, s2) = sum P(n1, n2) s1^n1 s2^n2, expanded in
real arithmetic, and ``gaussian_tomogram`` reads one entry of it. The
paper's closed products (cats, coherent products) and its
four-dimensional Hermite polynomials (Gaussians) are the tests' oracles.

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

# 2^100 times the smallest normal float: ``_flush_noise`` zeroes entries of
# 1/Delta, log Delta and log G below it
_NOISE_FLOOR = 2.0 ** -922

_I4 = np.eye(4)

# the points s of a Gaussian spec's kernels (parity, vacuum), and per point, as
# (point, row, column) arrays: 1 - s, the identity times (1 + s)/2, (1 - s)/2
_KERNEL_POINTS = (-1.0, 0.0)
_KERNEL_S = np.array(_KERNEL_POINTS)[:, None, None]
_KERNEL_TERMS = (1.0 - _KERNEL_S, 0.5 * (1.0 + _KERNEL_S) * _I4, 0.5 * (1.0 - _KERNEL_S))

# component order of mode 1 / mode 2 inside a (p1, p2, q1, q2) vector
_MODE1_IDX = (0, 2)
_MODE2_IDX = (1, 3)


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
def _fock_exponents(nmax: int):
    """n and -log(n!)/2 for n = 0..nmax, read-only: the exponents of <n|mu>.
    A Gaussian series scales its order-k row of a derivative by n[k]."""
    out = np.arange(nmax + 1.0), -0.5 * np.array([_log_factorial(n) for n in range(nmax + 1)])
    for x in out:
        x.setflags(write=False)
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


def _ldlt_pivots(m) -> list:
    """The pivots d of M = L diag(d) L^T, for a symmetric 4x4 M given as
    nested lists, without pivoting and up to the first that is not > 0.

    M is positive definite exactly when all four pivots are > 0, and then
    det M is their product. Each step takes the Schur complement of the
    leading pivot on the lower triangle.
    """
    (a00, _, _, _), (a10, a11, _, _), (a20, a21, a22, _), (a30, a31, a32, a33) = m
    if not a00 > 0.0:
        return [a00]
    f1, f2, f3 = a10 / a00, a20 / a00, a30 / a00
    a11 -= f1 * a10
    a21 -= f2 * a10
    a22 -= f2 * a20
    a31 -= f3 * a10
    a32 -= f3 * a20
    a33 -= f3 * a30
    if not a11 > 0.0:
        return [a00, a11]
    f2, f3 = a21 / a11, a31 / a11
    a22 -= f2 * a21
    a32 -= f3 * a21
    a33 -= f3 * a31
    if not a22 > 0.0:
        return [a00, a11, a22]
    a33 -= a32 / a22 * a32
    return [a00, a11, a22, a33]


class GaussianSpec:
    """A two-mode Gaussian state: dispersion matrix M and mean vector.

    M is the 4x4 real symmetric matrix of quadrature (co)variances in
    (p1, p2, q1, q2) order; mean is the quadrature average vector in the
    same order. Construction validates symmetry, positive definiteness,
    and the uncertainty bound det M >= 1/16: one LDL^T factorization of
    the symmetrized M gives both, as its pivots and their product.
    """

    def __init__(self, M, mean=None):
        M = np.asarray(M, dtype=float)
        if M.shape != (4, 4):
            raise NonPhysicalSpec(f"M must be 4x4, got shape {M.shape}")
        m = M.tolist()
        if not all(map(math.isfinite, m[0] + m[1] + m[2] + m[3])):
            raise NonPhysicalSpec("M entries must be finite")
        (_, a01, a02, a03), (a10, _, a12, a13), (a20, a21, _, a23), (a30, a31, a32, _) = m
        asym = max(abs(a10 - a01), abs(a20 - a02), abs(a21 - a12),
                   abs(a30 - a03), abs(a31 - a13), abs(a32 - a23))
        if asym > SYMMETRY_TOL:
            raise NonPhysicalSpec(
                f"M deviates from symmetry by {asym:.3e} (> {SYMMETRY_TOL:.0e})"
            )
        M = 0.5 * (M + M.T)
        pivots = _ldlt_pivots(M.tolist())
        if not pivots[-1] > 0.0:
            # the eigenvalues only word the refusal
            low = np.linalg.eigvalsh(M)[0]
            raise NonPhysicalSpec(
                f"M must be positive definite, min eigenvalue {low:.3e}"
            )
        det = math.prod(pivots)
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
        """(W, K, det W) of G(s, s) at each of ``_KERNEL_POINTS``, as floats
        (W and K as nested lists): W = (1 - s) M + (1 + s)/2 and
        K = (1 - s)/2 W^-1. One stacked ``inv`` and ``det`` give the bits of
        one call per s. Not to be changed: every portrait function of the
        spec reads them."""
        weights, identities, scales = _KERNEL_TERMS
        W = weights * self.M + identities
        return tuple(zip(W.tolist(), (scales * np.linalg.inv(W)).tolist(),
                         np.linalg.det(W).tolist()))

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


def _cat_norm2(s: float) -> float:
    """N^2 = 1/(2 (1 + e^(-2S))) of a cat with S = |g1|^2 + |g2|^2, free of
    cancellation at every S: the normalization of its terms and closed forms."""
    return 0.5 / (1.0 + math.exp(-2.0 * s))


def coherent_superposition_terms(state):
    """Expand a CatState or CoherentProduct into [(coeff, delta1, delta2), ...].

    A cat's coefficient is N, the square root of ``_cat_norm2``.

    Raises:
        UnsupportedState: for anything else (mixed Gaussian specs included).
    """
    if isinstance(state, CatState):
        g1, g2 = complex(state.gamma1), complex(state.gamma2)
        norm = math.sqrt(_cat_norm2(abs(g1) ** 2 + abs(g2) ** 2))
        return [(norm, g1, g2), (norm, -g1, -g2)]
    if isinstance(state, CoherentProduct):
        return [(1.0 + 0.0j, complex(state.gamma1), complex(state.gamma2))]
    raise UnsupportedState(
        f"no coherent-superposition expansion for {type(state).__name__}"
    )


def _term_rows(coeff: complex, d1: complex, d2: complex, a1: complex, a2: complex):
    """Term c <n1|D(a1)|d1> <n2|D(a2)|d2> as two rows exp(n s_j + k_j - log(n!)/2).

    Returns (s1, s2, k1, k2, mu1 == 0, mu2 == 0) with mu_j = a_j + d_j and
    s_j = log mu_j (0 where mu_j = 0, whose row is 0 past n = 0);
    k1 = log c + i (Im a1 conj(d1) + Im a2 conj(d2)) - |mu1|^2/2 carries
    the coefficient and both displacement phases, and k2 = -|mu2|^2/2.
    """
    mu1, mu2 = a1 + d1, a2 + d2
    # an infinite mu_j (from finite a_j, d_j) would square without raising
    if not (cmath.isfinite(mu1) and cmath.isfinite(mu2)):
        raise OverflowError("coherent superposition: alpha + delta leaves the float range")
    # D(alpha)|delta> = exp(i Im(alpha conj(delta))) |alpha + delta>
    shift = cmath.log(coeff) + 1j * ((a1 * d1.conjugate()).imag + (a2 * d2.conjugate()).imag)
    # squares on Python floats raise OverflowError before numpy sees an inf
    return (cmath.log(mu1) if mu1 else 0j, cmath.log(mu2) if mu2 else 0j,
            shift - abs(mu1) ** 2 / 2.0, 0.0 - abs(mu2) ** 2 / 2.0, mu1 == 0, mu2 == 0)


def _superposition_tomogram(state, n1: int, n2: int, alpha1: complex, alpha2: complex) -> float:
    """Photon-number tomogram of a cat state or a coherent product: entry
    (n1, n2) of ``coherent_superposition_table``, each term's rows
    (``_term_rows``) evaluated there alone. A term's modulus is at most
    |c_b|, so none overflows at any amplitude or count.

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
    h = -0.5 * (_log_factorial(n1) + _log_factorial(n2))
    amp = 0.0
    for coeff, d1, d2 in coherent_superposition_terms(state):
        s1, s2, k1, k2, vacuum1, vacuum2 = _term_rows(coeff, d1, d2, a1, a2)
        if not (vacuum1 and n1 or vacuum2 and n2):
            amp += cmath.exp(s1 * n1 + s2 * n2 + (k1 + k2 + h))
    return amp.real ** 2 + amp.imag ** 2


# the public names of the one scalar; each takes either state
cat_tomogram = coherent_tomogram = _superposition_tomogram


def coherent_superposition_table(
    state, alpha1: complex, alpha2: complex, nmax: int = DEFAULT_NMAX
) -> np.ndarray:
    """All tomogram values for 0 <= n1, n2 <= nmax of a coherent superposition.

    The state's displaced Fock amplitudes, summed over its terms and
    squared, for every (n1, n2) at once: |sum_b c_b phi_b1 (x) phi_b2|^2,
    with c_b the term's coefficient times its displacement phases and
    phi_bj the row <n|mu> = exp(n log mu - |mu|^2/2 - log(n!)/2) for
    n = 0..nmax at mu = alpha_j + delta_bj. One exp forms every row, with
    log c_b in the constant of mode 1's row, and one matrix product sums
    the terms. Every amplitude has modulus at most 1, so no row needs a
    log-domain branch; a row at mu = 0 takes no log and is 0 past n = 0.

    Raises:
        InvalidParameter: nmax is not an integer >= 0, or a setting is not
            a finite number.
        OverflowError: where |alpha + delta|^2 or a cat's |gamma|^2 leaves
            the float range.
        UnsupportedState: for a state that is neither.
    """
    n, neg_half_log_fact = _fock_exponents(_integer(nmax, "nmax"))
    _check_finite(alpha1, "alpha1")
    _check_finite(alpha2, "alpha2")
    a1, a2 = complex(alpha1), complex(alpha2)
    # rows 2b and 2b + 1 are term b's mode-1 and mode-2 rows
    slopes, constants, vacua = [], [], []
    for coeff, d1, d2 in coherent_superposition_terms(state):
        s1, s2, k1, k2, vacuum1, vacuum2 = _term_rows(coeff, d1, d2, a1, a2)
        slopes.append(s1)
        slopes.append(s2)
        constants.append(k1)
        constants.append(k2)
        vacua.append(vacuum1)
        vacua.append(vacuum2)
    rows = np.exp(np.multiply.outer(slopes, n) + np.add.outer(constants, neg_half_log_fact))
    if any(vacua):
        rows[vacua, 1:] = 0.0
    amp = rows[0::2].T @ rows[1::2]
    return amp.real ** 2 + amp.imag ** 2


# ---------------------------------------------------------------------------
# Gaussian states
# ---------------------------------------------------------------------------


def gaussian_effective_mean(g: GaussianSpec, alpha1: complex, alpha2: complex) -> np.ndarray:
    """Displaced mean as consumed by the tomogram kernel.

    Displacing by (alpha1, alpha2) shifts p_j by sqrt(2) Im alpha_j and
    q_j by sqrt(2) Re alpha_j. The generating function below takes that
    mean with the p and q pairs exchanged, in (q1, q2, p1, p2) order; the
    other order breaks normalization.
    """
    a1, a2 = complex(alpha1), complex(alpha2)
    m0, m1, m2, m3 = g.mean.tolist()
    # on Python floats, which round as numpy's float64 does but leave an
    # overflow to infinity without a warning
    r = math.sqrt(2.0)
    return np.array([m2 + r * a1.real, m3 + r * a2.real, m0 + r * a1.imag, m1 + r * a2.imag])


# the 16 terms of Delta: mask m takes row i from 1/2 - M when bit i is set;
# bits 0, 2 belong to mode 1 and bits 1, 3 to mode 2, so mask m carries
# s1^a s2^b with _POWERS[m, a, b] = 1
_MASKS = (np.arange(16)[:, None] >> np.arange(4)) & 1
_POWERS = np.zeros((16, 3, 3))
_POWERS[np.arange(16), _MASKS[:, 0] + _MASKS[:, 2], _MASKS[:, 1] + _MASKS[:, 3]] = 1.0
# the three indices other than i, as rows and as columns of a 3x3 minor,
# and the cofactor signs
_KEPT = np.array([[k for k in range(4) if k != i] for i in range(4)])
_MINOR_ROWS, _MINOR_COLUMNS = _KEPT[:, None, :, None], _KEPT[None, :, None, :]
_COFACTOR_SIGN = (-1.0) ** np.add.outer(np.arange(4), np.arange(4))


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
    rows = np.where(_MASKS[:, :, None] == 1, 0.5 * _I4 - M, M + 0.5 * _I4)
    delta = np.einsum("m,mab->ab", np.linalg.det(rows), _POWERS)
    # minors[m, i, j]: rows[m] without row i and column j
    minors = np.linalg.det(rows[:, _MINOR_ROWS, _MINOR_COLUMNS])
    # adj(W)[i, j] is the cofactor of W[j, i], which does not involve row j
    adjugates = np.swapaxes(_COFACTOR_SIGN * minors, 1, 2) * (_MASKS[:, None, :] == 0)
    adj = np.einsum("mij,mab->ijab", adjugates, _POWERS)
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
    # rows[r][t] in z[r, n - t], so that T[i, r, j] = z[r, n - i + j] is a
    # strided view of z that reads forward along j, copied once
    z = np.zeros((len(rows), 2 * n + 1))
    z[:, n - rows.shape[1] + 1 : n + 1] = rows[:, ::-1]
    step = z.itemsize
    view = np.ndarray((n + 1, len(rows), n + 1), float, z, n * step, (-step, z.strides[0], step))
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


def _flush_noise(x: np.ndarray) -> None:
    """Set the entries of x (1/Delta, log Delta or log G) below 2^-922 to
    zero in place, keeping their sign.

    Rounding noise in Delta (-2.9e-16 where the exact coefficient is 0, on
    the paper's squeezed example) leaves entries down to about 1e-307,
    whose products with table entries are subnormal and slow. An entry e
    enters the table only through products no larger than about
    (nmax + 1) |e|, so zeroing it moves only table entries below about
    1e-260, far below any that a portrait or a refusal reads.
    """
    np.multiply(x, 0.0, out=x, where=np.abs(x) < _NOISE_FLOOR)


def _delta_series(delta: np.ndarray, n: int):
    """R = 1/Delta and L = log Delta as read-only (n + 1) x (n + 1) arrays
    of Taylor coefficients in (s1, s2), their rounding noise below 2^-922
    set to zero (``_flush_noise``). They depend on M and n alone.
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
    L[1:] = dlog[:-1] / _fock_exponents(n)[0][1:, None]
    for x in (R, L):
        _flush_noise(x)
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
    R, L and E lose their rounding noise below 2^-922 (``_flush_noise``),
    which moves no table entry above about 1e-260.

    Raises:
        InvalidParameter: nmax is not an integer >= 0, or a setting is not
            a finite number.
        OverflowError: where the setting's quadratic form N leaves the
            float range (displacements near 1e154 and above), as on the
            closed forms.
        NumericalNegativity: if an entry is not finite or lies below
            -1e-9. A spec that passes the det M >= 1/16 check without
            being a physical state can have such a table, and so can a
            strongly squeezed state at box-scale settings, where the
            recurrence loses up to about 1e-6 to rounding.
    """
    n = _integer(nmax, "nmax")
    _check_finite(alpha1, "alpha1")
    _check_finite(alpha2, "alpha2")
    R, L = g._series(n)
    mu = gaussian_effective_mean(g, alpha1, alpha2)
    N = np.einsum("i,ijab,j->ab", mu, g._generating_polynomials[1], mu)
    # N overflows at displacements near 1e154; the products below would
    # turn its infinities into NaNs, with a numpy warning for each
    if not all(map(math.isfinite, N.ravel().tolist())):
        raise OverflowError(
            "gaussian tomogram table: the setting's quadratic form leaves the float range"
        )

    # E = -(N R + L)/2, with N of degree <= 2 in s1, flushed as R and L are
    n_rows = _s2_multipliers(N, n)
    NR = R @ n_rows[:, 0].T
    NR[1:] += R[:-1] @ n_rows[:, 1].T
    NR[2:] += R[:-2] @ n_rows[:, 2].T
    E = -0.5 * (NR + L)
    _flush_noise(E)

    # P = exp(E): row 0 along s2, then P_(k+1) from P_k .. P_0 stored in
    # reverse (P_m in row n - m) so that they lie contiguous in memory.
    # ``@`` reads the column slice of dE in place, where np.dot copies it
    dE = _s2_multipliers(E[1:] * _fock_exponents(n)[0][1:, None], n).reshape(n + 1, -1)
    P = np.zeros((n + 1, n + 1))
    P[n] = _exp_series(E[0].tolist())
    flat = P.ravel()
    for k in range(n):
        row = P[n - k - 1]
        np.matmul(dE[:, : (k + 1) * (n + 1)], flat[(n - k) * (n + 1):], out=row)
        row /= k + 1
    w = P[::-1]

    # a NaN or an infinity shows in the minimum or the maximum
    low, high = float(w.min()), float(w.max())
    if not (math.isfinite(low) and math.isfinite(high)):
        raise NumericalNegativity("gaussian tomogram table is not finite")
    if low < -NEGATIVITY_TOL_HERMITE:
        raise NumericalNegativity(f"gaussian tomogram table hit {low:.6e}")
    return np.maximum(w, 0.0)  # what np.clip(w, 0.0, None) calls


def gaussian_tomogram(
    g: GaussianSpec, n1: int, n2: int, alpha1: complex, alpha2: complex
) -> float:
    """Photon-number tomogram of a Gaussian state: entry (n1, n2) of
    ``gaussian_tomogram_table`` at nmax = max(n1, n2), built whole: its exp
    recurrence's multipliers take 15.2 MB at nmax 120, about 1.9 GB at 600.

    Raises:
        InvalidParameter: a count is not an integer >= 0, or a setting is
            not a finite number.
        OverflowError, NumericalNegativity: where that table raises them.
    """
    n1, n2 = _integer(n1, "n1"), _integer(n2, "n2")
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
