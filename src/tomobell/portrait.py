"""Two-qubit portraits of two-mode photon-number tomograms.

A portrait collapses the displaced joint photon-number distribution into
four cell probabilities under a product partition A1 x A2 of the photon
lattice. The two canonical partitions split each mode by "no photons vs
some" (zero-nonzero) or by photon-number parity (even-odd).

Under both canonical partitions every cell is a combination of the
photon-number generating function G(s1, s2) = sum P(n1, n2) s1^n1 s2^n2
of the displaced state at points of {-1, 0, 1}^2: even-odd cells need
G(-1, 1), G(1, -1) and G(-1, -1), zero-nonzero cells need G(0, 1),
G(1, 0) and G(0, 0), and G(1, 1) = 1. Cat, coherent-product and Gaussian
states have G in closed form, so their canonical portraits are exact with
zero tail deficit. Each G splits into per-mode terms, which depend on one
mode's displacement, and a joint term. ``make_portrait_fn`` returns for
these states a portrait function whose family has one values function and
one gradient function. The values function computes each setting's
per-mode terms once and gives the checked column of every pair of a
mode-1 and a mode-2 setting: one for a portrait call, the four columns of
a Bell matrix for ``bell_columns``. The gradient function gives those four
columns with the gradient of their correlations, for the maximizer. Every
other state or partition goes through a truncated table sum.

``make_portrait_fn`` is the way to a closed form. The four per-state names
(``cat_portrait_even_odd``, ``coherent_portrait_zero_nonzero`` and so on)
are aliases of two functions, one per canonical partition, and each takes
any closed-form state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import (
    InvalidParameter,
    NumericalNegativity,
    TailTooLarge,
    UnsupportedState,
)
from .states import (
    _LIBRARY_SOURCES,
    _KERNEL_POINTS,
    _MODE1_IDX,
    _MODE2_IDX,
    DEFAULT_NMAX,
    NEGATIVITY_TOL,
    NEGATIVITY_TOL_HERMITE,
    CatState,
    CoherentProduct,
    GaussianSpec,
    _check_finite,
    _integer,
    make_source,
)

# Cells may dip below 0 by rounding: by NEGATIVITY_TOL where they are plain
# exp/cos arithmetic (cat and coherent closed forms), by the looser
# NEGATIVITY_TOL_HERMITE where they are summed from truncated tables or
# assembled from Gaussian quadratic forms. Anything lower raises
# NumericalNegativity.

# component sums must balance against the tail deficit to within this
SUM_TOL = 1e-9

DEFAULT_TAIL_EPS = 1e-4

SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------


# the rule pairs of the canonical partitions, which have closed forms
_CANONICAL_RULES = {(0, 0): "zero-nonzero", ("even", "even"): "even-odd"}


def _plus_set(rule, n: np.ndarray) -> np.ndarray:
    return n % 2 == 0 if rule == "even" else n <= rule


class PartitionScheme:
    """Product partition of the photon lattice into four cells.

    ``rule1`` and ``rule2`` give the "plus" set of each mode as data: an
    integer t >= 0 for the counts n <= t (0 is the "zero" rule: the mode
    saw no photons), or "even" for the even counts. The four cells are
    A1xA2, A1x~A2, ~A1xA2, ~A1x~A2 and always tile the lattice because the
    partition is a product. ``kind`` is set here and nowhere else:
    "zero-nonzero" for the rules (0, 0), "even-odd" for ("even", "even"),
    and "custom" for every other pair. Closed-form fast paths dispatch on
    it.
    """

    __slots__ = ("rule1", "rule2", "kind")

    def __init__(self, rule1, rule2):
        rules = tuple(rule if rule == "even" else _integer(rule, f"{which} rule")
                      for which, rule in (("mode1", rule1), ("mode2", rule2)))
        self.rule1, self.rule2 = rules
        self.kind = _CANONICAL_RULES.get(rules, "custom")

    @staticmethod
    def zero_nonzero() -> "PartitionScheme":
        """Plus set = {0}: the mode saw no photons."""
        return PartitionScheme(0, 0)

    @staticmethod
    def even_odd() -> "PartitionScheme":
        """Plus set = even integers: the mode saw an even photon count."""
        return PartitionScheme("even", "even")

    @staticmethod
    def from_config(cfg) -> "PartitionScheme":
        """Build a scheme from a name or a per-mode rule pair.

        Accepts the canonical names "zero-nonzero" and "even-odd", or a
        dict {"mode1": rule, "mode2": rule} where each rule is "zero",
        "even", or {"threshold": t} meaning the plus set is n <= t for an
        integer t >= 0. "zero" is the threshold 0.
        """
        if isinstance(cfg, str):
            name = cfg.strip().lower().replace("_", "-")
            if name == "zero-nonzero":
                return PartitionScheme.zero_nonzero()
            if name == "even-odd":
                return PartitionScheme.even_odd()
            raise InvalidParameter(
                f"unknown partition name {cfg!r}; use zero-nonzero or even-odd"
            )
        if isinstance(cfg, dict):

            def rule(spec, which):
                if spec in ("zero", "even"):
                    return 0 if spec == "zero" else spec
                threshold = spec.get("threshold") if isinstance(spec, dict) else None
                try:
                    return _integer(threshold, f"{which} rule")
                except InvalidParameter:
                    raise InvalidParameter(
                        f"bad {which} rule {spec!r}; use 'zero', 'even', or "
                        "{'threshold': t} with an integer t >= 0"
                    ) from None

            return PartitionScheme(rule(cfg.get("mode1"), "mode1"), rule(cfg.get("mode2"), "mode2"))
        raise InvalidParameter(f"cannot build a partition from {cfg!r}")

    def masks(self, nmax: int):
        """Boolean membership vectors for 0..nmax, one per mode."""
        n = np.arange(int(nmax) + 1)
        return _plus_set(self.rule1, n), _plus_set(self.rule2, n)


@lru_cache(maxsize=64)
def _cell_masks(rule1, rule2, nmax: int):
    """Float membership masks for 0..nmax, read-only: the (plus, minus)
    rows of mode 1 and the (plus, minus) columns of mode 2, so that the
    cells (++, +-, -+, --) of a table are ``rows1 @ table @ cols2``.

    Both are C-contiguous. Multiplying by a transposed view of the mode-2
    rows instead takes another BLAS path, which moves the cells in their
    last bits.
    """
    m1, m2 = PartitionScheme(rule1, rule2).masks(nmax)
    rows1 = np.array((m1, ~m1), dtype=float)
    cols2 = np.array((m2, ~m2), dtype=float).T.copy()
    rows1.setflags(write=False)
    cols2.setflags(write=False)
    return rows1, cols2


# ---------------------------------------------------------------------------
# portrait vector
# ---------------------------------------------------------------------------


def _checked_cells(cells, deficit: float, tol: float, what: str):
    """Run the portrait checks once; return (w_pp, w_pm, w_mp, w_mm, deficit).

    Cells and deficit must be finite and at or above ``-tol``; values
    below 0 that pass are clamped to 0 after the check. The clamped cells
    plus the deficit must sum to 1 within SUM_TOL.
    """
    w_pp, w_pm, w_mp, w_mm = cells
    total = w_pp + w_pm + w_mp + w_mm + deficit
    if not math.isfinite(total):
        raise NumericalNegativity(f"{what}: components must be finite")
    # nothing to clamp on most calls, and then the sum above is the total
    if w_pp < 0.0 or w_pm < 0.0 or w_mp < 0.0 or w_mm < 0.0 or deficit < 0.0:
        low = min(cells)
        if low < -tol:
            raise NumericalNegativity(f"{what}: cell value {low:.6e} below {-tol:.0e}")
        if deficit < -tol:
            raise NumericalNegativity(f"{what}: tail deficit {deficit:.6e} negative")
        w_pp, w_pm, w_mp, w_mm = (max(c, 0.0) for c in cells)
        deficit = max(deficit, 0.0)
        total = w_pp + w_pm + w_mp + w_mm + deficit
    if abs(total - 1.0) > SUM_TOL:
        raise NumericalNegativity(
            f"{what}: components + deficit sum to {total:.12f}, not 1"
        )
    return w_pp, w_pm, w_mp, w_mm, deficit


@dataclass(frozen=True)
class PortraitVector:
    """Four cell probabilities plus the truncation deficit.

    Components are ordered (++, +-, -+, --) where + means membership in the
    mode's plus set. ``tail_deficit`` is the probability mass beyond the
    truncation bound; closed forms have deficit 0 by construction. The
    components are never renormalized: the deficit is the error measure.
    """

    w_pp: float
    w_pm: float
    w_mp: float
    w_mm: float
    tail_deficit: float = 0.0

    def __post_init__(self):
        _checked_cells(
            (self.w_pp, self.w_pm, self.w_mp, self.w_mm),
            self.tail_deficit,
            NEGATIVITY_TOL,
            "portrait",
        )

    def as_array(self) -> np.ndarray:
        return np.array([self.w_pp, self.w_pm, self.w_mp, self.w_mm])

    def correlation(self) -> float:
        """The +-1 correlation E = w_pp - w_pm - w_mp + w_mm."""
        return self.w_pp - self.w_pm - self.w_mp + self.w_mm


_VECTOR_FIELDS = ("w_pp", "w_pm", "w_mp", "w_mm", "tail_deficit")


def _vector(checked) -> PortraitVector:
    """A PortraitVector from the output of ``_checked_cells``, not checked again."""
    v = object.__new__(PortraitVector)
    vars(v).update(zip(_VECTOR_FIELDS, checked))
    return v


# ---------------------------------------------------------------------------
# truncated table sums
# ---------------------------------------------------------------------------


def portrait_truncated(
    src,
    p: PartitionScheme,
    alpha1: complex,
    alpha2: complex,
    nmax: int = DEFAULT_NMAX,
    tail_eps: float = DEFAULT_TAIL_EPS,
) -> PortraitVector:
    """Portrait by direct cell sums over the table n1, n2 <= nmax of a
    state or a tomogram source (``make_source``).

    The mass beyond the truncation is reported as ``tail_deficit`` and the
    components are left un-renormalized. A deficit above ``tail_eps`` fails:
    the caller can raise nmax or move the displacement closer to origin.

    Raises:
        UnsupportedState: src is neither a library state nor a source.
        InvalidParameter: nmax is not an integer >= 1, tail_eps is not
            above 0, or a setting is not a finite number.
        TailTooLarge: deficit > tail_eps (carries the deficit value).
        NumericalNegativity: propagated from the table evaluation.
    """
    src = make_source(src)
    _integer(nmax, "nmax", 1)
    if not tail_eps > 0.0:
        raise InvalidParameter(f"tail_eps must be > 0, got {tail_eps}")
    # a library source's table checks the settings itself; another
    # source's table may not
    if type(src) not in _LIBRARY_SOURCES:
        _check_finite(alpha1, "alpha1")
        _check_finite(alpha2, "alpha2")
    table = src.tomogram_table(alpha1, alpha2, nmax)
    rows1, cols2 = _cell_masks(p.rule1, p.rule2, nmax)
    cells = (rows1 @ table @ cols2).ravel().tolist()
    deficit = 1.0 - sum(cells)
    if deficit > tail_eps:
        raise TailTooLarge(
            deficit,
            f"truncation at nmax={nmax} leaves deficit {deficit:.3e} "
            f"> tail_eps={tail_eps:.3e}",
        )
    return _vector(
        _checked_cells(cells, deficit, NEGATIVITY_TOL_HERMITE, "truncated portrait")
    )


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


# Each canonical partition has one column function: it forms the cells
# from (G1, G2, G12), the two marginals and the joint term, and returns
# the checked column (w_pp, w_pm, w_mp, w_mm, 0.0). A column whose cells
# are all >= 0 is returned as formed, which is what ``_checked_cells``
# returns for it: the exact cells sum to 1, and cells >= 0 bound the
# inputs (max(1, |p1|, |p2|, |p12|) <= 1 + O(u) for even-odd,
# 0 <= v12 <= v1, v2 <= 1 + O(u) for zero-nonzero), so they sum to 1
# within about 20 ulp, far inside SUM_TOL; a NaN fails a sign test, and an
# infinite input makes some cell -inf or NaN. Any other column goes to
# ``_checked_cells``, which alone clamps, refuses and words the refusal.


def _even_odd_column(p1, p2, p12, tol: float, what: str):
    """The checked column of the parities G(-1, 1), G(1, -1) and G(-1, -1)."""
    w_pp = 0.25 * (1.0 + p1 + p2 + p12)
    w_pm = 0.25 * (1.0 + p1 - p2 - p12)
    w_mp = 0.25 * (1.0 - p1 + p2 - p12)
    w_mm = 0.25 * (1.0 - p1 - p2 + p12)
    if w_pp >= 0.0 and w_pm >= 0.0 and w_mp >= 0.0 and w_mm >= 0.0:
        return w_pp, w_pm, w_mp, w_mm, 0.0
    return _checked_cells((w_pp, w_pm, w_mp, w_mm), 0.0, tol, what)


def _zero_nonzero_column(v1, v2, v12, tol: float, what: str):
    """The checked column of the vacuum probabilities G(0, 1), G(1, 0) and G(0, 0)."""
    w_pm, w_mp, w_mm = v1 - v12, v2 - v12, 1.0 - v1 - v2 + v12
    if v12 >= 0.0 and w_pm >= 0.0 and w_mp >= 0.0 and w_mm >= 0.0:
        return v12, w_pm, w_mp, w_mm, 0.0
    return _checked_cells((v12, w_pm, w_mp, w_mm), 0.0, tol, what)


# partition kind -> (the point s of each measured mode, its column function,
# the weights (c1, c2, c12) of the correlation E = c0 + c1 G1 + c2 G2 + c12 G12
# in the marginals and the joint term)
_CANONICAL = {
    "even-odd": (-1.0, _even_odd_column, (0.0, 0.0, 1.0)),
    "zero-nonzero": (0.0, _zero_nonzero_column, (-2.0, -2.0, 4.0)),
}


class ClosedFormPortrait:
    """Closed-form portrait function of one state under a canonical partition.

    ``ClosedFormPortrait(state, kind)`` is an instance of the subclass for
    the state's family (``_CatG``, ``_CoherentG`` or ``_GaussianG``), which
    evaluates that family's G with every measured mode at the same point s
    (-1 for parity, 0 for vacuum). Calling it with (alpha1, alpha2) gives
    one PortraitVector with zero tail deficit.

    Each family has one values function and one gradient function, which
    hold each setting's per-mode terms in locals. The values function
    ``_columns(settings1, settings2)`` takes one or two settings per mode
    and returns the checked column (w_pp, w_pm, w_mp, w_mm, tail_deficit)
    of every (mode-1, mode-2) pair, mode-1 major: the portrait call asks
    it for one pair, ``bell_columns(s)`` for the four Bell-matrix columns.
    ``bell_columns_grad(c)`` takes the 8 setting coordinates in
    ``BellSettings.as_vector`` order and returns the four checked columns
    with the derivatives of each column's correlation
    E = w_pp - w_pm - w_mp + w_mm along (Re alpha1, Im alpha1, Re alpha2,
    Im alpha2), all in one call. E is linear in the two marginals and the
    joint term, so its derivatives are theirs, weighted; they are those of
    the closed form before the cells are clamped at 0, which moves a cell
    by at most the negativity tolerance.
    """

    def __new__(cls, state=None, kind=None):
        # a family class makes its own instances (pickle and copy call it
        # with no arguments); the base class picks the state's family
        if cls is not ClosedFormPortrait:
            return object.__new__(cls)
        for state_cls, family in _GENERATING_FUNCTIONS:
            if isinstance(state, state_cls):
                return object.__new__(family)
        raise UnsupportedState(f"no closed-form portrait for {type(state).__name__}")

    def __init__(self, state, kind: str):
        s, self._column, self._weights = _CANONICAL[kind]
        self._what = f"{self.name} {kind} portrait"
        self._setup(state, s)

    def __call__(self, alpha1, alpha2) -> PortraitVector:
        _check_finite(alpha1, "alpha1")
        _check_finite(alpha2, "alpha2")
        return _vector(self._columns((alpha1,), (alpha2,))[0])

    def bell_columns(self, s):
        """Checked columns (w_pp, w_pm, w_mp, w_mm, tail_deficit) of settings ``s``.

        Column order is (a1,a2), (a1,b2), (b1,a2), (b1,b2), as in
        ``bell_matrix``.
        """
        return self._columns((s.alpha1, s.beta1), (s.alpha2, s.beta2))


# Both routes below hold each setting's terms in locals. Each expression
# keeps its operations and their order, which the maximizer's iterates and
# the per-column oracle of the tests pin to the bit. A cat's or coherent
# product's squares stay ``** 2``, which raises OverflowError where
# ``x * x`` would give inf; a Gaussian raises it where a setting's
# quadratic forms leave the float range. Mode 1's settings are taken
# first, and columns are checked mode-1 major (Bell-matrix order for two
# settings per mode), so the first failing column raises.


class _CatG(ClosedFormPortrait):
    """G of the displaced cat state N(|g1, g2> + |-g1, -g2>).

    The two coherent branches and their interference give three
    exponentials, G = N^2 [exp(E+) + exp(E-) + 2 Re exp(X)], with per-mode
    exponents

        E+_j = -(1 - s_j) |alpha_j + g_j|^2
        E-_j = -(1 - s_j) |alpha_j - g_j|^2
        X_j  = -(|alpha_j|^2 + |g_j|^2) + s_j (|alpha_j|^2 - |g_j|^2)
               - 2i (1 - s_j) Im(conj(alpha_j) g_j)

    summed over the modes before exp. Every real part is <= 0 for
    |s_j| <= 1, so no term overflows at any amplitude. Each exponent is a
    quadratic in (Re alpha_j, Im alpha_j), so its derivatives are linear.
    A marginal is the joint G with the other mode unmeasured (s = 1),
    whose per-mode terms are 0 but for the interference exponent
    ``_one1``/``_one2``.
    """

    name = "cat"
    tol = NEGATIVITY_TOL

    def _setup(self, state: CatState, s: float):
        g1, g2 = complex(state.gamma1), complex(state.gamma2)
        c1, c2 = abs(g1) ** 2, abs(g2) ** 2
        self._g1, self._g2 = (g1.real, g1.imag, c1), (g2.real, g2.imag, c2)
        self._s, self._k = s, 1.0 - s
        self._norm2 = 0.5 / (1.0 + math.exp(-2.0 * (c1 + c2)))
        self._one1, self._one2 = -2.0 * c1, -2.0 * c2

    def _columns(self, settings1, settings2):
        exp, cos = math.exp, math.cos
        n, s = self._norm2, self._s
        k_neg, k2 = -self._k, -2.0 * self._k
        modes = ([], [])
        for terms, settings, (gr, gi, cg), one in ((modes[0], settings1, self._g1, self._one2),
                                                   (modes[1], settings2, self._g2, self._one1)):
            for alpha in settings:
                ar, ai = alpha.real, alpha.imag
                a = ar * ar + ai * ai
                d0, d1 = k_neg * ((ar + gr) ** 2 + (ai + gi) ** 2), k_neg * ((ar - gr) ** 2 + (ai - gi) ** 2)
                d2, d3 = s * (a - cg) - (a + cg), k2 * (ar * gi - ai * gr)
                # the marginal: the joint G with the unmeasured mode's terms
                # (0.0, 0.0, one, 0.0); exp and cos take -0.0 as 0.0
                terms.append((n * (exp(d0) + exp(d1) + 2.0 * exp(d2 + one) * cos(d3)),
                              d0, d1, d2, d3))
        column, tol, what = self._column, self.tol, self._what
        columns = []
        for p1, u0, u1, u2, u3 in modes[0]:
            for p2, v0, v1, v2, v3 in modes[1]:
                columns.append(column(
                    p1, p2, n * (exp(u0 + v0) + exp(u1 + v1) + 2.0 * exp(u2 + v2) * cos(u3 + v3)),
                    tol, what))
        return columns

    def bell_columns_grad(self, c):
        exp, cos, sin = math.exp, math.cos, math.sin
        n, s, k = self._norm2, self._s, self._k
        n_neg, k_neg, k2 = -n, -k, -2.0 * k
        k2_neg = -k2
        one1, one2 = self._one1, self._one2
        settings = []
        for ar, ai, (gr, gi, cg), one in ((c[0], c[1], self._g1, one2), (c[2], c[3], self._g1, one2),
                                          (c[4], c[5], self._g2, one1), (c[6], c[7], self._g2, one1)):
            pr, pi, mr, mi = ar + gr, ai + gi, ar - gr, ai - gi
            a = ar * ar + ai * ai
            d0, d1 = k_neg * (pr ** 2 + pi ** 2), k_neg * (mr ** 2 + mi ** 2)
            d2, d3 = s * (a - cg) - (a + cg), k2 * (ar * gi - ai * gr)
            # the derivatives of the per-mode terms along Re and Im alpha
            r0, r1, r2, r3 = k2 * pr, k2 * mr, k2 * ar, k2 * gi
            i0, i1, i2, i3 = k2 * pi, k2 * mi, k2 * ai, k2_neg * gr
            # the marginal, from the derivatives of G along each of its terms
            e_plus, e_minus, x = exp(d0), exp(d1), 2.0 * exp(d2 + one)
            # the unmeasured mode's phase term is +0.0, which turns a -0.0
            # phase into +0.0 and so sets the sign of a zero sin
            phase = d3 + 0.0
            x_cos = x * cos(phase)
            w0, w1, w2, w3 = n * e_plus, n * e_minus, n * x_cos, n_neg * (x * sin(phase))
            settings.append((n * (e_plus + e_minus + x_cos),
                             w0 * r0 + w1 * r1 + w2 * r2 + w3 * r3, w0 * i0 + w1 * i1 + w2 * i2 + w3 * i3,
                             d0, d1, d2, d3, r0, r1, r2, r3, i0, i1, i2, i3))
        a1, b1, a2, b2 = settings
        column, tol, what = self._column, self.tol, self._what
        c1, c2, c12 = self._weights
        columns, grads = [], []
        for ((p1, p1_re, p1_im, u0, u1, u2, u3, ur0, ur1, ur2, ur3, ui0, ui1, ui2, ui3),
             (p2, p2_re, p2_im, v0, v1, v2, v3, vr0, vr1, vr2, vr3, vi0, vi1, vi2, vi3)) in (
                (a1, a2), (a1, b2), (b1, a2), (b1, b2)):
            e_plus, e_minus, x = exp(u0 + v0), exp(u1 + v1), 2.0 * exp(u2 + v2)
            phase = u3 + v3
            x_cos = x * cos(phase)
            w0, w1, w2, w3 = n * e_plus, n * e_minus, n * x_cos, n_neg * (x * sin(phase))
            columns.append(column(p1, p2, n * (e_plus + e_minus + x_cos), tol, what))
            grads.append((c1 * p1_re + c12 * (w0 * ur0 + w1 * ur1 + w2 * ur2 + w3 * ur3),
                          c1 * p1_im + c12 * (w0 * ui0 + w1 * ui1 + w2 * ui2 + w3 * ui3),
                          c2 * p2_re + c12 * (w0 * vr0 + w1 * vr1 + w2 * vr2 + w3 * vr3),
                          c2 * p2_im + c12 * (w0 * vi0 + w1 * vi1 + w2 * vi2 + w3 * vi3)))
        return columns, grads


class _CoherentG(ClosedFormPortrait):
    """G of a coherent product: exp(-(1 - s1) lam1 - (1 - s2) lam2).

    lam_j = |alpha_j + g_j|^2 is the Poisson mean of mode j. At s = -1 a
    mode's term is its parity: a Poisson count with mean lam is even with
    probability (1 + exp(-2 lam)) / 2, and as the modes are independent the
    even-odd portrait is the outer product of the per-mode parity pairs.
    """

    name = "coherent"
    tol = NEGATIVITY_TOL

    def _setup(self, state: CoherentProduct, s: float):
        self._g1, self._g2 = complex(state.gamma1), complex(state.gamma2)
        self._k = 1.0 - s

    def _columns(self, settings1, settings2):
        exp, k_neg = math.exp, -self._k
        modes = ([], [])
        for terms, settings, g in ((modes[0], settings1, self._g1), (modes[1], settings2, self._g2)):
            for alpha in settings:
                e = k_neg * ((alpha.real + g.real) ** 2 + (alpha.imag + g.imag) ** 2)
                terms.append((exp(e), e))
        column, tol, what = self._column, self.tol, self._what
        columns = []
        for p1, e1 in modes[0]:
            for p2, e2 in modes[1]:
                columns.append(column(p1, p2, exp(e1 + e2), tol, what))
        return columns

    def bell_columns_grad(self, c):
        exp = math.exp
        k_neg, k2 = -self._k, -2.0 * self._k
        g1, g2 = self._g1, self._g2
        settings = []
        for ar, ai, g in ((c[0], c[1], g1), (c[2], c[3], g1), (c[4], c[5], g2), (c[6], c[7], g2)):
            pr, pi = ar + g.real, ai + g.imag
            e = k_neg * (pr ** 2 + pi ** 2)
            tr, ti = k2 * pr, k2 * pi
            v = exp(e)
            settings.append((v, v * tr, v * ti, e, tr, ti))
        a1, b1, a2, b2 = settings
        column, tol, what = self._column, self.tol, self._what
        c1, c2, c12 = self._weights
        columns, grads = [], []
        for (p1, p1_re, p1_im, e1, r1, i1), (p2, p2_re, p2_im, e2, r2, i2) in (
                (a1, a2), (a1, b2), (b1, a2), (b1, b2)):
            v = exp(e1 + e2)
            columns.append(column(p1, p2, v, tol, what))
            grads.append((c1 * p1_re + c12 * (v * r1), c1 * p1_im + c12 * (v * i1),
                          c2 * p2_re + c12 * (v * r2), c2 * p2_im + c12 * (v * i2)))
        return columns, grads


class _GaussianG(ClosedFormPortrait):
    """G of a Gaussian state from its parity and vacuum quadratic forms.

    With W = (1 - s) M + (1 + s)/2 and K = (1 - s)/2 W^-1,

        G(s, s) = exp(-mu' K mu) / sqrt(det W)

    for the kernel-order displaced mean mu (``gaussian_effective_mean``):
    s = -1 gives the parity form K = M^-1 / 2, s = 0 the vacuum form
    K = (2M + 1)^-1. A marginal uses the mode's 2x2 blocks of W in the
    same way. The joint form splits into one quadratic form per mode and
    the cross term 2 mu1' K12 mu2. Its gradient differentiates the
    exponents through x = mean + sqrt(2) Re alpha and
    y = mean + sqrt(2) Im alpha.
    """

    name = "gaussian"
    tol = NEGATIVITY_TOL_HERMITE

    def _setup(self, spec: GaussianSpec, s: float):
        scale = 0.5 * (1.0 - s)
        w, K, det_w = spec._kernels[_KERNEL_POINTS.index(s)]
        self._c12 = 1.0 / math.sqrt(det_w)
        per_mode = []
        for i, j in (_MODE1_IDX, _MODE2_IDX):
            # the mode's 2x2 block of W, inverted by hand, and of K symmetrized
            det = w[i][i] * w[j][j] - w[i][j] * w[j][i]
            f = scale / det
            per_mode.append((
                1.0 / math.sqrt(det),
                (f * w[j][j], -2.0 * f * w[i][j], f * w[i][i]),
                (0.5 * (K[i][i] + K[i][i]), 2.0 * (0.5 * (K[i][j] + K[j][i])), 0.5 * (K[j][j] + K[j][j])),
            ))
        (self._c1, self._k1, self._j1), (self._c2, self._k2, self._j2) = per_mode
        # the cross term: K's symmetrized entries between the modes, doubled
        (i1, j1), (i2, j2) = _MODE1_IDX, _MODE2_IDX
        self._x = (2.0 * (0.5 * (K[i1][i2] + K[i2][i1])), 2.0 * (0.5 * (K[i1][j2] + K[j2][i1])),
                   2.0 * (0.5 * (K[j1][i2] + K[i2][j1])), 2.0 * (0.5 * (K[j1][j2] + K[j2][j1])))
        # kernel-order mean pairs (mu[0], mu[2]) and (mu[1], mu[3])
        mean = spec.mean.tolist()
        self._m1, self._m2 = (mean[2], mean[0]), (mean[3], mean[1])

    def _overflow(self):
        return OverflowError(f"{self._what}: a setting's quadratic form leaves the float range")

    def _columns(self, settings1, settings2):
        exp, isfinite, root2 = math.exp, math.isfinite, SQRT2
        x00, x01, x10, x11 = self._x
        modes = ([], [])
        for terms, settings, (mx, my), cm, (k0, k1, k2), (j0, j1, j2), first in (
                (modes[0], settings1, self._m1, self._c1, self._k1, self._j1, True),
                (modes[1], settings2, self._m2, self._c2, self._k2, self._j2, False)):
            for alpha in settings:
                x = mx + root2 * alpha.real
                y = my + root2 * alpha.imag
                # mode 1 enters the cross term through these, mode 2 through (x, y)
                h0, h1 = (x00 * x + x10 * y, x01 * x + x11 * y) if first else (x, y)
                form, own = k0 * x * x + k1 * x * y + k2 * y * y, j0 * x * x + j1 * x * y + j2 * y * y
                if not isfinite(form + own):
                    raise self._overflow()
                terms.append((cm * exp(-form), own, h0, h1))
        c12, column, tol, what = self._c12, self._column, self.tol, self._what
        columns = []
        for p1, own1, h0, h1 in modes[0]:
            for p2, own2, x, y in modes[1]:
                columns.append(column(p1, p2, c12 * exp(-(own1 + own2 + h0 * x + h1 * y)), tol, what))
        return columns

    def bell_columns_grad(self, c):
        exp, isfinite, root2, root2_neg = math.exp, math.isfinite, SQRT2, -SQRT2
        x00, x01, x10, x11 = self._x
        settings = []
        for (ar, ai), (mx, my), cm, (k0, k1, k2), (j0, j1, j2), first in (
                ((c[0], c[1]), self._m1, self._c1, self._k1, self._j1, True),
                ((c[2], c[3]), self._m1, self._c1, self._k1, self._j1, True),
                ((c[4], c[5]), self._m2, self._c2, self._k2, self._j2, False),
                ((c[6], c[7]), self._m2, self._c2, self._k2, self._j2, False)):
            x = mx + root2 * ar
            y = my + root2 * ai
            # mode 1 enters the cross term through these, mode 2 through (x, y)
            h0, h1 = (x00 * x + x10 * y, x01 * x + x11 * y) if first else (x, y)
            form, own = k0 * x * x + k1 * x * y + k2 * y * y, j0 * x * x + j1 * x * y + j2 * y * y
            if not isfinite(form + own):
                raise self._overflow()
            p = cm * exp(-form)
            q = root2_neg * p
            settings.append((p, q * (2.0 * k0 * x + k1 * y), q * (k1 * x + 2.0 * k2 * y), own, h0, h1,
                             2.0 * j0 * x + j1 * y, j1 * x + 2.0 * j2 * y))
        a1, b1, a2, b2 = settings
        c12 = self._c12
        column, tol, what = self._column, self.tol, self._what
        w1, w2, w12 = self._weights
        columns, grads = [], []
        for (p1, p1_re, p1_im, own1, h0, h1, t1x, t1y), (p2, p2_re, p2_im, own2, x, y, t2x, t2y) in (
                (a1, a2), (a1, b2), (b1, a2), (b1, b2)):
            v = c12 * exp(-(own1 + own2 + h0 * x + h1 * y))
            f = root2_neg * v
            columns.append(column(p1, p2, v, tol, what))
            grads.append((w1 * p1_re + w12 * (f * (t1x + x00 * x + x01 * y)),
                          w1 * p1_im + w12 * (f * (t1y + x10 * x + x11 * y)),
                          w2 * p2_re + w12 * (f * (t2x + h0)),
                          w2 * p2_im + w12 * (f * (t2y + h1))))
        return columns, grads


_GENERATING_FUNCTIONS = (
    (CatState, _CatG),
    (CoherentProduct, _CoherentG),
    (GaussianSpec, _GaussianG),
)
_CLOSED_FORM_STATES = tuple(cls for cls, _ in _GENERATING_FUNCTIONS)


# ---------------------------------------------------------------------------
# named closed forms
# ---------------------------------------------------------------------------


def _even_odd_portrait(state, alpha1: complex, alpha2: complex) -> PortraitVector:
    """Even-odd portrait of a cat, coherent-product or Gaussian state in closed form."""
    return ClosedFormPortrait(state, "even-odd")(alpha1, alpha2)


def _zero_nonzero_portrait(state, alpha1: complex, alpha2: complex) -> PortraitVector:
    """Zero-nonzero portrait of a cat, coherent-product or Gaussian state in closed form."""
    return ClosedFormPortrait(state, "zero-nonzero")(alpha1, alpha2)


# the per-state public names; ``perfbench/spans.py`` wraps the cat and
# coherent ones by name
cat_portrait_even_odd = coherent_portrait_even_odd = _even_odd_portrait
cat_portrait_zero_nonzero = coherent_portrait_zero_nonzero = _zero_nonzero_portrait


class GaussianPortraitContext:
    """Both canonical closed-form portraits of one Gaussian state.

    Everything that depends only on the dispersion matrix is set up once
    here; the portraits carry zero tail deficit.
    """

    def __init__(self, g: GaussianSpec):
        self.spec = g
        self._even_odd = ClosedFormPortrait(g, "even-odd")
        self._zero_nonzero = ClosedFormPortrait(g, "zero-nonzero")

    def even_odd(self, alpha1: complex, alpha2: complex) -> PortraitVector:
        return self._even_odd(alpha1, alpha2)

    def zero_nonzero(self, alpha1: complex, alpha2: complex) -> PortraitVector:
        return self._zero_nonzero(alpha1, alpha2)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def make_portrait_fn(
    src,
    p: PartitionScheme,
    nmax: int = DEFAULT_NMAX,
    tail_eps: float = DEFAULT_TAIL_EPS,
) -> Callable[[complex, complex], PortraitVector]:
    """Bind a state or source and a partition into a settings -> portrait map.

    Cat, coherent-product and Gaussian states under a canonical partition
    get a ``ClosedFormPortrait``, given as the state object itself or in
    the library's own ``CatSource``, ``CoherentSource`` or
    ``GaussianSource``. A subclass of those sources may override its
    tomograms, so it goes through truncated table sums with the given nmax
    and tail_eps, as does everything else. The returned callable is what
    the Bell-matrix assembly and the maximizer consume.
    """
    _integer(nmax, "nmax", 1)
    state = src.state if type(src) in _LIBRARY_SOURCES else src
    if p.kind in _CANONICAL and isinstance(state, _CLOSED_FORM_STATES):
        return ClosedFormPortrait(state, p.kind)
    source = make_source(src)
    return lambda a1, a2: portrait_truncated(source, p, a1, a2, nmax, tail_eps)
