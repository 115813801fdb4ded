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
mode's displacement, and a joint term; ``make_portrait_fn`` returns for
these states a portrait function that also evaluates the four columns of
a Bell matrix in one call, computing each per-mode term once per setting.
Every other state or partition goes through a truncated table sum.

``make_portrait_fn`` is the way to a closed form. The six per-state names
(``cat_portrait_even_odd``, ``gaussian_portrait_zero_nonzero`` and so on)
are aliases of two functions, one per canonical partition, and each takes
any closed-form state.
"""

from __future__ import annotations

import math
import numbers
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
    _MODE1_IDX,
    _MODE2_IDX,
    DEFAULT_NMAX,
    NEGATIVITY_TOL,
    NEGATIVITY_TOL_HERMITE,
    CatState,
    CoherentProduct,
    GaussianSpec,
    TomogramSource,
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
        rules = []
        for which, rule in (("mode1", rule1), ("mode2", rule2)):
            if rule != "even" and (
                isinstance(rule, bool) or not isinstance(rule, numbers.Integral) or rule < 0
            ):
                raise InvalidParameter(
                    f"{which} rule must be an integer t >= 0 or 'even', got {rule!r}"
                )
            rules.append(rule if rule == "even" else int(rule))
        self.rule1, self.rule2 = rules
        self.kind = _CANONICAL_RULES.get(tuple(rules), "custom")

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
                if isinstance(spec, dict) and isinstance(spec.get("threshold"), numbers.Integral):
                    return spec["threshold"]
                raise InvalidParameter(
                    f"bad {which} rule {spec!r}; use 'zero', 'even', or "
                    "{'threshold': t} with an integer t >= 0"
                )

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


def _check_nmax(nmax) -> None:
    """Raise unless nmax is an integer >= 1 (a bool is no integer here)."""
    if isinstance(nmax, bool) or not isinstance(nmax, numbers.Integral) or nmax < 1:
        raise InvalidParameter(f"nmax must be an integer >= 1, got {nmax!r}")


def portrait_truncated(
    src: TomogramSource,
    p: PartitionScheme,
    alpha1: complex,
    alpha2: complex,
    nmax: int = DEFAULT_NMAX,
    tail_eps: float = DEFAULT_TAIL_EPS,
) -> PortraitVector:
    """Portrait by direct cell sums over the table n1, n2 <= nmax.

    The mass beyond the truncation is reported as ``tail_deficit`` and the
    components are left un-renormalized. A deficit above ``tail_eps`` fails:
    the caller can raise nmax or move the displacement closer to origin.

    Raises:
        TailTooLarge: deficit > tail_eps (carries the deficit value).
        NumericalNegativity: propagated from the table evaluation.
    """
    _check_nmax(nmax)
    if not tail_eps > 0.0:
        raise InvalidParameter(f"tail_eps must be > 0, got {tail_eps}")
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
# generating functions
# ---------------------------------------------------------------------------
#
# Each class below evaluates G of one state family with every measured mode
# at the same point s (-1 for parity, 0 for vacuum). ``mode1(alpha)`` and
# ``mode2(alpha)`` return the marginal G(s, 1) or G(1, s) at that mode's
# displacement together with the per-mode terms of the joint G(s, s), which
# ``joint`` combines. ``mode1_grad``, ``mode2_grad`` and ``joint_grad`` add
# the derivatives along (Re alpha, Im alpha): the marginal's, the per-mode
# terms', and the joint's along both modes' displacements.


class _BranchG:
    """Shared per-mode plumbing of the coherent-branch states.

    ``_one1``/``_one2`` are the per-mode terms of an unmeasured mode
    (s = 1), so a marginal is the joint G with the other mode unmeasured;
    ``_marginal_grad`` is ``joint_grad`` so restricted, with the
    derivatives of the measured mode only.
    """

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


class _CatG(_BranchG):
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
    """

    name = "cat"
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
        """The per-mode terms and their derivatives along Re and Im alpha."""
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
        """``joint`` and its derivatives along (Re, Im) of mode 1, then of mode 2.

        ``t1`` and ``t2`` are the derivatives of the per-mode terms that
        ``_mode_grad`` returns.
        """
        n = self._norm2
        e_plus = math.exp(d1[0] + d2[0])
        e_minus = math.exp(d1[1] + d2[1])
        x = 2.0 * math.exp(d1[2] + d2[2])
        phase = d1[3] + d2[3]
        x_cos, x_sin = x * math.cos(phase), x * math.sin(phase)
        # the derivative of G along each per-mode term
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
        """The marginal and its derivatives along (Re, Im) of the measured
        mode: ``joint_grad`` with the other mode unmeasured (terms ``one``),
        by the same operations, so with the same bits."""
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


class _CoherentG(_BranchG):
    """G of a coherent product: exp(-(1 - s1) lam1 - (1 - s2) lam2).

    lam_j = |alpha_j + g_j|^2 is the Poisson mean of mode j. At s = -1 a
    mode's term is its parity: a Poisson count with mean lam is even with
    probability (1 + exp(-2 lam)) / 2, and as the modes are independent the
    even-odd portrait is the outer product of the per-mode parity pairs.
    """

    name = "coherent"
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


class _GaussianG:
    """G of a Gaussian state from its parity and vacuum quadratic forms.

    With W = (1 - s) M + (1 + s)/2 and K = (1 - s)/2 W^-1,

        G(s, s) = exp(-mu' K mu) / sqrt(det W)

    for the kernel-order displaced mean mu (``gaussian_effective_mean``):
    s = -1 gives the parity form K = M^-1 / 2, s = 0 the vacuum form
    K = (2M + 1)^-1. A marginal uses the mode's 2x2 blocks of W in the
    same way. The joint form splits into one quadratic form per mode and
    the cross term 2 mu1' K12 mu2.
    """

    name = "gaussian"
    tol = NEGATIVITY_TOL_HERMITE

    def __init__(self, spec: GaussianSpec, s: float):
        scale = 0.5 * (1.0 - s)
        W = (1.0 - s) * spec.M + 0.5 * (1.0 + s) * np.eye(4)
        K = (scale * np.linalg.inv(W)).tolist()
        w = W.tolist()

        def k(i, j):
            return 0.5 * (K[i][j] + K[j][i])

        self._c12 = 1.0 / math.sqrt(float(np.linalg.det(W)))
        per_mode = []
        for i, j in (_MODE1_IDX, _MODE2_IDX):
            # the mode's 2x2 block of W, inverted by hand
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
        # kernel-order mean pairs (mu[0], mu[2]) and (mu[1], mu[3])
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

    # The gradient forms below differentiate the exponents above through
    # x = mean + sqrt(2) Re alpha and y = mean + sqrt(2) Im alpha.

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


def _even_odd_cells(p1, p2, p12):
    """Cells from the parities G(-1, 1), G(1, -1) and G(-1, -1)."""
    return (
        0.25 * (1.0 + p1 + p2 + p12),
        0.25 * (1.0 + p1 - p2 - p12),
        0.25 * (1.0 - p1 + p2 - p12),
        0.25 * (1.0 - p1 - p2 + p12),
    )


def _zero_nonzero_cells(v1, v2, v12):
    """Cells from the vacuum probabilities G(0, 1), G(1, 0) and G(0, 0)."""
    return (v12, v1 - v12, v2 - v12, 1.0 - v1 - v2 + v12)


# partition kind -> (the point s of each measured mode, cells from G, the
# weights (c1, c2, c12) of the correlation E = c0 + c1 G1 + c2 G2 + c12 G12
# in the marginals and the joint term)
_CANONICAL = {
    "even-odd": (-1.0, _even_odd_cells, (0.0, 0.0, 1.0)),
    "zero-nonzero": (0.0, _zero_nonzero_cells, (-2.0, -2.0, 4.0)),
}
_GENERATING_FUNCTIONS = (
    (CatState, _CatG),
    (CoherentProduct, _CoherentG),
    (GaussianSpec, _GaussianG),
)
_CLOSED_FORM_STATES = tuple(cls for cls, _ in _GENERATING_FUNCTIONS)


class ClosedFormPortrait:
    """Closed-form portrait function of one state under a canonical partition.

    Calling it with (alpha1, alpha2) gives one PortraitVector with zero
    tail deficit. ``bell_columns(s)`` evaluates the four Bell-matrix
    columns of the settings ``s`` in one call, computing each per-mode term
    once per setting, and runs the same checks once per column. The pieces
    are public for callers that fuse more work around them: ``mode1`` and
    ``mode2`` give the per-mode terms of one displacement, and ``column``
    turns a mode-1 and a mode-2 term into a checked column. ``mode1_grad``,
    ``mode2_grad`` and ``column_grad`` do the same and also carry the
    derivatives along the real and imaginary parts of each displacement,
    so a column comes with the gradient of its correlation.
    """

    __slots__ = ("mode1", "mode2", "mode1_grad", "mode2_grad", "_g", "_cells", "_weights", "_what")

    def __init__(self, state, kind: str):
        s, self._cells, self._weights = _CANONICAL[kind]
        for cls, family in _GENERATING_FUNCTIONS:
            if isinstance(state, cls):
                break
        else:
            raise UnsupportedState(f"no closed-form portrait for {type(state).__name__}")
        self._g = family(state, s)
        self.mode1, self.mode2 = self._g.mode1, self._g.mode2
        self.mode1_grad, self.mode2_grad = self._g.mode1_grad, self._g.mode2_grad
        self._what = f"{family.name} {kind} portrait"

    def column(self, m1, m2):
        """Checked (w_pp, w_pm, w_mp, w_mm, tail_deficit) from per-mode terms."""
        (p1, d1), (p2, d2) = m1, m2
        cells = self._cells(p1, p2, self._g.joint(d1, d2))
        return _checked_cells(cells, 0.0, self._g.tol, self._what)

    def column_grad(self, m1, m2):
        """``column`` from the terms of ``mode1_grad`` and ``mode2_grad``,
        and the derivatives of the column's correlation
        E = w_pp - w_pm - w_mp + w_mm along (Re alpha1, Im alpha1, Re alpha2,
        Im alpha2).

        E is linear in the two marginals and the joint term, so its
        derivatives are theirs, weighted. They are those of the closed form
        before the cells are clamped at 0, which moves a cell by at most
        the negativity tolerance.
        """
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

    def __call__(self, alpha1, alpha2) -> PortraitVector:
        return _vector(self.column(self.mode1(alpha1), self.mode2(alpha2)))

    def bell_columns(self, s):
        """Checked columns (w_pp, w_pm, w_mp, w_mm, tail_deficit) of settings ``s``.

        Column order is (a1,a2), (a1,b2), (b1,a2), (b1,b2), as in
        ``bell_matrix``.
        """
        a1, b1 = self.mode1(s.alpha1), self.mode1(s.beta1)
        a2, b2 = self.mode2(s.alpha2), self.mode2(s.beta2)
        column = self.column
        return [column(a1, a2), column(a1, b2), column(b1, a2), column(b1, b2)]


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
gaussian_portrait_even_odd = _even_odd_portrait
cat_portrait_zero_nonzero = coherent_portrait_zero_nonzero = _zero_nonzero_portrait
gaussian_portrait_zero_nonzero = _zero_nonzero_portrait


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
    prefer_closed_form: bool = True,
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
    _check_nmax(nmax)
    state = src.state if type(src) in _LIBRARY_SOURCES else src
    if (
        prefer_closed_form
        and p.kind in _CANONICAL
        and isinstance(state, _CLOSED_FORM_STATES)
    ):
        return ClosedFormPortrait(state, p.kind)
    source = src if isinstance(src, TomogramSource) else make_source(src)
    return lambda a1, a2: portrait_truncated(source, p, a1, a2, nmax, tail_eps)
