"""Bell-CHSH entanglement witness over two-qubit portraits.

The Bell matrix collects portrait vectors at the four combinations of two
displacement settings per mode. Contracting it against a fixed sign matrix
gives the CHSH combination of the four correlations; values above 2
witness entanglement, and no quantum state can exceed 2*sqrt(2) (the
Tsirelson bound). The maximizer searches the 8 real setting coordinates
for the largest witness value a state offers. Each start runs a bounded
limited-memory quasi-Newton search (L-BFGS-B, written here so that scipy
is not needed at run time) on B and its gradient: exact for closed-form
portraits, whose generating-function terms are exponentials of quadratics
in the settings, and forward differences for any other portrait. Its
steps grow from the start's scale by at most a fixed factor per
iteration, so each start explores the neighbourhood it was drawn for.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from .errors import (
    InvalidBellNumber,
    InvalidParameter,
    InvalidStochasticMatrix,
    TomobellError,
    UnsupportedState,
)
from .portrait import (
    DEFAULT_NMAX,
    DEFAULT_TAIL_EPS,
    SUM_TOL,
    ClosedFormPortrait,
    PartitionScheme,
    PortraitVector,
    make_portrait_fn,
)
from .states import DEFAULT_BOX, _check_finite, _integer

# fixed CHSH sign pattern: rows follow the portrait cell order
# (++, +-, -+, --), columns follow the setting pairs of BellSettings.pairs()
I_MATRIX = np.array(
    [
        [1.0, -1.0, -1.0, 1.0],
        [1.0, -1.0, -1.0, 1.0],
        [1.0, -1.0, -1.0, 1.0],
        [-1.0, 1.0, 1.0, -1.0],
    ]
)

TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)
# computed Bell numbers above the bound by more than this signal a bug
CEILING_TOL = 1e-6
# Bell matrix entries may undershoot 0 or overshoot 1 by at most this, and
# column mass must balance against the recorded tail deficit to within
# that; both are a portrait's sum bound, so every checked portrait (clamped
# at 0, summing to 1 within SUM_TOL) is an in-range, balanced column
ENTRY_TOL = SUM_TOL
COLUMN_TOL = SUM_TOL

VERDICT_SEPARABLE = "SEPARABLE-CONSISTENT"
VERDICT_ENTANGLED = "ENTANGLED-WITNESSED"

# scale ladder for the multi-start search: start index i draws its initial
# point uniformly from the box shrunk by SCALES[i % 5]. Pure uniform draws
# at full box width systematically miss the short-wavelength interference
# optima of large-amplitude cat states (the oscillation period falls off as
# 1/|gamma|), so a fixed fraction of starts probes each finer scale.
START_SCALES = (1.0, 0.25, 0.0625, 0.015625, 0.00390625)

# running maximum of every Bell number computed in this process; test
# suites read it to confirm nothing ever crossed the Tsirelson ceiling
_bell_high_water = 0.0


def get_bell_high_water() -> float:
    return _bell_high_water


@dataclass(frozen=True)
class BellSettings:
    """Two displacement settings per mode."""

    alpha1: complex
    alpha2: complex
    beta1: complex
    beta2: complex

    def __post_init__(self):
        for name in ("alpha1", "alpha2", "beta1", "beta2"):
            _check_finite(getattr(self, name), name)

    def pairs(self):
        """The four setting combinations, in Bell-matrix column order."""
        return (
            (self.alpha1, self.alpha2),
            (self.alpha1, self.beta2),
            (self.beta1, self.alpha2),
            (self.beta1, self.beta2),
        )

    def as_vector(self) -> np.ndarray:
        """Flatten to 8 reals: (Re a1, Im a1, Re b1, Im b1, Re a2, Im a2, Re b2, Im b2)."""
        return np.array(
            [
                self.alpha1.real, self.alpha1.imag,
                self.beta1.real, self.beta1.imag,
                self.alpha2.real, self.alpha2.imag,
                self.beta2.real, self.beta2.imag,
            ]
        )

    @staticmethod
    def from_vector(x) -> "BellSettings":
        x = np.asarray(x, dtype=float)
        if x.shape != (8,):
            raise InvalidParameter(f"settings vector must hold 8 reals, got {x.shape}")
        return BellSettings(
            complex(x[0], x[1]),
            complex(x[4], x[5]),
            complex(x[2], x[3]),
            complex(x[6], x[7]),
        )


class BellMatrix:
    """4x4 matrix whose columns are portraits at the four setting pairs.

    Columns may individually miss probability mass when built from
    truncated portraits; each column's tail deficit is kept alongside so
    the stochasticity check can balance the books instead of silently
    passing biased columns.

    The matrix keeps its checked columns (w_pp, w_pm, w_mp, w_mm,
    tail_deficit) as floats, which is all ``bell_number`` reads.
    ``matrix`` and ``column_deficits`` are read-only arrays, built from
    the columns on first read.
    """

    __slots__ = ("_columns", "_arrays")

    def __init__(self, matrix, column_deficits):
        m = np.asarray(matrix, dtype=float)
        d = np.asarray(column_deficits, dtype=float)
        if m.shape != (4, 4) or d.shape != (4,):
            raise InvalidStochasticMatrix(
                f"Bell matrix must be 4x4 with 4 deficits, got {m.shape}, {d.shape}"
            )
        self._columns = _checked_columns(tuple(zip(*m.tolist(), d.tolist())))
        self._arrays = None

    @property
    def matrix(self) -> np.ndarray:
        """The 4x4 matrix, one portrait per column; read-only."""
        return self._read_only_arrays()[0]

    @property
    def column_deficits(self) -> np.ndarray:
        """The tail deficit of each column; read-only."""
        return self._read_only_arrays()[1]

    def _read_only_arrays(self):
        if self._arrays is None:
            # one row per column: the four cells, then the tail deficit
            rows = np.array(self._columns)
            matrix = np.ascontiguousarray(rows[:, :4].T)
            deficits = rows[:, 4].copy()
            matrix.flags.writeable = deficits.flags.writeable = False
            self._arrays = matrix, deficits
        return self._arrays

    def __repr__(self):
        return f"BellMatrix(matrix={self.matrix!r}, column_deficits={self.column_deficits!r})"

    def __reduce__(self):
        # a copy or an unpickled matrix builds its own read-only arrays;
        # copied arrays would come back writeable
        return _unchecked_bell_matrix, (self._columns,)


def _checked_columns(columns):
    """Run the Bell-matrix checks on four columns (w_pp, w_pm, w_mp, w_mm,
    tail_deficit) of floats; return the columns.

    Every entry must lie in [0, 1] within ENTRY_TOL, no deficit may lie
    below -ENTRY_TOL (a negative deficit would balance an overfull column),
    and the entries of each column plus its deficit must sum to 1 within
    COLUMN_TOL, added in the order of numpy's column sums. A NaN entry fails
    the first test and a NaN deficit the last.
    """
    if not all(-ENTRY_TOL <= w <= 1.0 + ENTRY_TOL for column in columns for w in column[:4]):
        raise InvalidStochasticMatrix("Bell matrix entries must lie in [0, 1]")
    if any(column[4] < -ENTRY_TOL for column in columns):
        raise InvalidStochasticMatrix("Bell matrix column deficits must be >= 0")
    imbalance = [
        abs(((((w_pp + w_pm) + w_mp) + w_mm) + deficit) - 1.0)
        for w_pp, w_pm, w_mp, w_mm, deficit in columns
    ]
    if not all(x <= COLUMN_TOL for x in imbalance):
        raise InvalidStochasticMatrix(
            f"Bell matrix columns must sum to 1 minus their deficit "
            f"(worst imbalance {float(np.max(imbalance)):.3e})"
        )
    return columns


def _unchecked_bell_matrix(columns) -> BellMatrix:
    """A BellMatrix holding ``columns`` as they are, not checked again."""
    m = object.__new__(BellMatrix)
    m._columns = columns
    m._arrays = None
    return m


def bell_matrix(
    portrait_fn: Callable[[complex, complex], PortraitVector], s: BellSettings
) -> BellMatrix:
    """Assemble the Bell matrix from the portraits at the four setting pairs.

    Column order is (a1,a2), (a1,b2), (b1,a2), (b1,b2). A portrait function
    with a ``bell_columns`` method (the closed forms of
    ``make_portrait_fn``) evaluates all four columns in one call and has
    already checked each column as a portrait, which puts every entry in
    [0, 1 + ENTRY_TOL]; its columns are kept as they come, and nothing is
    checked again. Any other callable is called once per column, and its
    columns pass the checks of ``BellMatrix``. Portrait errors (truncation
    tail too large, negative cells) propagate to the caller.
    """
    bell_columns = getattr(portrait_fn, "bell_columns", None)
    if bell_columns is not None:
        return _unchecked_bell_matrix(bell_columns(s))
    columns = []
    for (x, y) in s.pairs():
        v = portrait_fn(x, y)
        columns.append((float(v.w_pp), float(v.w_pm), float(v.w_mp), float(v.w_mm),
                        float(v.tail_deficit)))
    return _unchecked_bell_matrix(_checked_columns(tuple(columns)))


def bell_number(m) -> float:
    """The CHSH combination B = |trace(M I)|.

    The trace contraction pairs column j of M with row j of the sign
    matrix, which makes each column contribute its +-1 correlation with
    the CHSH signs (+, +, +, -). Contracting entrywise against the sign
    matrix instead would pair each column with a sign COLUMN; the sign
    matrix is not symmetric, so the two conventions differ, and only the
    trace form reproduces the worked squeezed-state value near 2.26. A
    regression test pins that choice.

    B is summed on floats in the order numpy's ``trace(M @ I_MATRIX)``
    adds it, so it keeps those bits: row i of M against its sign column,
    ((M[i,0] + M[i,1]) + M[i,2]) - M[i,3], with the signs (+, -, -, +) of
    the cells' correlation, then the four from first to last. The fused
    closed-form objective adds column by column instead, which differs in
    the last bit; ``maximize_bell`` reports B from here.

    Raises:
        InvalidParameter: a plain matrix is not 4x4, or its B is not
            finite (a NaN or infinite entry).
    """
    global _bell_high_water
    if isinstance(m, BellMatrix):
        columns = m._columns
    else:
        mat = np.asarray(m, dtype=float)
        if mat.shape != (4, 4):
            raise InvalidParameter(f"need a 4x4 Bell matrix, got shape {mat.shape}")
        # the columns of a plain matrix, with a 0 in place of a deficit
        columns = tuple(zip(*mat.tolist(), (0.0,) * 4))
    (a0, a1, a2, a3, _), (b0, b1, b2, b3, _), (c0, c1, c2, c3, _), (d0, d1, d2, d3, _) = columns
    x0 = ((a0 + b0) + c0) - d0
    x1 = ((a1 + b1) + c1) - d1
    x2 = ((a2 + b2) + c2) - d2
    x3 = ((a3 + b3) + c3) - d3
    b = abs(((x0 - x1) - x2) + x3)
    if not math.isfinite(b):
        raise InvalidParameter(f"need a Bell matrix with finite entries, got B = {b}")
    if b > _bell_high_water:
        _bell_high_water = b
    return b


@dataclass(frozen=True)
class ChshVerdict:
    verdict: str
    margin: float  # b - 2; positive means entanglement witnessed


def chsh_check(b: float) -> ChshVerdict:
    """Classify a Bell number against the classical and quantum bounds.

    Raises:
        InvalidParameter: b is negative or not finite.
        InvalidBellNumber: b exceeds the Tsirelson bound beyond rounding
            tolerance, which no state can produce; it signals a numerics
            bug (or a deliberately unphysical input) upstream.
    """
    b = float(b)
    if not math.isfinite(b) or b < 0.0:
        raise InvalidParameter(f"Bell number must be finite and >= 0, got {b}")
    if b > TSIRELSON_BOUND + CEILING_TOL:
        raise InvalidBellNumber(
            f"Bell number {b:.9f} exceeds the Tsirelson bound {TSIRELSON_BOUND:.9f}"
        )
    if b > 2.0:
        return ChshVerdict(VERDICT_ENTANGLED, b - 2.0)
    return ChshVerdict(VERDICT_SEPARABLE, b - 2.0)


# ---------------------------------------------------------------------------
# bounded quasi-Newton search
# ---------------------------------------------------------------------------

# the line search's sufficient-decrease and curvature constants (those of
# L-BFGS-B) and its relative tolerance on the width of the bracket
LS_FTOL, LS_GTOL, LS_XTOL = 1e-3, 0.9, 0.1
# trial steps one line search may take before it counts as failed
LS_MAX_TRIALS = 20
# curvature pairs the search keeps, as in L-BFGS-B
LBFGS_MEMORY = 10
# the maximizer's stop test: a step that moves no setting coordinate by
# more than XTOL, or raises B by at most FTOL * max(B, 1), ends a start
XTOL = 1e-10
FTOL = 1e-9
# after the first step, a step moves no coordinate by more than this many
# times the largest move of the previous step, or the start's scale if that
# is larger
STEP_GROWTH = 3.0
_EPS = sys.float_info.epsilon
# the Cauchy point is skipped only when g'Hg / g'g lies below the first
# breakpoint by this factor. It covers the rounding of g'Bg with
# B = H^-1 as the Cauchy point computes it, whose relative error grows as
# eps times the condition number of H; the maximizer's searches meet
# condition numbers up to about 2e13. Fewer than 1 in 1,000 of their
# iterations have a bound that close to the first breakpoint.
_PIN_BOUND_MARGIN = 1.0 - 1e-3

_SEARCH_MESSAGES = (
    "Optimization terminated successfully.",
    "Maximum number of function evaluations has been exceeded.",
    "The line search found no decrease, even from a fresh Hessian estimate.",
)


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one bounded search, under scipy's field names.

    ``status`` is 0 on convergence, 1 when ``maxfev`` value-and-gradient
    calls were spent and 2 when the line search found no decrease from a
    fresh Hessian estimate; ``success`` is ``status == 0``. ``nit`` counts
    accepted steps and ``nfev`` value-and-gradient calls.
    """

    x: np.ndarray
    fun: float
    nit: int
    nfev: int
    status: int
    success: bool
    message: str


def _cubic_step(stx, fx, dx, sty, fy, dy, stp, fp, dp, bracketed, stpmin, stpmax):
    """One safeguarded step of the More-Thuente line search (their dcstep).

    (stx, fx, dx) is the best step so far, (sty, fy, dy) the other end of
    the interval and (stp, fp, dp) the latest trial, each with its value
    and slope. Returns the updated interval, whether it now brackets a
    minimizer, and the next trial step, from cubic and quadratic
    interpolation kept inside [stpmin, stpmax].
    """
    sgnd = dp * math.copysign(1.0, dx)
    if fp > fx:
        # higher value: the minimizer is bracketed, take the closer of the
        # cubic and quadratic minimizers
        theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
        sc = max(abs(theta), abs(dx), abs(dp))
        gamma = sc * math.sqrt((theta / sc) ** 2 - (dx / sc) * (dp / sc))
        if stp < stx:
            gamma = -gamma
        r = ((gamma - dx) + theta) / (((gamma - dx) + gamma) + dp)
        stpc = stx + r * (stp - stx)
        stpq = stx + ((dx / ((fx - fp) / (stp - stx) + dx)) / 2.0) * (stp - stx)
        stpf = stpc if abs(stpc - stx) < abs(stpq - stx) else stpc + (stpq - stpc) / 2.0
        bracketed = True
    elif sgnd < 0.0:
        # slopes of opposite sign: bracketed, take the farther of the
        # cubic and secant steps
        theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
        sc = max(abs(theta), abs(dx), abs(dp))
        gamma = sc * math.sqrt((theta / sc) ** 2 - (dx / sc) * (dp / sc))
        if stp > stx:
            gamma = -gamma
        r = ((gamma - dp) + theta) / (((gamma - dp) + gamma) + dx)
        stpc = stp + r * (stx - stp)
        stpq = stp + (dp / (dp - dx)) * (stx - stp)
        stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
        bracketed = True
    elif abs(dp) < abs(dx):
        # lower value, same slope sign, slope shrinking: the cubic step
        # only if it heads the right way, else the interval's end
        theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
        sc = max(abs(theta), abs(dx), abs(dp))
        gamma = sc * math.sqrt(max(0.0, (theta / sc) ** 2 - (dx / sc) * (dp / sc)))
        if stp > stx:
            gamma = -gamma
        r = ((gamma - dp) + theta) / ((gamma + (dx - dp)) + gamma)
        if r < 0.0 and gamma != 0.0:
            stpc = stp + r * (stx - stp)
        elif stp > stx:
            stpc = stpmax
        else:
            stpc = stpmin
        stpq = stp + (dp / (dp - dx)) * (stx - stp)
        if bracketed:
            stpf = stpc if abs(stpc - stp) < abs(stpq - stp) else stpq
            if stp > stx:
                stpf = min(stp + 0.66 * (sty - stp), stpf)
            else:
                stpf = max(stp + 0.66 * (sty - stp), stpf)
        else:
            stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
            stpf = max(stpmin, min(stpmax, stpf))
    elif bracketed:
        # lower value, slope not shrinking: the cubic through the trial
        # and the other end
        theta = 3.0 * (fp - fy) / (sty - stp) + dy + dp
        sc = max(abs(theta), abs(dy), abs(dp))
        gamma = sc * math.sqrt((theta / sc) ** 2 - (dy / sc) * (dp / sc))
        if stp > sty:
            gamma = -gamma
        r = ((gamma - dp) + theta) / (((gamma - dp) + gamma) + dy)
        stpf = stp + r * (sty - stp)
    else:
        stpf = stpmax if stp > stx else stpmin

    if fp > fx:
        sty, fy, dy = stp, fp, dp
    else:
        if sgnd < 0.0:
            sty, fy, dy = stx, fx, dx
        stx, fx, dx = stp, fp, dp
    return stx, fx, dx, sty, fy, dy, bracketed, stpf


def _line_search(phi, f0, g0, stp, stpmax, trials, first=None):
    """Search t in (0, stpmax] for the Wolfe conditions (More & Thuente).

    ``phi(t)`` returns the value at step t, its slope along the direction
    and a payload; ``f0`` and ``g0 < 0`` are the value and slope at t = 0.
    Accepts a step with sufficient decrease and a slope shrunk by LS_GTOL,
    or with sufficient decrease at ``stpmax`` while still descending, or
    any decrease once rounding or the bracket width stops the search.
    ``first``, when given, is ``phi(stp)``, already evaluated; it counts as
    the first of the ``trials``.
    Returns (t, value, payload), or None when ``trials`` steps found none.
    """
    gtest = LS_FTOL * g0
    width, width1 = stpmax, 2.0 * stpmax
    bracketed, stage = False, 1
    stx, fx, gx = 0.0, f0, g0
    sty, fy, gy = 0.0, f0, g0
    stmin, stmax = 0.0, 5.0 * stp
    for _ in range(trials):
        if first is None:
            f, g, payload = phi(stp)
        else:
            (f, g, payload), first = first, None
        ftest = f0 + stp * gtest
        if f <= ftest and (abs(g) <= LS_GTOL * -g0 or (stp == stpmax and g <= gtest)):
            return stp, f, payload
        if bracketed and (stp <= stmin or stp >= stmax or stmax - stmin <= LS_XTOL * stmax):
            return (stp, f, payload) if f < f0 else None
        if stage == 1 and f <= ftest and g >= 0.0:
            stage = 2
        if stage == 1 and ftest < f <= fx:
            # search on the modified function f(t) - f0 - t * gtest, whose
            # minimizers satisfy the sufficient-decrease condition
            stx, fxm, gxm, sty, fym, gym, bracketed, stp = _cubic_step(
                stx, fx - stx * gtest, gx - gtest, sty, fy - sty * gtest, gy - gtest,
                stp, f - stp * gtest, g - gtest, bracketed, stmin, stmax)
            fx, gx = fxm + stx * gtest, gxm + gtest
            fy, gy = fym + sty * gtest, gym + gtest
        else:
            stx, fx, gx, sty, fy, gy, bracketed, stp = _cubic_step(
                stx, fx, gx, sty, fy, gy, stp, f, g, bracketed, stmin, stmax)
        if bracketed:
            # force enough shrinkage of the bracket
            if abs(sty - stx) >= 0.66 * width1:
                stp = stx + 0.5 * (sty - stx)
            width1, width = width, abs(sty - stx)
            stmin, stmax = min(stx, sty), max(stx, sty)
        else:
            stmin, stmax = stp + 1.1 * (stp - stx), stp + 4.0 * (stp - stx)
        stp = min(max(stp, 0.0), stpmax)
        if bracketed and (stp <= stmin or stp >= stmax or stmax - stmin <= LS_XTOL * stmax):
            stp = stx
    return None


class _CurvatureMemory:
    """The last LBFGS_MEMORY curvature pairs (s, y) of a search, with the
    parts of the compact form that change only as pairs come and go.

    The k pairs sit oldest first in rows [o, o + k) of S and Y, which hold
    2 * LBFGS_MEMORY rows. Alongside are D, the products s_i'y_i, and the
    inverse of R, the upper triangle of S Y', in the block [o, o + k) of
    ``Rinv``. A new pair adds a row to S and Y and a column to R^-1: with
    r_i = s_i'y, -R^-1 r / (s'y) above the new diagonal entry 1 / (s'y).
    When the memory is full the oldest pair leaves by o += 1, since the
    trailing block of the inverse of an upper-triangular matrix is the
    inverse of its trailing block. Only when the window reaches the last
    row is it moved to the front, once per LBFGS_MEMORY pairs. ``gamma``,
    the scale s'y / y'y of the initial matrix, is that of the latest pair.
    """

    def __init__(self, n: int):
        rows = 2 * LBFGS_MEMORY
        self.S = np.zeros((rows, n))
        self.Y = np.zeros((rows, n))
        self.D = np.zeros((rows, 1))
        self.Rinv = np.zeros((rows, rows))
        self.eye = np.eye(n)
        self.o = 0
        self.k = 0
        self.gamma = 1.0

    def clear(self) -> None:
        self.o = self.k = 0

    def add(self, s, y, sy: float) -> None:
        """Keep the pair (s, y), whose curvature s'y is ``sy`` > 0."""
        S, Y, D, Rinv = self.S, self.Y, self.D, self.Rinv
        o, k = self.o, self.k
        if k == LBFGS_MEMORY:
            o, k = o + 1, k - 1
        e = o + k
        if e == len(S):
            S[:k], Y[:k], D[:k] = S[o:], Y[o:], D[o:]
            Rinv[:k, :k] = Rinv[o:, o:]
            o, e = 0, k
        if k:
            Rinv[o:e, e] = Rinv[o:e, o:e].dot(S[o:e].dot(y)) * (-1.0 / sy)
        Rinv[e, e] = 1.0 / sy
        S[e], Y[e], D[e] = s, y, sy
        self.o, self.k = o, k + 1
        self.gamma = sy / float(y.dot(y))


def _inverse_hessian(memory: _CurvatureMemory):
    """The L-BFGS inverse-Hessian estimate of the pairs in ``memory``.

    The compact form of Byrd, Nocedal & Schnabel (Math. Prog. 63, 129,
    1994) with initial matrix gamma * I, made dense: with P = R^-1 S,
    H = gamma I + P' (D + gamma Y Y') P - gamma (P' Y + Y' P), formed as
    gamma M'M + P' D P with M = Y' P - I.
    """
    o = memory.o
    e = o + memory.k
    P = memory.Rinv[o:e, o:e].dot(memory.S[o:e])
    M = memory.Y[o:e].T.dot(P)
    M -= memory.eye
    H = M.T.dot(M)
    H *= memory.gamma
    H += P.T.dot(memory.D[o:e] * P)
    return H


def _breakpoints(x, g, lower, upper) -> list:
    """For each coordinate, the t at which the path x - t g reaches its
    bound; ``lower`` and ``upper`` are sequences of floats."""
    return [(xi - ui) / gi if gi < 0.0 else (xi - li) / gi if gi > 0.0 else math.inf
            for xi, gi, li, ui in zip(x.tolist(), g.tolist(), lower, upper)]


def _cauchy_point(x, g, t, B, lower, upper):
    """The first local minimizer of the model g'z + z'Bz/2 along the
    projected steepest-descent path P(x - t g), with breakpoints ``t``, and
    the coordinates the path has pinned to a bound; None for the point
    when the projected gradient vanishes."""
    pinned = [i for i, ti in enumerate(t) if ti <= 0.0]
    d = -g
    for i in pinned:
        d[i] = 0.0
    if not any(d.tolist()):
        return None, pinned
    # the step to the model's minimum along d from x, and, once a
    # coordinate has reached its bound, from the point z the path has got to
    bd = B.dot(d)
    f2 = float(d.dot(bd))
    dtm = -float(g.dot(d)) / f2 if f2 > 0.0 else 0.0
    z = None
    t_old = 0.0
    for ti, i in sorted([(ti, i) for i, ti in enumerate(t) if 0.0 < ti < math.inf]):
        if dtm < ti - t_old:
            break
        # coordinate i reaches its bound before the model stops falling
        if z is None:
            z = (ti - t_old) * d
        else:
            z += (ti - t_old) * d
        z[i] = (upper[i] if d[i] > 0.0 else lower[i]) - x[i]
        d[i] = 0.0
        pinned.append(i)
        t_old = ti
        bd = B.dot(d)
        f2 = float(d.dot(bd))
        dtm = -float(g.dot(d) + z.dot(bd)) / f2 if f2 > 0.0 else 0.0
    xc = x + max(dtm, 0.0) * d if z is None else x + z + max(dtm, 0.0) * d
    for i in pinned:
        xc[i] = upper[i] if g[i] < 0.0 else lower[i]
    return xc, pinned


def _model_target(x, g, H, lower, upper, bounds=None):
    """The point an iteration searches toward, for inverse Hessian H, with
    the step p = target - x and its slope p'g; None when the projected
    gradient vanishes.

    The target is the model's minimizer over the coordinates that the
    generalized Cauchy point leaves free, projected onto the box, or, when
    the projection is no descent direction, the longest feasible fraction
    of the step from the Cauchy point.

    B = H^-1 is formed, and the Cauchy point found, only when a bound
    cannot rule out that the Cauchy point pins a coordinate. Along -g the
    model is least at the step g'g / g'Bg, which by Cauchy-Schwarz is at
    most g'Hg / g'g for positive definite H. When nothing starts pinned and
    that bound lies below the first breakpoint, the Cauchy point pins
    nothing and the target is x - Hg, as the full route would find it; if
    its projection is a descent direction it is returned from here.
    ``bounds``, when given, is ``(lower.tolist(), upper.tolist())``.
    """
    lo, up = bounds or (lower.tolist(), upper.tolist())
    t = _breakpoints(x, g, lo, up)
    hg = H.dot(g)
    t_min = min(t, default=math.inf)
    gg = float(g.dot(g))
    ghg = float(g.dot(hg))
    # false when a coordinate starts pinned (t_min <= 0) or g vanishes
    if 0.0 < ghg < t_min * gg * _PIN_BOUND_MARGIN:
        projected = np.minimum(np.maximum(x - hg, lower), upper)
        p = projected - x
        slope = float(p.dot(g))
        if slope <= 0.0:
            return projected, p, slope
    B = np.linalg.inv(H)
    xc, pinned = _cauchy_point(x, g, t, B, lo, up)
    if xc is None:
        return None
    if not pinned:
        target = x - hg
    elif len(pinned) < len(x):
        free = np.array([i for i in range(len(x)) if i not in pinned])
        target = xc.copy()
        target[free] += np.linalg.solve(B[free[:, None], free], -(g + B.dot(xc - x))[free])
    else:
        target = xc
    projected = np.minimum(np.maximum(target, lower), upper)
    p = projected - x
    slope = float(p.dot(g))
    if slope <= 0.0:
        return projected, p, slope
    du = target - xc
    target = xc + min(1.0, _max_step(xc, du, lo, up)) * du
    p = target - x
    return target, p, float(p.dot(g))


def minimize(fun, x0, lower, upper, *, scale, xtol, ftol, maxfev) -> SearchResult:
    """Minimize ``fun`` over the box lower <= x <= upper (L-BFGS-B).

    ``fun`` takes a list of floats and returns the value and its gradient.
    The limited-memory BFGS search of Byrd, Lu, Nocedal & Zhu (SIAM J. Sci.
    Comput. 16, 1190, 1995), with the model Hessian B made dense. Each
    iteration

    - finds the generalized Cauchy point: the first minimizer of the
      quadratic model along the projected steepest-descent path;
    - minimizes the model over the coordinates that path left free, and
      projects that point onto the box (or, when the projection is no
      descent direction, takes the longest feasible fraction of the step);
    - searches toward it for the Wolfe conditions (More-Thuente), up to the
      unit step in the first iteration and, after that, up to the box and
      up to STEP_GROWTH times the largest coordinate move of the previous
      step (or ``scale``, if that is larger);
    - keeps the last LBFGS_MEMORY steps with positive curvature, and scales
      the initial matrix by the curvature of the latest.

    The kept pairs live in a ``_CurvatureMemory`` that holds, besides the
    pairs, the diagonal D and the inverse of the triangle R of the compact
    form, kept up to date rather than rebuilt: an accepted pair appends one
    column to R^-1, the oldest pair leaves by sliding the memory's window
    one row on, and a reset empties the memory. H comes from it in four
    matrix products, with no system solved. B = H^-1 is formed only when a
    Cauchy-Schwarz bound cannot rule out that the Cauchy point pins a
    coordinate (most iterations it can, and the step is x - Hg); then B
    serves the Cauchy point and the subspace step.

    B starts as the identity over ``scale**2``: the first step is steepest
    descent in the coordinates (x - x0) / scale, of the size of ``scale``
    where the slope in those coordinates is of order 1. The growth cap is
    the one departure from L-BFGS-B. Without it, a start near a small
    feature can leap across the box on its first curvature estimate and end
    on a face of the box; with it, the steps grow from the start's scale by
    at most STEP_GROWTH per iteration, as a simplex search expands. When a
    line search fails or H, where B is formed, comes out numerically
    singular, the memory is cleared and the iteration retried.

    Stops with status 0 when a step lowers f by at most
    ``ftol * max(|f_old|, |f_new|, 1)`` or moves no coordinate by more
    than ``xtol``, or when the projected gradient vanishes; with status 1
    when ``maxfev`` value-and-gradient calls are spent; with status 2 when
    the line search finds no decrease from a cleared memory.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    bounds = lower.tolist(), upper.tolist()
    x = np.minimum(np.maximum(np.asarray(x0, dtype=float), lower), upper)
    n = len(x)
    nfev = 0

    def evaluate(z):
        nonlocal nfev
        nfev += 1
        value, grad = fun(z.tolist())
        return value, np.array(grad, dtype=float)

    f, g = evaluate(x)
    memory = _CurvatureMemory(n)
    H0 = np.eye(n) * (scale * scale)
    reach = scale
    nit = 0
    status = 1 if nfev >= maxfev else None
    while status is None:
        # pairs of very different curvature can leave H numerically
        # singular; then there is no step, and the memory is cleared as
        # after a failed line search
        try:
            H = _inverse_hessian(memory) if memory.k else H0
            step = _model_target(x, g, H, lower, upper, bounds)
        except np.linalg.LinAlgError:
            step = x, None, 0.0  # a zero slope takes no step
        if step is None:
            status = 0
            break
        # a target that is not finite gives no finite slope, and no step
        target, p, slope = step

        def phi(t):
            z = target if t == 1.0 else np.minimum(np.maximum(x + t * p, lower), upper)
            fz, gz = evaluate(z)
            return fz, float(gz.dot(p)), (z, gz)

        found = None
        if -math.inf < slope < 0.0:
            stpmax = 1.0
            if nit:
                stpmax = min(_max_step(x, p, *bounds),
                             STEP_GROWTH * reach / max(map(abs, p.tolist())))
            stp, trials = min(1.0, stpmax), min(LS_MAX_TRIALS, maxfev - nfev)
            # the line search's first trial and its acceptance test, inline:
            # most searches stop there
            first = phi(stp)
            gtest = LS_FTOL * slope
            if first[0] <= f + stp * gtest and (
                    abs(first[1]) <= LS_GTOL * -slope or (stp == stpmax and first[1] <= gtest)):
                found = stp, first[0], first[2]
            else:
                found = _line_search(phi, f, slope, stp, stpmax, trials, first)
        if found is None:
            if nfev >= maxfev:
                status = 1
            elif not memory.k:
                status = 2
            else:
                memory.clear()
            continue
        t, f_new, (x_new, g_new) = found
        nit += 1
        s, y = x_new - x, g_new - g
        sy = float(s.dot(y))
        move = max(map(abs, s.tolist()))
        settled = f - f_new <= ftol * max(abs(f), abs(f_new), 1.0) or move <= xtol
        if sy > _EPS * -slope * t:
            memory.add(s, y, sy)
        reach = max(move, scale)
        x, f, g = x_new, f_new, g_new
        if settled:
            status = 0
        elif nfev >= maxfev:
            status = 1
    return SearchResult(
        x=x,
        fun=f,
        nit=nit,
        nfev=nfev,
        status=status,
        success=status == 0,
        message=_SEARCH_MESSAGES[status],
    )


def _max_step(x, d, lower, upper) -> float:
    """The largest t with x + t d inside the box (inf when d is 0);
    ``lower`` and ``upper`` are sequences of floats."""
    return min([(u - xi) / di if di > 0.0 else (l - xi) / di if di < 0.0 else math.inf
                for xi, di, l, u in zip(x.tolist(), d.tolist(), lower, upper)],
               default=math.inf)


# ---------------------------------------------------------------------------
# maximization
# ---------------------------------------------------------------------------


def _check_box(box) -> None:
    """Raise InvalidParameter unless the box half-width is a finite number > 0."""
    # True == 1.0 would pass as a box of width 1
    if isinstance(box, bool) or not (box > 0.0 and math.isfinite(box)):
        raise InvalidParameter(f"box must be a positive number, got {box!r}")


@dataclass(frozen=True)
class MaximizeConfig:
    """Search configuration for the Bell maximizer.

    box bounds |Re| and |Im| of every setting; starts is the number of
    independent bounded searches. Each search stops (converged) when one
    step raises B by at most ``FTOL`` times max(B, 1) or moves no setting
    coordinate by more than ``XTOL``, and gives up (not converged) after
    ``max_iters`` value-and-gradient calls. nmax and tail_eps only matter
    when the state has no closed-form portrait and the truncated path is
    used.
    """

    box: float = DEFAULT_BOX
    starts: int = 64
    seed: int = 0
    max_iters: int = 2000
    nmax: int = DEFAULT_NMAX
    tail_eps: float = DEFAULT_TAIL_EPS

    def __post_init__(self):
        _check_box(self.box)
        _integer(self.starts, "starts", 1)
        _integer(self.max_iters, "max_iters", 1)
        _integer(self.seed, "seed")
        _integer(self.nmax, "nmax", 1)
        if not self.tail_eps > 0.0:
            raise InvalidParameter(f"tail_eps must be positive, got {self.tail_eps}")


@dataclass(frozen=True)
class MaximizeResult:
    """Outcome of a multi-start search: a lower bound on the true maximum.

    The per-start lists hold one entry per start. ``per_start_nfev``
    counts the value-and-gradient calls of a start's search, and
    ``evaluations`` counts them over all starts, those of failed starts
    included.
    ``per_start_converged`` is False when the search spent its
    ``max_iters`` calls, or when its line search found no decrease from a
    fresh Hessian estimate before the convergence test passed. Both are
    None for a start that raised, whose message is in
    ``per_start_error``.
    """

    f: float
    argmax: BellSettings
    verdict: ChshVerdict
    evaluations: int
    per_start_best: List[float]
    per_start_error: List[Optional[str]]
    per_start_nfev: List[Optional[int]]
    per_start_converged: List[Optional[bool]]


# numpy's default generator (SeedSequence seeding PCG64), written out for
# the eight draws a start needs: importing numpy.random costs every process
# 11-12 ms (it pulls in secrets, hmac and _hashlib), against about 30 us
# per start here
_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_sequence_state(entropy: List[int]) -> List[int]:
    """``SeedSequence(entropy).generate_state(4, uint64)``, for ints >= 0."""
    words = []
    for n in entropy:
        # each int contributes its 32-bit words, least significant first
        words.append(n & _MASK32)
        n >>= 32
        while n:
            words.append(n & _MASK32)
            n >>= 32
    hash_const = 0x43B0D7E5

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * 0x931E8875) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> 16)

    def mix(x, y):
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return r ^ (r >> 16)

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(w))
    hash_const = 0x8B51F9DD
    out = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = (hash_const * 0x58F38DED) & _MASK32
        value = (value * hash_const) & _MASK32
        out.append(value ^ (value >> 16))
    return [out[i] | (out[i + 1] << 32) for i in range(0, 8, 2)]


def _uniform(entropy: List[int], low: float, high: float, n: int) -> List[float]:
    """``np.random.default_rng(entropy).uniform(low, high, n)``, bit for bit."""
    s0, s1, s2, s3 = _seed_sequence_state(entropy)
    inc = (((s2 << 64) | s3) << 1 | 1) & _MASK128
    state = (((inc + (s0 << 64 | s1)) & _MASK128) * _PCG64_MULT + inc) & _MASK128
    width = high - low
    out = []
    for _ in range(n):
        state = (state * _PCG64_MULT + inc) & _MASK128
        # XSL-RR output: xor the halves, rotate right by the top 6 bits
        x = ((state >> 64) ^ state) & _MASK64
        r = state >> 122
        u = ((x >> r) | (x << (64 - r))) & _MASK64
        out.append(low + width * ((u >> 11) * 2.0**-53))
    return out


def _start_point(seed: int, index: int, box: float) -> tuple:
    """Deterministic start point and search scale for one start index.

    Each index draws from its own generator seeded by (seed, index), so
    enlarging ``starts`` keeps every earlier start identical (the best-f
    found is monotone in the number of starts under a fixed seed). The
    point is ``np.random.default_rng([seed, index]).uniform(-scale, scale,
    8)``.
    """
    scale = box * START_SCALES[index % len(START_SCALES)]
    x0 = np.array(_uniform([seed, index], -scale, scale, 8))
    return x0, scale


def _clipped(x, box: float) -> list:
    """The coordinates clipped into the box (``x`` itself where it lies
    inside); NaN raises InvalidParameter."""
    lo_box = -box
    # the search's own points lie in the box and pass as they are; else
    # in-box values pass the comparison untouched, which costs a quarter of
    # min/max on all 8. NaN fails it and stays NaN under min/max, as under
    # np.clip, and min and max skip it unless it comes first
    if lo_box <= min(x) and max(x) <= box:
        c = x
    else:
        c = [v if lo_box <= v <= box else min(max(v, lo_box), box) for v in x]
    if math.isnan(math.fsum(c)):
        BellSettings.from_vector(c)  # raises InvalidParameter naming the setting
    return c


def _closed_form_objective(portrait_fn: ClosedFormPortrait, box: float):
    """-B and its gradient at 8 setting coordinates, for a closed form: the
    function ``minimize`` descends.

    Takes the coordinates in ``BellSettings.as_vector`` order. B is
    bell_number(bell_matrix(portrait_fn, BellSettings.from_vector(
    np.clip(x, -box, box)))) up to the order of the last sums, with the
    same checks and errors: the coordinates are clipped into the box, every
    column passes the portrait checks, B = |E0 + E1 + E2 - E3| from the
    column correlations E = w++ - w+- - w-+ + w--, and B is recorded in the
    high-water mark.
    The gradient is the exact derivative of the closed form at the clipped
    point (``ClosedFormPortrait.bell_columns_grad``); on the box edge it is
    the derivative from inside. No settings object or array is built.
    """
    columns_grad = portrait_fn.bell_columns_grad

    def negative_b(x):
        global _bell_high_water
        columns, grads = columns_grad(_clipped(x, box))
        (a0, a1, a2, a3, _), (b0, b1, b2, b3, _), (c0, c1, c2, c3, _), (d0, d1, d2, d3, _) = columns
        chsh = (a0 - a1 - a2 + a3) + (b0 - b1 - b2 + b3) + (c0 - c1 - c2 + c3) - (d0 - d1 - d2 + d3)
        b = abs(chsh)
        if b > _bell_high_water:
            _bell_high_water = b
        # -B = -|chsh|, so its gradient is chsh's times -1 where chsh >= 0
        sign = -1.0 if chsh >= 0.0 else 1.0
        (g0, g1, g2, g3), (h0, h1, h2, h3), (i0, i1, i2, i3), (j0, j1, j2, j3) = grads
        return -b, [sign * (g0 + h0), sign * (g1 + h1), sign * (i0 - j0), sign * (i1 - j1),
                    sign * (g2 + i2), sign * (g3 + i3), sign * (h2 - j2), sign * (h3 - j3)]

    return negative_b


# forward-difference step, relative to max(1, |coordinate|)
FD_STEP = math.sqrt(_EPS)


def _difference_objective(portrait_fn, box: float):
    """-B through ``bell_matrix`` and ``bell_number``, with a
    forward-difference gradient: 9 Bell numbers per call.

    Each coordinate steps by FD_STEP * max(1, |x_i|) toward the inside of
    the box, so no probe leaves it. A probe moves one setting, which enters
    two of the four Bell-matrix columns; the other two are the base point's
    portraits, kept for the call, so a call computes 20 portraits, not 36.
    """

    def negative_b(x):
        c = _clipped(x, box)
        portraits = {}

        def portrait(u, v):
            w = portraits.get((u, v))
            if w is None:
                w = portraits[(u, v)] = portrait_fn(u, v)
            return w

        def value(c):
            return bell_number(bell_matrix(portrait, BellSettings.from_vector(c)))

        b = value(c)
        grad = []
        for i, ci in enumerate(c):
            h = FD_STEP * max(1.0, abs(ci))
            probe = list(c)
            probe[i] = ci + h if ci + h <= box else ci - h
            grad.append(-(value(probe) - b) / (probe[i] - ci))
        return -b, grad

    return negative_b


def maximize_bell(src, p: PartitionScheme, cfg: MaximizeConfig = MaximizeConfig()) -> MaximizeResult:
    """Maximize the Bell number over displacement settings inside the box.

    Runs ``cfg.starts`` bounded quasi-Newton searches (``minimize``) on -B
    from deterministic start points, each starting at the scale its start
    point was drawn at. Closed-form portraits give B and its exact
    gradient through a fused objective that builds no intermediate
    objects; every other portrait function goes through ``bell_matrix``
    and ``bell_number`` with a forward-difference gradient. Individual
    starts that hit portrait errors (truncation tail, negative cells) are
    recorded and skipped; the search fails only when every start failed.
    The result is a lower bound on the true maximum; ties between starts
    resolve to the lowest start index, so the outcome is reproducible
    regardless of evaluation order.
    """
    portrait_fn = make_portrait_fn(src, p, nmax=cfg.nmax, tail_eps=cfg.tail_eps)
    box = float(cfg.box)
    if isinstance(portrait_fn, ClosedFormPortrait):
        negative_b = _closed_form_objective(portrait_fn, box)
    else:
        negative_b = _difference_objective(portrait_fn, box)
    eval_count = 0

    def counted(x):
        nonlocal eval_count
        eval_count += 1
        return negative_b(x)

    lower, upper = np.full(8, -box), np.full(8, box)
    best_f = -1.0
    best_x: Optional[np.ndarray] = None
    per_start_best: List[float] = []
    per_start_error: List[Optional[str]] = []
    per_start_nfev: List[Optional[int]] = []
    per_start_converged: List[Optional[bool]] = []
    last_error: Optional[TomobellError] = None

    for i in range(cfg.starts):
        x0, scale = _start_point(cfg.seed, i, box)
        try:
            res = minimize(counted, x0, lower, upper, scale=scale / 2.0,
                           xtol=XTOL, ftol=FTOL, maxfev=cfg.max_iters)
        except (InvalidParameter, UnsupportedState):
            raise
        except TomobellError as exc:
            per_start_best.append(math.nan)
            per_start_error.append(f"{type(exc).__name__}: {exc}")
            per_start_nfev.append(None)
            per_start_converged.append(None)
            last_error = exc
            continue
        # the objective clips its argument into the box, so -res.fun is B
        # at the clipped end point; rounding can leave res.x an ulp outside
        f = -res.fun
        per_start_best.append(f)
        per_start_error.append(None)
        per_start_nfev.append(res.nfev)
        per_start_converged.append(res.success)
        # strict improvement beyond rounding noise; exact ties and
        # float-dust differences keep the earlier start's answer
        if f > best_f + 1e-12:
            best_f = f
            best_x = np.clip(res.x, lower, upper)

    if best_x is None:
        assert last_error is not None
        raise last_error

    settings = BellSettings.from_vector(best_x)
    # recompute at the reported argmax so result.f is exactly what a
    # caller re-evaluating the settings will see
    final_f = bell_number(bell_matrix(portrait_fn, settings))
    return MaximizeResult(
        f=final_f,
        argmax=settings,
        verdict=chsh_check(final_f),
        evaluations=eval_count,
        per_start_best=per_start_best,
        per_start_error=per_start_error,
        per_start_nfev=per_start_nfev,
        per_start_converged=per_start_converged,
    )
