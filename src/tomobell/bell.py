"""Bell-CHSH entanglement witness over two-qubit portraits.

The Bell matrix collects portrait vectors at the four combinations of two
displacement settings per mode. Contracting it against a fixed sign matrix
gives the CHSH combination of the four correlations; values above 2
witness entanglement, and no quantum state can exceed 2*sqrt(2) (the
Tsirelson bound). The maximizer searches the 8 real setting coordinates
for the largest witness value a state offers, with a Nelder-Mead simplex
search (a port of scipy's, so scipy is not needed at run time).
"""

from __future__ import annotations

import math
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
# Bell matrix entries may undershoot 0 or overshoot 1 by at most this
ENTRY_TOL = 1e-9
_ENTRY_LOW, _ENTRY_HIGH = -ENTRY_TOL, 1.0 + ENTRY_TOL
# column mass must balance against the recorded tail deficit to within this;
# the same bound as a portrait's, so a checked portrait is a balanced column
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


def _record_bell(b: float) -> None:
    global _bell_high_water
    if b > _bell_high_water:
        _bell_high_water = b


@dataclass(frozen=True)
class BellSettings:
    """Two displacement settings per mode."""

    alpha1: complex
    alpha2: complex
    beta1: complex
    beta2: complex

    def __post_init__(self):
        for name in ("alpha1", "alpha2", "beta1", "beta2"):
            v = complex(getattr(self, name))
            if not (math.isfinite(v.real) and math.isfinite(v.imag)):
                raise InvalidParameter(f"{name} must be finite, got {v}")

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


@dataclass(frozen=True)
class BellMatrix:
    """4x4 matrix whose columns are portraits at the four setting pairs.

    Columns may individually miss probability mass when built from
    truncated portraits; each column's tail deficit is kept alongside so
    the stochasticity check can balance the books instead of silently
    passing biased columns.
    """

    matrix: np.ndarray
    column_deficits: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        d = np.asarray(self.column_deficits, dtype=float)
        if m.shape != (4, 4) or d.shape != (4,):
            raise InvalidStochasticMatrix(
                f"Bell matrix must be 4x4 with 4 deficits, got {m.shape}, {d.shape}"
            )
        if np.any(m < -ENTRY_TOL) or np.any(m > 1.0 + ENTRY_TOL):
            raise InvalidStochasticMatrix("Bell matrix entries must lie in [0, 1]")
        imbalance = np.abs(m.sum(axis=0) + d - 1.0)
        if np.any(imbalance > COLUMN_TOL):
            raise InvalidStochasticMatrix(
                f"Bell matrix columns must sum to 1 minus their deficit "
                f"(worst imbalance {float(imbalance.max()):.3e})"
            )
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "column_deficits", d)


def _check_entry_range(columns) -> None:
    """Raise unless every cell of each (w++, w+-, w-+, w--, deficit) column
    lies in [0, 1] up to ENTRY_TOL."""
    for w_pp, w_pm, w_mp, w_mm, _ in columns:
        if min(w_pp, w_pm, w_mp, w_mm) < _ENTRY_LOW or max(w_pp, w_pm, w_mp, w_mm) > _ENTRY_HIGH:
            raise InvalidStochasticMatrix("Bell matrix entries must lie in [0, 1]")


def bell_matrix(
    portrait_fn: Callable[[complex, complex], PortraitVector], s: BellSettings
) -> BellMatrix:
    """Assemble the Bell matrix from the portraits at the four setting pairs.

    Column order is (a1,a2), (a1,b2), (b1,a2), (b1,b2). A portrait function
    with a ``bell_columns`` method (the closed forms of
    ``make_portrait_fn``) evaluates all four columns in one call and has
    already checked each column as a portrait; only the entry range is
    checked here. Any other callable is called once per column. Portrait
    errors (truncation tail too large, negative cells) propagate to the
    caller.
    """
    bell_columns = getattr(portrait_fn, "bell_columns", None)
    if bell_columns is None:
        cols = []
        deficits = []
        for (x, y) in s.pairs():
            v = portrait_fn(x, y)
            cols.append(v.as_array())
            deficits.append(v.tail_deficit)
        return BellMatrix(np.column_stack(cols), np.array(deficits))
    columns = bell_columns(s)
    _check_entry_range(columns)
    # one row per column: the four cells, then the tail deficit
    rows = np.array(columns)
    m = object.__new__(BellMatrix)
    vars(m).update(matrix=np.ascontiguousarray(rows[:, :4].T), column_deficits=rows[:, 4])
    return m


def bell_number(m) -> float:
    """The CHSH combination B = |trace(M I)|.

    The trace contraction pairs column j of M with row j of the sign
    matrix, which makes each column contribute its +-1 correlation with
    the CHSH signs (+, +, +, -). Contracting entrywise against the sign
    matrix instead would pair each column with a sign COLUMN; the sign
    matrix is not symmetric, so the two conventions differ, and only the
    trace form reproduces the worked squeezed-state value near 2.26. A
    regression test pins that choice.
    """
    mat = m.matrix if isinstance(m, BellMatrix) else np.asarray(m, dtype=float)
    if mat.shape != (4, 4):
        raise InvalidParameter(f"need a 4x4 Bell matrix, got shape {mat.shape}")
    b = float(abs(np.trace(mat @ I_MATRIX)))
    _record_bell(b)
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
# Nelder-Mead
# ---------------------------------------------------------------------------

# reflection, expansion, contraction and shrink coefficients of the
# standard (non-adaptive) method
RHO, CHI, PSI, SIGMA = 1.0, 2.0, 0.5, 0.5

_SIMPLEX_MESSAGES = (
    "Optimization terminated successfully.",
    "Maximum number of function evaluations has been exceeded.",
    "Maximum number of iterations has been exceeded.",
)


class _OutOfEvaluations(Exception):
    """The evaluation budget ran out in the middle of an iteration."""


@dataclass(frozen=True)
class SimplexResult:
    """Outcome of one Nelder-Mead descent, under scipy's field names.

    ``status`` is 0 on convergence, 1 when ``maxfev`` evaluations were
    spent and 2 when ``maxiter`` iterations were; ``success`` is
    ``status == 0``.
    """

    x: np.ndarray
    fun: float
    nit: int
    nfev: int
    status: int
    success: bool
    message: str


def _sorted_simplex(sim, fsim):
    """The vertices and their values, in the order np.argsort gives fsim.

    scipy orders the simplex with np.argsort; calling it on the same
    values, the same number of times, breaks ties (and places NaN) as
    scipy does, whatever sort kernel numpy picks for the platform.
    """
    order = np.argsort(np.array(fsim)).tolist()
    return [sim[i] for i in order], [fsim[i] for i in order]


def _centroid(rows):
    """Mean of the rows, summed in row order as numpy sums along axis 0."""
    n = len(rows)
    out = []
    for column in zip(*rows):
        total = column[0]
        for v in column[1:]:
            total += v
        out.append(total / n)
    return out


def _affine(a, xbar, b, worst):
    """a * xbar + b * worst, entry by entry.

    scipy subtracts b * worst where b is negative here; x + (-y) and
    x - y round alike, so the result is the same to the bit.
    """
    return [a * c + b * w for c, w in zip(xbar, worst)]


def minimize(fun, simplex, *, xatol, fatol, maxiter, maxfev) -> SimplexResult:
    """Minimize ``fun`` by Nelder-Mead from an initial simplex of n + 1 vertices.

    A step-for-step port of scipy.optimize.minimize(method="Nelder-Mead")
    without bounds or adaptive coefficients: the same arithmetic in the
    same order, the same vertex order (ties broken by np.argsort) and the
    same stopping rules. The search stops when every vertex lies within
    ``xatol`` of the best in each coordinate and within ``fatol`` of it in
    value, after ``maxiter`` iterations, or when ``maxfev`` evaluations are
    spent, which may cut an iteration short (a shrink included); the
    simplex is re-sorted after every iteration, cut or not. So it returns
    scipy's x, fun, nit and nfev. ``fun`` receives each vertex as a list of
    floats.
    """
    sim = np.asarray(simplex, dtype=float).tolist()
    n = len(sim) - 1
    fsim = [math.inf] * (n + 1)
    nfev = 0

    def f(x):
        nonlocal nfev
        if nfev >= maxfev:
            raise _OutOfEvaluations
        nfev += 1
        return fun(x)

    try:
        for k in range(n + 1):
            fsim[k] = f(sim[k])
    except _OutOfEvaluations:
        pass
    # scipy sorts here twice (in a ``finally`` and once more), and below
    # once per iteration but not after the convergence break; the same
    # sequence of argsorts gives the same vertex order
    for _ in range(2):
        sim, fsim = _sorted_simplex(sim, fsim)

    nit = 1
    while nfev < maxfev and nit < maxiter:
        try:
            best, f_best = sim[0], fsim[0]
            # both spreads within tolerance; the cheaper value test first
            if all(abs(f_best - v) <= fatol for v in fsim[1:]) and all(
                abs(v - b) <= xatol for row in sim[1:] for v, b in zip(row, best)
            ):
                break
            xbar, worst = _centroid(sim[:-1]), sim[-1]
            xr = _affine(1.0 + RHO, xbar, -RHO, worst)
            fxr = f(xr)
            shrink = False
            if fxr < f_best:
                xe = _affine(1.0 + RHO * CHI, xbar, -RHO * CHI, worst)
                fxe = f(xe)
                if fxe < fxr:
                    sim[-1], fsim[-1] = xe, fxe
                else:
                    sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-1]:
                xc = _affine(1.0 + PSI * RHO, xbar, -PSI * RHO, worst)
                fxc = f(xc)
                if fxc <= fxr:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    shrink = True
            else:
                xcc = _affine(1.0 - PSI, xbar, PSI, worst)
                fxcc = f(xcc)
                if fxcc < fsim[-1]:
                    sim[-1], fsim[-1] = xcc, fxcc
                else:
                    shrink = True
            if shrink:
                for j in range(1, n + 1):
                    sim[j] = [b + SIGMA * (v - b) for b, v in zip(best, sim[j])]
                    fsim[j] = f(sim[j])
            nit += 1
        except _OutOfEvaluations:
            pass
        sim, fsim = _sorted_simplex(sim, fsim)

    if nfev >= maxfev:
        status = 1
    elif nit >= maxiter:
        status = 2
    else:
        status = 0
    return SimplexResult(
        x=np.array(sim[0]),
        fun=min(fsim),
        nit=nit,
        nfev=nfev,
        status=status,
        success=status == 0,
        message=_SIMPLEX_MESSAGES[status],
    )


# ---------------------------------------------------------------------------
# maximization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MaximizeConfig:
    """Search configuration for the Bell maximizer.

    box bounds |Re| and |Im| of every setting; starts is the number of
    independent simplex descents; nmax and tail_eps only matter when the
    state has no closed-form portrait and the truncated path is used.
    """

    box: float = 2.0
    starts: int = 64
    seed: int = 0
    max_iters: int = 2000
    xtol: float = 1e-10
    ftol: float = 1e-9
    nmax: int = DEFAULT_NMAX
    tail_eps: float = DEFAULT_TAIL_EPS

    def __post_init__(self):
        if not (self.box > 0.0 and math.isfinite(self.box)):
            raise InvalidParameter(f"box must be positive, got {self.box}")
        if self.starts < 1:
            raise InvalidParameter(f"starts must be >= 1, got {self.starts}")
        if self.max_iters < 1:
            raise InvalidParameter(f"max_iters must be >= 1, got {self.max_iters}")
        if not (self.xtol > 0.0 and self.ftol > 0.0):
            raise InvalidParameter("xtol and ftol must be positive")
        if self.nmax < 1:
            raise InvalidParameter(f"nmax must be >= 1, got {self.nmax}")
        if not self.tail_eps > 0.0:
            raise InvalidParameter(f"tail_eps must be positive, got {self.tail_eps}")


@dataclass(frozen=True)
class MaximizeResult:
    """Outcome of a multi-start search: a lower bound on the true maximum.

    The per-start lists hold one entry per start. ``per_start_nfev``
    counts the evaluations of a start's descent (its re-evaluation at the
    clipped end point not included), and ``per_start_converged`` is False
    when the descent stopped at the ``max_iters`` limit. Both are None for
    a start that raised, whose message is in ``per_start_error``.
    """

    f: float
    argmax: BellSettings
    verdict: ChshVerdict
    evaluations: int
    per_start_best: List[float]
    per_start_error: List[Optional[str]]
    per_start_nfev: List[Optional[int]]
    per_start_converged: List[Optional[bool]]


def _start_point(seed: int, index: int, box: float) -> tuple:
    """Deterministic start point and simplex scale for one start index.

    Each index draws from its own generator seeded by (seed, index), so
    enlarging ``starts`` keeps every earlier start identical (the best-f
    found is monotone in the number of starts under a fixed seed).
    """
    rng = np.random.default_rng([seed, index])
    scale = box * START_SCALES[index % len(START_SCALES)]
    x0 = rng.uniform(-scale, scale, 8)
    return x0, scale


def _closed_form_objective(portrait_fn: ClosedFormPortrait, box: float):
    """The Bell number at 8 setting coordinates, fused for a closed form.

    Takes the coordinates in ``BellSettings.as_vector`` order and gives
    bell_number(bell_matrix(portrait_fn, BellSettings.from_vector(
    np.clip(x, -box, box)))) up to the order of the last sums, with the
    same checks and errors: the coordinates are clipped into the box, every
    column passes the portrait checks and then the Bell-matrix entry range,
    B = |E0 + E1 + E2 - E3| from the column correlations
    E = w++ - w+- - w-+ + w--, and B is recorded in the high-water mark.
    No settings object or array is built.
    """
    mode1, mode2, column = portrait_fn.mode1, portrait_fn.mode2, portrait_fn.column
    lo_box = -box

    def bell_value(x) -> float:
        # in-box values pass the comparison untouched, which costs a
        # quarter of min/max on all 8; NaN fails it and stays NaN under
        # min/max, as under np.clip
        c = [v if lo_box <= v <= box else min(max(v, lo_box), box) for v in x]
        if math.isnan(math.fsum(c)):
            BellSettings.from_vector(c)  # raises InvalidParameter naming the setting
        a1, b1 = mode1(complex(c[0], c[1])), mode1(complex(c[2], c[3]))
        a2, b2 = mode2(complex(c[4], c[5])), mode2(complex(c[6], c[7]))
        columns = (column(a1, a2), column(a1, b2), column(b1, a2), column(b1, b2))
        _check_entry_range(columns)
        e = [w_pp - w_pm - w_mp + w_mm for w_pp, w_pm, w_mp, w_mm, _ in columns]
        b = abs(e[0] + e[1] + e[2] - e[3])
        _record_bell(b)
        return b

    return bell_value


def maximize_bell(src, p: PartitionScheme, cfg: MaximizeConfig = MaximizeConfig()) -> MaximizeResult:
    """Maximize the Bell number over displacement settings inside the box.

    Runs ``cfg.starts`` Nelder-Mead descents on -B from deterministic
    start points, projecting every proposal back into the box. Closed-form
    portraits are evaluated through a fused objective that builds no
    intermediate objects; every other portrait function goes through
    ``bell_matrix`` and ``bell_number``. Individual starts that hit
    portrait errors (truncation tail, negative cells) are recorded and
    skipped; the search fails only when every start failed. The result is
    a lower bound on the true maximum; ties between starts resolve to the
    lowest start index, so the outcome is reproducible regardless of
    evaluation order.
    """
    portrait_fn = make_portrait_fn(src, p, nmax=cfg.nmax, tail_eps=cfg.tail_eps)
    box = float(cfg.box)
    if isinstance(portrait_fn, ClosedFormPortrait):
        bell_value = _closed_form_objective(portrait_fn, box)
    else:
        def bell_value(x) -> float:
            s = BellSettings.from_vector(np.clip(x, -box, box))
            return bell_number(bell_matrix(portrait_fn, s))
    eval_count = 0

    def objective_value(x) -> float:
        nonlocal eval_count
        eval_count += 1
        return bell_value(x)

    best_f = -1.0
    best_x: Optional[np.ndarray] = None
    per_start_best: List[float] = []
    per_start_error: List[Optional[str]] = []
    per_start_nfev: List[Optional[int]] = []
    per_start_converged: List[Optional[bool]] = []
    last_error: Optional[TomobellError] = None

    for i in range(cfg.starts):
        x0, scale = _start_point(cfg.seed, i, box)
        simplex = np.vstack([x0, x0 + (scale / 2.0) * np.eye(8)])
        try:
            res = minimize(
                lambda x: -objective_value(x),
                simplex,
                xatol=cfg.xtol,
                fatol=cfg.ftol,
                maxiter=cfg.max_iters,
                maxfev=cfg.max_iters,
            )
            x = np.clip(res.x, -box, box)
            f = objective_value(x.tolist())
        except (InvalidParameter, UnsupportedState):
            raise
        except TomobellError as exc:
            per_start_best.append(math.nan)
            per_start_error.append(f"{type(exc).__name__}: {exc}")
            per_start_nfev.append(None)
            per_start_converged.append(None)
            last_error = exc
            continue
        per_start_best.append(f)
        per_start_error.append(None)
        per_start_nfev.append(res.nfev)
        per_start_converged.append(res.success)
        # strict improvement beyond rounding noise; exact ties and
        # float-dust differences keep the earlier start's answer
        if f > best_f + 1e-12:
            best_f = f
            best_x = x

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
