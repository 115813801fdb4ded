"""Bell-CHSH entanglement witness over two-qubit portraits.

The Bell matrix collects portrait vectors at the four combinations of two
displacement settings per mode. Contracting it against a fixed sign matrix
gives the CHSH combination of the four correlations; values above 2
witness entanglement, and no quantum state can exceed 2*sqrt(2) (the
Tsirelson bound). The maximizer searches the 8 real setting coordinates
for the largest witness value a state offers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np
from scipy.optimize import minimize

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
    for col in columns:
        if min(col[:4]) < -ENTRY_TOL or max(col[:4]) > 1.0 + ENTRY_TOL:
            raise InvalidStochasticMatrix("Bell matrix entries must lie in [0, 1]")
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
    """Outcome of a multi-start search: a lower bound on the true maximum."""

    f: float
    argmax: BellSettings
    verdict: ChshVerdict
    evaluations: int
    per_start_best: List[float]
    per_start_error: List[Optional[str]]


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


def maximize_bell(src, p: PartitionScheme, cfg: MaximizeConfig = MaximizeConfig()) -> MaximizeResult:
    """Maximize the Bell number over displacement settings inside the box.

    Runs ``cfg.starts`` Nelder-Mead descents on -B from deterministic
    start points, projecting every proposal back into the box. Individual
    starts that hit portrait errors (truncation tail, negative cells) are
    recorded and skipped; the search fails only when every start failed.
    The result is a lower bound on the true maximum; ties between starts
    resolve to the lowest start index, so the outcome is reproducible
    regardless of evaluation order.
    """
    portrait_fn = make_portrait_fn(src, p, nmax=cfg.nmax, tail_eps=cfg.tail_eps)
    box = float(cfg.box)
    eval_count = 0

    def objective_value(x: np.ndarray) -> float:
        nonlocal eval_count
        eval_count += 1
        s = BellSettings.from_vector(np.clip(x, -box, box))
        return bell_number(bell_matrix(portrait_fn, s))

    best_f = -1.0
    best_x: Optional[np.ndarray] = None
    per_start_best: List[float] = []
    per_start_error: List[Optional[str]] = []
    last_error: Optional[TomobellError] = None

    for i in range(cfg.starts):
        x0, scale = _start_point(cfg.seed, i, box)
        simplex = np.vstack([x0, x0 + (scale / 2.0) * np.eye(8)])
        try:
            res = minimize(
                lambda x: -objective_value(x),
                x0,
                method="Nelder-Mead",
                options=dict(
                    initial_simplex=simplex,
                    fatol=cfg.ftol,
                    xatol=cfg.xtol,
                    maxiter=cfg.max_iters,
                    maxfev=cfg.max_iters,
                ),
            )
            x = np.clip(res.x, -box, box)
            f = objective_value(x)
        except (InvalidParameter, UnsupportedState):
            raise
        except TomobellError as exc:
            per_start_best.append(math.nan)
            per_start_error.append(f"{type(exc).__name__}: {exc}")
            last_error = exc
            continue
        per_start_best.append(f)
        per_start_error.append(None)
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
    )
