"""Command-line front end.

Subcommands evaluate single tomogram probabilities, portrait vectors,
and Bell matrices, run the Bell maximizer, and regenerate figure-style
datasets as CSV scans over state-family grids.

Exit codes: 0 success, 2 argument/configuration problems (including
malformed complex literals and state files), 3 numerical failures during
computation (truncation tail too large, negativity, a Bell number above
the Tsirelson bound).
Every error path prints a single line ``error[<Case>]: <message>`` to
stderr. Set TOMOBELL_LOG=debug (or info, warning) for diagnostics.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from .bell import (
    BellSettings,
    MaximizeConfig,
    MaximizeResult,
    bell_matrix,
    bell_number,
    chsh_check,
    maximize_bell,
)
from .errors import (
    InvalidParameter,
    NonPhysicalSpec,
    TomobellError,
    UnsupportedState,
)
from .portrait import (
    DEFAULT_NMAX,
    DEFAULT_TAIL_EPS,
    PartitionScheme,
    make_portrait_fn,
)
from .states import CatState, gaussian_purity_family, load_state, make_source

log = logging.getLogger("tomobell.cli")

# complex literal grammar: a, bi, a+bi, a-bi with decimal reals and no
# spaces; the imaginary unit follows its coefficient ("2i", never "i2")
_DECIMAL = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_RE_FULL = re.compile(rf"^([+-]?{_DECIMAL})([+-]{_DECIMAL})i$")
_RE_IMAG = re.compile(rf"^([+-]?{_DECIMAL})i$")
_RE_REAL = re.compile(rf"^([+-]?{_DECIMAL})$")


def parse_complex(text: str) -> complex:
    """Parse a strict complex literal such as ``1.5``, ``-2i``, ``0.3-0.7i``."""
    s = text.strip()
    m = _RE_FULL.match(s)
    if m:
        return complex(float(m.group(1)), float(m.group(2)))
    m = _RE_IMAG.match(s)
    if m:
        return complex(0.0, float(m.group(1)))
    m = _RE_REAL.match(s)
    if m:
        return complex(float(m.group(1)), 0.0)
    raise InvalidParameter(
        f"malformed complex literal {text!r} (expected forms: a, bi, a+bi, a-bi)"
    )


def format_complex(z: complex) -> str:
    """Render a complex number back into the literal grammar."""
    return f"{z.real:.12g}{z.imag:+.12g}i"


class _Parser(argparse.ArgumentParser):
    """argparse variant whose failures match the one-line error contract.

    Also widens the negative-number heuristic so literals like ``-0.12i``
    are read as option values instead of unknown flags.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(?:\d|\.\d)")

    def error(self, message):
        print(f"error[Usage]: {message}", file=sys.stderr)
        raise SystemExit(2)


# ---------------------------------------------------------------------------
# scan presets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScanPreset:
    """A named 2-parameter grid of states to maximize over."""

    name: str
    partition: str
    param1: Tuple[float, ...]
    param2: Tuple[float, ...]
    build: Callable[[float, float], object]

    def grid(self, param1=None, param2=None):
        p1 = self.param1 if param1 is None else tuple(param1)
        p2 = self.param2 if param2 is None else tuple(param2)
        return [(a, b) for a in p1 for b in p2]


def _build_cat(g1: float, g2: float) -> CatState:
    return CatState(complex(g1), complex(g2))


def _build_family(k: float, l: float):
    return gaussian_purity_family(k, l)


PRESETS = {
    "cat-zero-nonzero": ScanPreset(
        "cat-zero-nonzero", "zero-nonzero",
        (0.5, 1.0, 1.5), (0.5, 1.0, 1.5), _build_cat,
    ),
    "cat-even-odd": ScanPreset(
        "cat-even-odd", "even-odd",
        (0.0, 1.0), (0.0, 1.0), _build_cat,
    ),
    "gaussian-family": ScanPreset(
        "gaussian-family", "even-odd",
        (0.6, 0.8, 1.0), (0.0, 0.01, 0.04, 0.07), _build_family,
    ),
}


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def _add_state_arg(p):
    p.add_argument("--state", required=True, metavar="FILE",
                   help="JSON state description file")


def _add_partition_arg(p):
    p.add_argument("--partition", default="even-odd", metavar="NAME",
                   help="partition name: even-odd or zero-nonzero")


def _add_truncation_args(p):
    p.add_argument("--nmax", type=int, default=None, metavar="N",
                   help="photon-number cutoff for truncated portraits")
    p.add_argument("--tail-eps", type=float, default=None, metavar="EPS",
                   help="largest acceptable truncation tail deficit")
    p.add_argument("--method", choices=("auto", "closed", "truncated"),
                   default="auto",
                   help="portrait evaluation path (auto prefers closed "
                        "forms unless --nmax/--tail-eps are given)")


def _add_box_args(p):
    p.add_argument("--box", type=float, default=2.0, metavar="B",
                   help="bound on |Re| and |Im| of every setting")
    p.add_argument("--box-enforce", choices=("off", "strict"), default="off",
                   help="strict rejects supplied settings outside the box")


def build_parser() -> _Parser:
    parser = _Parser(prog="tomobell",
                     description="Photon-number tomograms, qubit portraits, "
                                 "and Bell-CHSH entanglement witnesses for "
                                 "two-mode light states.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tomogram", parents=[], help="print one tomogram probability")
    _add_state_arg(p)
    p.add_argument("--n1", type=int, required=True, help="photon count, mode 1")
    p.add_argument("--n2", type=int, required=True, help="photon count, mode 2")
    p.add_argument("--alpha1", required=True, help="mode-1 displacement (complex literal)")
    p.add_argument("--alpha2", required=True, help="mode-2 displacement (complex literal)")
    _add_box_args(p)
    p.set_defaults(func=cmd_tomogram)

    p = sub.add_parser("portrait", help="print a two-qubit portrait vector")
    _add_state_arg(p)
    _add_partition_arg(p)
    p.add_argument("--alpha1", required=True)
    p.add_argument("--alpha2", required=True)
    _add_truncation_args(p)
    _add_box_args(p)
    p.set_defaults(func=cmd_portrait)

    p = sub.add_parser("bell", help="print the Bell matrix, B, and verdict")
    _add_state_arg(p)
    _add_partition_arg(p)
    for name in ("--alpha1", "--alpha2", "--beta1", "--beta2"):
        p.add_argument(name, required=True)
    _add_truncation_args(p)
    _add_box_args(p)
    p.set_defaults(func=cmd_bell)

    p = sub.add_parser("maximize", help="maximize B over settings in the box")
    _add_state_arg(p)
    _add_partition_arg(p)
    p.add_argument("--box", type=float, default=2.0)
    p.add_argument("--starts", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-iters", type=int, default=2000)
    p.add_argument("--nmax", type=int, default=DEFAULT_NMAX)
    p.add_argument("--tail-eps", type=float, default=DEFAULT_TAIL_EPS)
    p.set_defaults(func=cmd_maximize)

    p = sub.add_parser("scan", help="run a preset grid of maximizations to CSV")
    p.add_argument("--preset", required=True, choices=sorted(PRESETS),
                   help="grid preset name")
    p.add_argument("--partition", default=None, metavar="NAME",
                   help="override the preset's partition")
    p.add_argument("--param1", default=None, metavar="V1,V2,...",
                   help="override the first parameter grid")
    p.add_argument("--param2", default=None, metavar="V1,V2,...",
                   help="override the second parameter grid")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="CSV output path (default: stdout)")
    p.add_argument("--jobs", type=int, default=1,
                   help="concurrent grid points")
    p.add_argument("--box", type=float, default=2.0)
    p.add_argument("--starts", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-iters", type=int, default=2000)
    p.add_argument("--nmax", type=int, default=DEFAULT_NMAX)
    p.add_argument("--tail-eps", type=float, default=DEFAULT_TAIL_EPS)
    p.set_defaults(func=cmd_scan)

    return parser


def _parse_settings(args, names) -> List[complex]:
    values = [parse_complex(getattr(args, n)) for n in names]
    if getattr(args, "box_enforce", "off") == "strict":
        box = float(getattr(args, "box", 2.0))
        for n, z in zip(names, values):
            if abs(z.real) > box or abs(z.imag) > box:
                raise InvalidParameter(
                    f"--{n} = {format_complex(z)} lies outside the box "
                    f"|Re|,|Im| <= {box:g} (strict box enforcement)"
                )
    return values


def _portrait_fn_for(args, src):
    """Resolve the portrait path from --method/--nmax/--tail-eps flags."""
    p = PartitionScheme.from_config(args.partition)
    nmax = DEFAULT_NMAX if args.nmax is None else args.nmax
    tail_eps = DEFAULT_TAIL_EPS if args.tail_eps is None else args.tail_eps
    method = args.method
    if method == "auto":
        explicit = args.nmax is not None or args.tail_eps is not None
        method = "truncated" if explicit else "closed"
    prefer_closed = method == "closed"
    fn = make_portrait_fn(src, p, nmax=nmax, tail_eps=tail_eps,
                          prefer_closed_form=prefer_closed)
    log.debug("portrait path: %s (nmax=%d, tail_eps=%g)", method, nmax, tail_eps)
    return fn


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_tomogram(args) -> int:
    src = make_source(load_state(args.state))
    a1, a2 = _parse_settings(args, ("alpha1", "alpha2"))
    if args.n1 < 0 or args.n2 < 0:
        raise InvalidParameter("photon counts must be >= 0")
    nmax = max(args.n1, args.n2)
    table = src.tomogram_table(a1, a2, nmax)
    print(f"{table[args.n1, args.n2]:.12f}")
    return 0


def cmd_portrait(args) -> int:
    src = make_source(load_state(args.state))
    a1, a2 = _parse_settings(args, ("alpha1", "alpha2"))
    v = _portrait_fn_for(args, src)(a1, a2)
    for name, value in (("w_pp", v.w_pp), ("w_pm", v.w_pm),
                        ("w_mp", v.w_mp), ("w_mm", v.w_mm)):
        print(f"{name} {value:.12f}")
    print(f"tail_deficit {v.tail_deficit:.12g}")
    return 0


def cmd_bell(args) -> int:
    src = make_source(load_state(args.state))
    a1, a2, b1, b2 = _parse_settings(args, ("alpha1", "alpha2", "beta1", "beta2"))
    s = BellSettings(a1, a2, b1, b2)
    m = bell_matrix(_portrait_fn_for(args, src), s)
    for row in m.matrix:
        print(" ".join(f"{x:.9f}" for x in row))
    print("column_tail_deficits " + " ".join(f"{d:.12g}" for d in m.column_deficits))
    b = bell_number(m)
    verdict = chsh_check(b)
    print(f"B {b:.12f}")
    print(f"verdict {verdict.verdict}")
    print(f"margin {verdict.margin:+.12f}")
    return 0


def _print_result(r: MaximizeResult) -> None:
    print(f"f {r.f:.12f}")
    print(f"alpha1 {format_complex(r.argmax.alpha1)}")
    print(f"alpha2 {format_complex(r.argmax.alpha2)}")
    print(f"beta1 {format_complex(r.argmax.beta1)}")
    print(f"beta2 {format_complex(r.argmax.beta2)}")
    print(f"verdict {r.verdict.verdict}")
    print(f"margin {r.verdict.margin:+.12f}")
    print(f"evaluations {r.evaluations}")
    failed = sum(1 for e in r.per_start_error if e is not None)
    print(f"starts {len(r.per_start_best)} failed {failed}")
    print(f"converged {sum(1 for c in r.per_start_converged if c)}")


def cmd_maximize(args) -> int:
    src = make_source(load_state(args.state))
    p = PartitionScheme.from_config(args.partition)
    cfg = MaximizeConfig(box=args.box, starts=args.starts, seed=args.seed,
                         max_iters=args.max_iters, nmax=args.nmax,
                         tail_eps=args.tail_eps)
    r = maximize_bell(src, p, cfg)
    _print_result(r)
    return 0


# --- scan ------------------------------------------------------------------

CSV_FIELDS = (
    "param1", "param2", "f",
    "argmax_alpha1_re", "argmax_alpha1_im",
    "argmax_alpha2_re", "argmax_alpha2_im",
    "argmax_beta1_re", "argmax_beta1_im",
    "argmax_beta2_re", "argmax_beta2_im",
    "verdict", "error",
)


def _parse_grid_override(text: Optional[str], flag: str):
    if text is None:
        return None
    items = [t for t in (s.strip() for s in text.split(",")) if t]
    try:
        return tuple(float(t) for t in items)
    except ValueError:
        raise InvalidParameter(f"{flag} must be a comma-separated list of reals, got {text!r}")


def _scan_point(preset_name: str, partition: str, p1: float, p2: float,
                cfg_fields: dict) -> List[str]:
    """Run one grid point and return its CSV row (picklable, top level)."""
    preset = PRESETS[preset_name]
    row: List[str] = [repr(float(p1)), repr(float(p2))]
    try:
        state = preset.build(p1, p2)
        part = PartitionScheme.from_config(partition)
        r = maximize_bell(state, part, MaximizeConfig(**cfg_fields))
        coords = [r.argmax.alpha1, r.argmax.alpha2, r.argmax.beta1, r.argmax.beta2]
        row.append(repr(r.f))
        for z in coords:
            row.extend((repr(z.real), repr(z.imag)))
        row.extend((r.verdict.verdict, ""))
    except TomobellError as exc:
        row.extend([""] * (len(CSV_FIELDS) - 3))
        row.append(f"{type(exc).__name__}: {exc}")
    return row


def cmd_scan(args) -> int:
    preset = PRESETS[args.preset]
    partition = args.partition if args.partition is not None else preset.partition
    PartitionScheme.from_config(partition)
    grid = preset.grid(_parse_grid_override(args.param1, "--param1"),
                       _parse_grid_override(args.param2, "--param2"))
    if not grid:
        raise InvalidParameter("scan grid is empty")
    if args.jobs < 1:
        raise InvalidParameter(f"--jobs must be >= 1, got {args.jobs}")
    log.info("scan %s: %d grid points, %d jobs", args.preset, len(grid), args.jobs)

    cfg_fields = dict(box=args.box, starts=args.starts, seed=args.seed,
                      max_iters=args.max_iters, nmax=args.nmax, tail_eps=args.tail_eps)
    # a bad setting is a usage error of the whole scan, not one per row
    MaximizeConfig(**cfg_fields)
    # each point gets its own seed so rows are independent of grid shape;
    # derivation from (seed, index) keeps repeat runs byte-identical
    tasks = [
        (args.preset, partition, p1, p2, dict(cfg_fields, seed=args.seed + idx))
        for idx, (p1, p2) in enumerate(grid)
    ]

    if args.jobs == 1:
        rows = [_scan_point(*t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(_scan_point, *zip(*tasks)))

    out = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(CSV_FIELDS)
        writer.writerows(rows)
    finally:
        if args.out:
            out.close()
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

# bad inputs and state files exit 2; numerical failures during an
# otherwise well-configured computation exit 3
_CONFIG_ERRORS = (
    InvalidParameter,
    UnsupportedState,
    NonPhysicalSpec,
    OSError,
    ValueError,
    json.JSONDecodeError,
)


def _configure_logging() -> None:
    level_name = os.environ.get("TOMOBELL_LOG", "").strip().upper()
    level = getattr(logging, level_name, None) if level_name else None
    logging.basicConfig(
        level=level if isinstance(level, int) else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    _configure_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits on usage errors (and --help); report its code
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _CONFIG_ERRORS as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 2
    except TomobellError as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
