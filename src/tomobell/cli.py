"""Command-line front end.

Subcommands evaluate single tomogram probabilities, portrait vectors,
and Bell matrices, run the Bell maximizer, and regenerate figure-style
datasets as CSV scans over state-family grids.

Exit codes: 0 success, 2 argument/configuration problems (including
malformed or non-finite complex literals and state files), 3 numerical
failures during computation (truncation tail too large, negativity, a
Bell number above the Tsirelson bound, a float overflow on huge inputs).
Every error path prints a single line ``error[<Case>]: <message>`` to
stderr.
"""

from __future__ import annotations

import argparse
import csv
import gc
import os
import pickle
import re
import sys
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from .bell import (
    BellSettings,
    MaximizeConfig,
    MaximizeResult,
    _check_box,
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
    portrait_truncated,
)
from .states import (
    CatState,
    _check_finite,
    _integer,
    gaussian_purity_family,
    load_state,
)

# complex literal grammar: a, bi, a+bi, a-bi with decimal reals and no
# spaces; the imaginary unit follows its coefficient ("2i", never "i2")
_DECIMAL = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_RE_FULL = re.compile(rf"^([+-]?{_DECIMAL})([+-]{_DECIMAL})i$")
_RE_IMAG = re.compile(rf"^([+-]?{_DECIMAL})i$")
_RE_REAL = re.compile(rf"^([+-]?{_DECIMAL})$")


def parse_complex(text: str) -> complex:
    """Parse a strict complex literal such as ``1.5``, ``-2i``, ``0.3-0.7i``."""
    s = text.strip()
    if m := _RE_FULL.match(s):
        z = complex(float(m.group(1)), float(m.group(2)))
    elif m := _RE_IMAG.match(s):
        z = complex(0.0, float(m.group(1)))
    elif m := _RE_REAL.match(s):
        z = complex(float(m.group(1)), 0.0)
    else:
        raise InvalidParameter(
            f"malformed complex literal {text!r} (expected forms: a, bi, a+bi, a-bi)"
        )
    # a literal such as 1e400 reads as an infinity
    _check_finite(z, f"complex literal {text!r}")
    return z


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


PRESETS = {
    "cat-zero-nonzero": ScanPreset(
        "cat-zero-nonzero", "zero-nonzero",
        (0.5, 1.0, 1.5), (0.5, 1.0, 1.5), CatState,
    ),
    "cat-even-odd": ScanPreset(
        "cat-even-odd", "even-odd",
        (0.0, 1.0), (0.0, 1.0), CatState,
    ),
    "gaussian-family": ScanPreset(
        "gaussian-family", "even-odd",
        (0.6, 0.8, 1.0), (0.0, 0.01, 0.04, 0.07), gaussian_purity_family,
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


def _add_box_arg(p):
    p.add_argument("--box", type=float, default=None, metavar="B",
                   help="reject supplied settings with |Re| or |Im| above B")


# the MaximizeConfig fields that maximize and scan take as flags
_SEARCH_FIELDS = ("box", "starts", "seed", "max_iters")


def _add_search_args(p):
    for field in _SEARCH_FIELDS:
        default = getattr(MaximizeConfig, field)
        p.add_argument("--" + field.replace("_", "-"), type=type(default), default=default,
                       help=f"MaximizeConfig.{field} (default {default})")


def _search_fields(args) -> dict:
    return {field: getattr(args, field) for field in _SEARCH_FIELDS}


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
    _add_box_arg(p)
    p.set_defaults(func=cmd_tomogram)

    p = sub.add_parser("portrait", help="print a two-qubit portrait vector")
    _add_state_arg(p)
    _add_partition_arg(p)
    p.add_argument("--alpha1", required=True)
    p.add_argument("--alpha2", required=True)
    _add_truncation_args(p)
    _add_box_arg(p)
    p.set_defaults(func=cmd_portrait)

    p = sub.add_parser("bell", help="print the Bell matrix, B, and verdict")
    _add_state_arg(p)
    _add_partition_arg(p)
    for name in ("--alpha1", "--alpha2", "--beta1", "--beta2"):
        p.add_argument(name, required=True)
    _add_truncation_args(p)
    _add_box_arg(p)
    p.set_defaults(func=cmd_bell)

    p = sub.add_parser("maximize", help="maximize B over settings in the box")
    _add_state_arg(p)
    _add_partition_arg(p)
    _add_search_args(p)
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
                   help="concurrent grid points: this process and up to N - 1 forked "
                        "workers, each taking the next point when free (serial where "
                        "os.fork is missing)")
    _add_search_args(p)
    p.set_defaults(func=cmd_scan)

    return parser


def _parse_settings(args, names) -> List[complex]:
    values = [parse_complex(getattr(args, n)) for n in names]
    box = args.box
    if box is not None:
        _check_box(box)
        for n, z in zip(names, values):
            if abs(z.real) > box or abs(z.imag) > box:
                raise InvalidParameter(
                    f"--{n} = {format_complex(z)} lies outside the box "
                    f"|Re|,|Im| <= {box:g} (strict box enforcement)"
                )
    return values


def _portrait_fn_for(args, src):
    """The portrait function: truncated when --nmax or --tail-eps is given,
    else a closed form wherever the state and partition have one."""
    p = PartitionScheme.from_config(args.partition)
    if args.nmax is None and args.tail_eps is None:
        return make_portrait_fn(src, p)
    nmax = DEFAULT_NMAX if args.nmax is None else args.nmax
    tail_eps = DEFAULT_TAIL_EPS if args.tail_eps is None else args.tail_eps
    return lambda a1, a2: portrait_truncated(src, p, a1, a2, nmax, tail_eps)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_tomogram(args) -> int:
    src = load_state(args.state)
    a1, a2 = _parse_settings(args, ("alpha1", "alpha2"))
    print(f"{src.tomogram(args.n1, args.n2, a1, a2):.12f}")
    return 0


def cmd_portrait(args) -> int:
    src = load_state(args.state)
    a1, a2 = _parse_settings(args, ("alpha1", "alpha2"))
    v = _portrait_fn_for(args, src)(a1, a2)
    for name, value in (("w_pp", v.w_pp), ("w_pm", v.w_pm),
                        ("w_mp", v.w_mp), ("w_mm", v.w_mm)):
        print(f"{name} {value:.12f}")
    print(f"tail_deficit {v.tail_deficit:.12g}")
    return 0


def cmd_bell(args) -> int:
    src = load_state(args.state)
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
    src = load_state(args.state)
    p = PartitionScheme.from_config(args.partition)
    r = maximize_bell(src, p, MaximizeConfig(**_search_fields(args)))
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


def _error_text(exc: Exception) -> str:
    """The message of an error line or a scan's error cell. An OverflowError's
    own, such as ``(34, 'Numerical result out of range')``, names no input."""
    if isinstance(exc, OverflowError):
        return "a finite input is too large for float arithmetic"
    return str(exc)


def _scan_point(preset_name: str, partition: str, p1: float, p2: float,
                cfg_fields: dict) -> List[str]:
    """Run one grid point and return its CSV row."""
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
    except (TomobellError, OverflowError) as exc:
        # a parameter so large that the float range overflows fails its own
        # row, as an out-of-range family parameter does
        row.extend([""] * (len(CSV_FIELDS) - 3))
        row.append(f"{type(exc).__name__}: {_error_text(exc)}")
    return row


def _work(tasks, fd) -> tuple:
    """Run the grid points handed out on the pipe ``fd`` until it runs dry.

    Returns ``(rows, failure)``: the CSV rows by grid index, and
    ``(index, exception)`` for a point that raised, else None. Indices go
    out in grid order, so when a point raises, every earlier one is taken;
    the worker then empties the pipe, which stops every worker after its
    current point, as a serial scan stops at its first exception.
    """
    rows = {}
    while True:
        record = os.read(fd, 4)
        if not record:
            return rows, None
        idx = int.from_bytes(record, "little")
        try:
            rows[idx] = _scan_point(*tasks[idx])
        except Exception as exc:
            while os.read(fd, 1 << 16):
                pass
            return rows, (idx, exc)


def _child(tasks, task_r, task_w, res_r, res_w):
    """A forked worker: take points, send back ``_work``'s result pickled
    over its own pipe, and leave without running the parent's clean-up."""
    status = 1
    try:
        os.close(task_w)
        os.close(res_r)
        payload = pickle.dumps(_work(tasks, task_r))
        with open(res_w, "wb") as fh:
            fh.write(payload)
        status = 0
    finally:
        os._exit(status)


def _scan_forked(tasks, jobs: int) -> List[List[str]]:
    """The rows of every task, run by this process and ``jobs - 1`` forked
    workers. Grid indices go out as 4-byte records on one shared pipe, so
    each worker takes the next point as soon as it is free; a worker's
    exception is raised here, the one of the lowest grid index first."""
    task_r, task_w = os.pipe()
    children = []  # (pid, read end of its result pipe)
    finished = False
    try:
        for _ in range(jobs - 1):
            res_r, res_w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(res_r)
                os.close(res_w)
                raise
            if pid == 0:
                _child(tasks, task_r, task_w, res_r, res_w)
            children.append((pid, res_r))
            os.close(res_w)
        # writes of at most PIPE_BUF bytes are atomic, so the pipe only
        # ever holds whole records and a 4-byte read takes exactly one
        step = min(4096, os.fpathconf(task_w, "PC_PIPE_BUF")) // 4 * 4
        records = b"".join(i.to_bytes(4, "little") for i in range(len(tasks)))
        for at in range(0, len(records), step):
            os.write(task_w, records[at:at + step])
        os.close(task_w)
        task_w = None
        results = [_work(tasks, task_r)]
        for pid, res_r in children:
            with open(res_r, "rb", closefd=False) as fh:
                payload = fh.read()
            if not payload:
                raise ChildProcessError(f"scan worker {pid} exited without a result")
            results.append(pickle.loads(payload))
        finished = True
    finally:
        for fd in (task_r, task_w, *(res_r for _, res_r in children)):
            if fd is not None:
                os.close(fd)
        if not finished and children:
            import signal

            for pid, _ in children:
                os.kill(pid, signal.SIGKILL)
        for pid, _ in children:
            os.waitpid(pid, 0)
    failures = [failure for _, failure in results if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    rows = {}
    for part, _ in results:
        rows.update(part)
    return [rows[idx] for idx in range(len(tasks))]


def cmd_scan(args) -> int:
    preset = PRESETS[args.preset]
    partition = args.partition if args.partition is not None else preset.partition
    PartitionScheme.from_config(partition)
    grid = preset.grid(_parse_grid_override(args.param1, "--param1"),
                       _parse_grid_override(args.param2, "--param2"))
    if not grid:
        raise InvalidParameter("scan grid is empty")
    _integer(args.jobs, "--jobs", 1)

    cfg_fields = _search_fields(args)
    # a bad setting is a usage error of the whole scan, not one per row
    MaximizeConfig(**cfg_fields)
    # each point gets its own seed so rows are independent of grid shape;
    # derivation from (seed, index) keeps repeat runs byte-identical
    tasks = [
        (args.preset, partition, p1, p2, dict(cfg_fields, seed=args.seed + idx))
        for idx, (p1, p2) in enumerate(grid)
    ]

    # opened before the grid runs, so an unwritable path costs no compute,
    # but emptied only once the rows are ready: a scan that fails or is
    # interrupted leaves an existing file as it was
    if args.out:
        open(args.out, "a").close()
    jobs = min(args.jobs, len(tasks))
    if jobs == 1 or not hasattr(os, "fork"):
        rows = [_scan_point(*t) for t in tasks]
    else:
        rows = _scan_forked(tasks, jobs)
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

# bad inputs and state files exit 2 (ValueError covers InvalidParameter and
# json.JSONDecodeError); numerical failures during an otherwise
# well-configured computation exit 3
_CONFIG_ERRORS = (UnsupportedState, NonPhysicalSpec, OSError, ValueError)


def main(argv: Optional[Sequence[str]] = None) -> int:
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
    except (TomobellError, OverflowError) as exc:
        # an OverflowError is Python's float arithmetic leaving the float
        # range on finite but huge inputs (|alpha|^2 of 1e200)
        print(f"error[{type(exc).__name__}]: {_error_text(exc)}", file=sys.stderr)
        return 3


def run() -> int:
    """The process entry of ``python -m tomobell.cli`` and the installed
    ``tomobell`` script: ``main`` on the process's arguments.

    It then freezes the garbage collector's objects, so the collections
    the interpreter runs at exit skip everything numpy and the package
    made (about 25 ms); the process hands its memory back anyway. Output
    is still flushed, ``atexit`` handlers run and the exit code stands.
    In-process callers use ``main``, which freezes nothing.
    """
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
