"""The four benchmark workloads: seeded inputs, the timed work, the gates.

Each workload draws its inputs from its own generator seeded by the
benchmark seed, times one sample of work in ``run`` and checks the outputs
in ``check``, outside the timed region. Calls into tomobell go through
module attributes looked up at call time (``tb.bell.maximize_bell``,
``tb.portrait.portrait_truncated``), so the wrappers a traced run installs
on those attributes see every call.

Counting: ``attempted`` counts the gated operations (maximize calls, Bell
numbers, truncated portraits, scan grid points). An operation fails when
its output misses its reference or it raises an error it has no business
raising. A truncated portrait that the library refuses with
``TailTooLarge`` (its deficit really is above ``tail_eps``) or
``NumericalNegativity`` is a documented outcome: it is timed, counted by
class and reported, but not counted as failed.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# the worked example of the paper, as in tests/test_acceptance.py
SQUEEZED_M = np.array([
    [3.0, math.sqrt(35) / 2, 0.0, 0.0],
    [math.sqrt(35) / 2, 3.0, 0.0, 0.0],
    [0.0, 0.0, 1.0, math.sqrt(3) / 2],
    [0.0, 0.0, math.sqrt(3) / 2, 1.0],
])

# a maximum may fall short of its reference by this much
F_TOL = 1e-3
# truncated cells may exceed their closed-form value, or miss it by more
# than the tail deficit, by this much (the library's own sum tolerance)
CELL_SLACK = 1e-9
SEPARABLE_TOL = 1e-9
TAIL_EPS = 1e-4


def _stamp(seed, tag):
    """A generator for one workload, independent of the others' draws."""
    return np.random.default_rng([int(seed), tag])


def _complex(rng, bound):
    x = rng.uniform(-bound, bound, 2)
    return complex(x[0], x[1])


class Tally:
    """Operations attempted and failed, with counts by class."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.classes = Counter()
        self.examples = []

    def ok(self, n=1):
        self.attempted += n

    def fail(self, cls, detail):
        self.attempted += 1
        self.failed += 1
        self.classes[cls] += 1
        if len(self.examples) < 5:
            self.examples.append(f"{cls}: {detail}")

    def refused(self, cls):
        self.attempted += 1
        self.classes["refused." + cls] += 1


def _expect_trip(label, check, good, bad):
    """Problems with a gate: it rejects a good value or passes a bad one."""
    problems = []
    t_good, t_bad = Tally(), Tally()
    check(good, t_good)
    check(bad, t_bad)
    if t_good.failed:
        problems.append(f"{label}: gate rejects the unperturbed value ({t_good.examples})")
    if not t_bad.failed:
        problems.append(f"{label}: gate passes the perturbed value")
    return problems


class Workload:
    # timings are reported per item: per state on bell-sweep, per sample elsewhere
    items_per_sample = 1

    def kind(self, inp):
        """Which kind of sample an input makes; statistics are taken per kind."""
        return self.name


class InProcess(Workload):
    """A workload whose work runs in this process."""

    def run_traced(self, inp, tracer_factory, totals, notes, plain_seconds):
        tracer = tracer_factory()
        try:
            seconds, out = self.run(inp)
        finally:
            tracer.uninstall()
        totals.absorb(tracer)
        return seconds, out


# ---------------------------------------------------------------------------
# maximize-closed
# ---------------------------------------------------------------------------


class MaximizeClosed(InProcess):
    name = "maximize-closed"
    sample = "one maximize_bell call"

    def __init__(self, tb, seed):
        self.tb = tb
        self.rng = _stamp(seed, 1)
        st = tb.states
        eo = tb.PartitionScheme.even_odd()
        zn = tb.PartitionScheme.zero_nonzero()
        r10, r50 = math.sqrt(10.0), math.sqrt(50.0)
        # (label, state, partition, starts, reference f, where it comes from).
        # Each member gets the starts it needs to reach its reference on
        # every seed tried: the large cats need the fine start scales of
        # indices 3 and 4, cat(1,1) zero-nonzero has local optima just
        # under 2 that a few starts can all fall into. The order
        # alternates slow and fast members so a run that stops part way
        # through the mix is not biased toward either.
        self.mix = [
            ("cat50-even-odd", st.CatState(r50, r50), eo, 5, 2.73, "criterion 4"),
            ("coherent-even-odd", st.CoherentProduct(0.5, 0.5j), eo, 5, 2.0, "criterion 9"),
            ("cat1-zero-nonzero", st.CatState(1.0, 1.0), zn, 10, 2.0, "criterion 5"),
            ("family-0.6-even-odd", st.gaussian_purity_family(0.6, 0.0), eo, 5, 2.0, "criterion 6"),
            ("cat10-even-odd", st.CatState(r10, r10), eo, 5, 2.65, "criterion 4"),
            ("family-1.2-even-odd", st.gaussian_purity_family(1.2, 0.0), eo, 5, 2.0, "criterion 6"),
            ("cat1-even-odd", st.CatState(1.0, 1.0), eo, 5, 2.469, "README quick start"),
            ("squeezed-zero-nonzero", st.GaussianSpec(SQUEEZED_M), zn, 5, 2.4709, "README, criterion 3"),
        ]
        self.count = 0

    def _member(self, label):
        return next(m for m in self.mix if m[0] == label)

    def kind(self, inp):
        return inp[0]

    def warm_up(self):
        label, state, part = self._member("cat1-even-odd")[:3]
        self.warm = self.tb.bell.maximize_bell(state, part, self.tb.MaximizeConfig(starts=1, seed=0))

    def next_input(self):
        label, state, part, starts, ref, _ = self.mix[self.count % len(self.mix)]
        self.count += 1
        cfg = self.tb.MaximizeConfig(starts=starts, seed=int(self.rng.integers(2**31)))
        return label, state, part, cfg, ref

    def run(self, inp):
        label, state, part, cfg, _ = inp
        t0 = time.perf_counter()
        try:
            out = self.tb.bell.maximize_bell(state, part, cfg)
        except self.tb.TomobellError as exc:
            out = exc.with_traceback(None)
        return time.perf_counter() - t0, out

    def check(self, inp, out, tally):
        label, ref = inp[0], inp[4]
        bell = self.tb.bell
        if isinstance(out, Exception):
            tally.fail(type(out).__name__, f"{label}: {out}")
            return
        errors = [e for e in out.per_start_error if e is not None]
        if errors:
            tally.fail("start_error", f"{label}: {errors[0]}")
        elif not out.f <= bell.TSIRELSON_BOUND + bell.CEILING_TOL:
            tally.fail("above_tsirelson", f"{label}: f={out.f!r}")
        elif out.f < ref - F_TOL:
            tally.fail("reference_miss", f"{label}: f={out.f:.6f} < {ref} - {F_TOL}")
        elif label.startswith("coherent") and out.f > 2.0 + SEPARABLE_TOL:
            tally.fail("separable_above_2", f"{label}: f={out.f!r}")
        elif (out.verdict.verdict == bell.VERDICT_ENTANGLED) != (out.f > 2.0):
            tally.fail("verdict", f"{label}: {out.verdict.verdict} at f={out.f!r}")
        else:
            tally.ok()

    def self_check(self):
        bell = self.tb.bell
        label, state, part, _, ref, _ = self._member("cat1-even-odd")
        good = dataclasses.replace(self.warm, f=ref, verdict=bell.chsh_check(ref), per_start_error=[None])
        coh = self._member("coherent-even-odd")
        inp = (label, state, part, None, ref)
        coh_inp = (coh[0], coh[1], coh[2], None, coh[4])
        check = self.check

        def gate(i):
            return lambda out, tally: check(i, out, tally)

        low = ref - 2 * F_TOL
        two = dataclasses.replace(good, f=2.0, verdict=bell.chsh_check(2.0))
        return (
            _expect_trip("maximize reference", gate(inp), good,
                         dataclasses.replace(good, f=low, verdict=bell.chsh_check(low)))
            + _expect_trip("maximize Tsirelson", gate(inp), good,
                           dataclasses.replace(good, f=bell.TSIRELSON_BOUND + 1e-3))
            + _expect_trip("maximize start error", gate(inp), good,
                           dataclasses.replace(good, per_start_error=["NumericalNegativity: x"]))
            + _expect_trip("maximize verdict", gate(inp), good,
                           dataclasses.replace(good, verdict=bell.ChshVerdict(bell.VERDICT_SEPARABLE, 0.0)))
            + _expect_trip("maximize separable", gate(coh_inp), two,
                           dataclasses.replace(two, f=2.0 + 1e-6))
        )

    def report(self, samples):
        return {"maximize_s": (samples, "s", 1.0)}


# ---------------------------------------------------------------------------
# bell-sweep
# ---------------------------------------------------------------------------


def _physical_gaussian_m(rng):
    """Covariance of a squeezed, beam-split thermal state, (p1, p2, q1, q2) order.

    M = S M0 S^T with M0 thermal and S = diag(R D, R D^-1) for a rotation R
    and squeezing D; S is symplectic, so M satisfies the uncertainty
    relation and not only det M >= 1/16.
    """
    n1, n2 = rng.uniform(0.0, 0.5, 2)
    r1, r2 = rng.uniform(-0.6, 0.6, 2)
    th = rng.uniform(0.0, math.pi / 2)
    rot = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    s = np.zeros((4, 4))
    s[:2, :2] = rot @ np.diag([math.exp(r1), math.exp(r2)])
    s[2:, 2:] = rot @ np.diag([math.exp(-r1), math.exp(-r2)])
    m0 = np.diag([n1 + 0.5, n2 + 0.5, n1 + 0.5, n2 + 0.5])
    m = s @ m0 @ s.T
    return 0.5 * (m + m.T)


class BellSweep(InProcess):
    name = "bell-sweep"
    sample = "one state of each kind (4 states), reported per state"
    KINDS = ("cat", "coherent", "family", "gaussian")
    BELLS_PER_PARTITION = 4
    items_per_sample = len(KINDS)

    def __init__(self, tb, seed):
        self.tb = tb
        self.rng = _stamp(seed, 2)
        self.partitions = (tb.PartitionScheme.even_odd(), tb.PartitionScheme.zero_nonzero())

    def _draw(self, kind):
        rng = self.rng
        if kind in ("cat", "coherent"):
            params = (_complex(rng, 1.5), _complex(rng, 1.5))
        elif kind == "family":
            params = (float(rng.uniform(0.5, 1.5)), float(rng.uniform(0.0, 0.1)))
        else:
            params = (_physical_gaussian_m(rng), rng.uniform(-1.0, 1.0, 4))
        settings = [
            [self.tb.BellSettings(*(_complex(rng, 2.0) for _ in range(4)))
             for _ in range(self.BELLS_PER_PARTITION)]
            for _ in self.partitions
        ]
        return kind, params, settings

    def _build(self, kind, params):
        st = self.tb.states
        if kind == "cat":
            return st.CatState(*params)
        if kind == "coherent":
            return st.CoherentProduct(*params)
        if kind == "family":
            return st.gaussian_purity_family(*params)
        return st.GaussianSpec(*params)

    def warm_up(self):
        self.run([self._draw(kind) for kind in self.KINDS])

    def next_input(self):
        return [self._draw(kind) for kind in self.KINDS]

    def run(self, inp):
        bell, portrait = self.tb.bell, self.tb.portrait
        seconds = 0.0
        out = []
        for kind, params, settings in inp:
            t0 = time.perf_counter()
            try:
                state = self._build(kind, params)
                bs = []
                for part, part_settings in zip(self.partitions, settings):
                    fn = portrait.make_portrait_fn(state, part)
                    for s in part_settings:
                        bs.append(bell.bell_number(bell.bell_matrix(fn, s)))
            except self.tb.TomobellError as exc:
                bs = exc.with_traceback(None)
            seconds += time.perf_counter() - t0
            out.append((kind, bs, self.tb.get_bell_high_water()))
        return seconds, out

    def check(self, inp, out, tally):
        ceiling = self.tb.TSIRELSON_BOUND + self.tb.bell.CEILING_TOL
        for kind, bs, high_water in out:
            if isinstance(bs, Exception):
                tally.fail(type(bs).__name__, f"{kind}: {bs}")
                continue
            for b in bs:
                if not b <= ceiling:
                    tally.fail("above_tsirelson", f"{kind}: B={b!r}")
                elif kind == "coherent" and b > 2.0 + SEPARABLE_TOL:
                    tally.fail("separable_above_2", f"B={b!r}")
                else:
                    tally.ok()
            if not high_water <= ceiling:
                tally.fail("high_water", f"get_bell_high_water()={high_water!r}")

    def self_check(self):
        _, good = self.run(self.next_input())
        hw = self.tb.TSIRELSON_BOUND + 1e-3

        def gate(out, tally):
            self.check(None, out, tally)

        def swap(kind, values=None, high_water=None):
            return [(k, (values if k == kind and values is not None else bs),
                     (high_water if high_water is not None else h)) for k, bs, h in good]

        bs_cat = list(next(bs for k, bs, _ in good if k == "cat"))
        bs_coh = list(next(bs for k, bs, _ in good if k == "coherent"))
        return (
            _expect_trip("bell Tsirelson", gate, good, swap("cat", [hw] + bs_cat[1:]))
            + _expect_trip("bell separable", gate, good, swap("coherent", [2.0 + 1e-6] + bs_coh[1:]))
            + _expect_trip("bell high-water", gate, good, swap("cat", high_water=hw))
        )

    def report(self, samples):
        return {"state_ms": (samples, "ms", 1000.0 / len(self.KINDS))}


# ---------------------------------------------------------------------------
# truncated-tables
# ---------------------------------------------------------------------------


def _poisson_cdf(t, lam):
    return sum(math.exp(-lam + n * math.log(lam) - math.lgamma(n + 1)) if lam > 0 else float(n == 0)
               for n in range(t + 1))


class TruncatedTables(InProcess):
    name = "truncated-tables"
    sample = "one setting pair: 3 states x nmax 15 and 30 x 4 partitions (24 truncated portraits)"
    KINDS = ("gaussian", "cat", "coherent")
    NMAX = (15, 30)

    def __init__(self, tb, seed):
        self.tb = tb
        self.rng = _stamp(seed, 3)
        self.count = 0
        pf = tb.PartitionScheme.from_config
        self.eo = tb.PartitionScheme.even_odd()
        self.zn = tb.PartitionScheme.zero_nonzero()
        self.th0 = pf({"mode1": {"threshold": 0}, "mode2": {"threshold": 0}})
        self.th = {t: pf({"mode1": {"threshold": t}, "mode2": {"threshold": t}}) for t in (1, 2, 3)}
        self.squeezed = tb.states.GaussianSpec(SQUEEZED_M)
        self.portrait_seconds = {n: [] for n in self.NMAX}

    def next_input(self):
        """Round r: the squeezed example on even rounds, a purity-family
        member on odd ones; settings at the worked-example scale
        (|Re|, |Im| <= 0.35) on rounds 0, 1 mod 4, across the full box
        (<= 2) on rounds 2, 3 mod 4, where Gaussian tables mostly fail."""
        rng, st, r = self.rng, self.tb.states, self.count
        self.count += 1
        if r % 2 == 0:
            gauss = self.squeezed
        else:
            gauss = st.gaussian_purity_family(float(rng.uniform(0.6, 1.0)), float(rng.uniform(0.0, 0.05)))
        states = {
            "gaussian": gauss,
            "cat": st.CatState(_complex(rng, 1.2), _complex(rng, 1.2)),
            "coherent": st.CoherentProduct(_complex(rng, 1.2), _complex(rng, 1.2)),
        }
        scale = 0.35 if (r // 2) % 2 == 0 else 2.0
        a1, a2 = _complex(rng, scale), _complex(rng, scale)
        t = int(rng.integers(1, 4))
        parts = (("even-odd", self.eo), ("zero-nonzero", self.zn),
                 ("threshold-0", self.th0), (f"threshold-{t}", self.th[t]))
        sources = {k: st.make_source(s) for k, s in states.items()}
        return states, sources, a1, a2, parts, t

    def warm_up(self):
        states, sources, a1, a2, parts, t = self.next_input()
        for src in sources.values():
            try:
                self.tb.portrait.portrait_truncated(src, self.eo, 0j, 0j, 15, TAIL_EPS)
            except self.tb.TomobellError:
                pass

    def run(self, inp):
        states, sources, a1, a2, parts, t = inp
        portrait_truncated = self.tb.portrait.portrait_truncated
        seconds = 0.0
        out = []
        for kind in self.KINDS:
            src = sources[kind]
            for nmax in self.NMAX:
                for pname, part in parts:
                    t0 = time.perf_counter()
                    try:
                        v = portrait_truncated(src, part, a1, a2, nmax, TAIL_EPS)
                    except self.tb.TomobellError as exc:
                        # without its traceback the error does not keep the
                        # failed call's tables alive
                        v = exc.with_traceback(None)
                    dt = time.perf_counter() - t0
                    seconds += dt
                    self.portrait_seconds[nmax].append(dt)
                    out.append((kind, nmax, pname, dt, v))
        return seconds, out

    def _reference(self, state, kind, pname, t, a1, a2):
        """Closed-form cells, or None when only containment can be checked."""
        if pname == "even-odd":
            return self.tb.portrait.make_portrait_fn(state, self.eo)(a1, a2).as_array()
        if pname in ("zero-nonzero", "threshold-0"):
            return self.tb.portrait.make_portrait_fn(state, self.zn)(a1, a2).as_array()
        if kind == "coherent":
            p1 = _poisson_cdf(t, abs(a1 + state.gamma1) ** 2)
            p2 = _poisson_cdf(t, abs(a2 + state.gamma2) ** 2)
            return np.array([p1 * p2, p1 * (1 - p2), (1 - p1) * p2, (1 - p1) * (1 - p2)])
        return None

    def check(self, inp, out, tally):
        states, sources, a1, a2, parts, t = inp
        tb = self.tb
        zn = {k: tb.portrait.make_portrait_fn(s, self.zn)(a1, a2).as_array() for k, s in states.items()}
        for kind, nmax, pname, _, v in out:
            what = f"{kind} {pname} nmax={nmax} at ({a1:.3f}, {a2:.3f})"
            if isinstance(v, tb.TailTooLarge):
                if v.tail_deficit > TAIL_EPS:
                    tally.refused("TailTooLarge")
                else:
                    tally.fail("refusal_without_cause", f"{what}: deficit {v.tail_deficit:.3e}")
                continue
            if isinstance(v, tb.NumericalNegativity):
                tally.refused("NumericalNegativity")
                continue
            if isinstance(v, Exception):
                tally.fail(type(v).__name__, f"{what}: {v}")
                continue
            cells = v.as_array()
            ref = self._reference(states[kind], kind, pname, t, a1, a2)
            if ref is not None:
                d = ref - cells
                if d.min() < -CELL_SLACK or d.max() > v.tail_deficit + CELL_SLACK:
                    tally.fail("closed_form_mismatch",
                               f"{what}: cells {cells} vs {ref}, deficit {v.tail_deficit:.3e}")
                    continue
            elif cells[0] < zn[kind][0] - CELL_SLACK or cells[3] > zn[kind][3] + CELL_SLACK:
                # {n <= t} contains {0}: more mass in ++, less in --
                tally.fail("containment", f"{what}: cells {cells} vs zero-nonzero {zn[kind]}")
                continue
            tally.ok()

    def self_check(self):
        tb = self.tb
        states = {"gaussian": tb.states.gaussian_purity_family(0.8, 0.0),
                  "cat": tb.states.CatState(0.7, 0.4j),
                  "coherent": tb.states.CoherentProduct(0.3, -0.2j)}
        a1, a2, t = 0.1 + 0.05j, -0.1j, 2
        parts = (("even-odd", self.eo), ("threshold-0", self.th0), (f"threshold-{t}", self.th[t]))
        inp = (states, {k: tb.states.make_source(s) for k, s in states.items()}, a1, a2, parts, t)
        problems = []
        for kind in self.KINDS:
            for pname, part in parts:
                v = tb.portrait.portrait_truncated(inp[1][kind], part, a1, a2, 30, TAIL_EPS)
                # move just enough mass from ++ to -- to leave the gate's band
                if self._reference(states[kind], kind, pname, t, a1, a2) is not None:
                    delta = v.tail_deficit + 1e-6
                else:
                    zn_pp = tb.portrait.make_portrait_fn(states[kind], self.zn)(a1, a2).w_pp
                    delta = v.w_pp - zn_pp + 1e-6
                bad = dataclasses.replace(v, w_pp=v.w_pp - delta, w_mm=v.w_mm + delta)
                problems += _expect_trip(
                    f"truncated {kind} {pname}",
                    lambda o, tally: self.check(inp, o, tally),
                    [(kind, 30, pname, 0.0, v)], [(kind, 30, pname, 0.0, bad)])
        fake = tb.TailTooLarge(TAIL_EPS / 2)
        problems += _expect_trip(
            "truncated refusal", lambda o, tally: self.check(inp, o, tally),
            [("cat", 15, "even-odd", 0.0, tb.TailTooLarge(2 * TAIL_EPS))],
            [("cat", 15, "even-odd", 0.0, fake)])
        return problems

    def report(self, samples):
        return {f"portrait_ms.n{n}": (v, "ms", 1000.0) for n, v in self.portrait_seconds.items()}


# ---------------------------------------------------------------------------
# scan-cli
# ---------------------------------------------------------------------------

# f per grid point of `tomobell scan --preset gaussian-family` with the
# default 64 starts and --seed 0 (3 x 4 grid, even-odd)
SCAN_REFERENCE = {
    (0.6, 0.0): 2.1392368810587366,
    (0.6, 0.01): 2.0976943462915125,
    (0.6, 0.04): 1.986231580345087,
    (0.6, 0.07): 1.8908361314512403,
    (0.8, 0.0): 2.2276611097341217,
    (0.8, 0.01): 2.1844014361934705,
    (0.8, 0.04): 2.068331415579721,
    (0.8, 0.07): 1.9689928460981836,
    (1.0, 0.0): 2.263684251611635,
    (1.0, 0.01): 2.219725032996231,
    (1.0, 0.04): 2.1017780631454457,
    (1.0, 0.07): 2.0008331059747277,
}
# the corners of the preset's grid: both verdicts, and the point whose
# maximum sits 8e-4 above 2. A 4-point scan takes about 3 s, so a run
# holds several scans, each short enough for the reference computation
# around it to follow the host's speed.
SCAN_PARAM1 = (0.6, 1.0)
SCAN_PARAM2 = (0.0, 0.07)
SCAN_POINTS = [(p1, p2) for p1 in SCAN_PARAM1 for p2 in SCAN_PARAM2]
SCAN_STARTS = 3
SCAN_TIMEOUT_S = 60.0


def cpu_count():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(cmd, timeout):
    """Run cmd in its own process group; kill the whole group on timeout.

    Returns (wall seconds, returncode or None on timeout, stdout, stderr).
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        stdout, stderr = proc.communicate()
        code = None
    return time.perf_counter() - t0, code, stdout, stderr


class ScanCli(Workload):
    name = "scan-cli"
    sample = "one `tomobell scan --preset gaussian-family` subprocess on the 4 corners of its grid"

    def __init__(self, tb, seed):
        self.tb = tb
        self.rng = _stamp(seed, 4)
        self.jobs = min(cpu_count(), len(SCAN_POINTS))
        self.efficiency_done = False

    def args(self, seed, jobs):
        return ["scan", "--preset", "gaussian-family",
                "--param1", ",".join(map(repr, SCAN_PARAM1)), "--param2", ",".join(map(repr, SCAN_PARAM2)),
                "--starts", str(SCAN_STARTS), "--seed", str(seed), "--jobs", str(jobs)]

    def warm_up(self):
        pass

    def next_input(self):
        return int(self.rng.integers(2**31 - 100))

    def run(self, seed):
        cmd = [sys.executable, "-m", "tomobell.cli"] + self.args(seed, self.jobs)
        seconds, code, stdout, stderr = run_child(cmd, SCAN_TIMEOUT_S)
        return seconds, (code, stdout, stderr)

    def run_traced(self, seed, tracer_factory, totals, notes, plain_seconds):
        spool_root = ROOT / ".perfbench-spool"
        spool_root.mkdir(exist_ok=True)
        spool = Path(tempfile.mkdtemp(dir=spool_root))
        script = str(Path(__file__).resolve().parent / "scan_traced.py")
        try:
            runs = [(self.jobs, "parallel")]
            if not self.efficiency_done:
                runs.append((1, "serial"))
            result = None
            for jobs, tag in runs:
                seconds, code, stdout, stderr = run_child(
                    [sys.executable, script, str(spool / tag)] + self.args(seed, jobs), SCAN_TIMEOUT_S)
                records = []
                for f in sorted((spool / tag).glob("*.jsonl")) if (spool / tag).exists() else []:
                    records += [json.loads(line) for line in f.read_text().splitlines() if line]
                points = [r for r in records if r["kind"] == "point"]
                if tag == "parallel":
                    result = (seconds, (code, stdout, stderr))
                    for r in records:
                        if r["kind"] == "import":
                            notes.setdefault("cli.import_s", []).append(r["seconds"])
                    for r in points:
                        totals.merge_json(r["layers"])
                    if points:
                        notes.setdefault("cli.scan.point_s.max", []).append(max(r["seconds"] for r in points))
                elif points and code == 0:
                    self.efficiency_done = True
                    serial = sum(r["seconds"] for r in points)
                    notes.setdefault("cli.scan.parallel_efficiency", []).append(
                        serial / (self.jobs * plain_seconds))
            return result
        finally:
            shutil.rmtree(spool, ignore_errors=True)
            try:
                spool_root.rmdir()
            except OSError:
                pass

    def check(self, seed, out, tally):
        code, stdout, stderr = out
        if code != 0:
            for _ in SCAN_POINTS:
                tally.fail("scan_exit", f"exit {code}: {stderr.strip()[-200:]}")
            return
        rows = list(csv.DictReader(io.StringIO(stdout)))
        seen = set()
        for row in rows:
            key = (float(row["param1"]), float(row["param2"]))
            seen.add(key)
            ref = SCAN_REFERENCE.get(key) if key in SCAN_POINTS else None
            if ref is None:
                tally.fail("unexpected_point", f"{key}")
            elif row["error"]:
                tally.fail(row["error"].split(":", 1)[0], f"{key}: {row['error']}")
            else:
                f = float(row["f"])
                entangled = row["verdict"] == self.tb.bell.VERDICT_ENTANGLED
                if abs(f - ref) > F_TOL:
                    tally.fail("reference_miss", f"{key}: f={f:.6f}, reference {ref:.6f}")
                elif entangled != (f > 2.0) or (abs(ref - 2.0) > F_TOL and entangled != (ref > 2.0)):
                    tally.fail("verdict", f"{key}: {row['verdict']} at f={f:.6f}, reference {ref:.6f}")
                else:
                    tally.ok()
        for key in SCAN_POINTS:
            if key not in seen:
                tally.fail("missing_point", f"{key}")

    def self_check(self):
        ent, sep = self.tb.bell.VERDICT_ENTANGLED, self.tb.bell.VERDICT_SEPARABLE
        header = "param1,param2,f,verdict,error\n"

        def csv_text(f_shift=0.0, flip=False, error=""):
            lines = [header]
            for p1, p2 in SCAN_POINTS:
                f = SCAN_REFERENCE[(p1, p2)]
                verdict = ent if (f > 2.0) != flip else sep
                lines.append(f"{p1!r},{p2!r},{f + f_shift!r},{verdict},{error}\n")
            return "".join(lines)

        def gate(out, tally):
            self.check(None, out, tally)

        good = (0, csv_text(), "")
        return (
            _expect_trip("scan reference", gate, good, (0, csv_text(f_shift=-2 * F_TOL), ""))
            + _expect_trip("scan verdict", gate, good, (0, csv_text(flip=True), ""))
            + _expect_trip("scan error column", gate, good, (0, csv_text(error="TailTooLarge: x"), ""))
            + _expect_trip("scan exit code", gate, good, (3, "", "error[X]: y"))
        )

    def report(self, samples):
        return {"scan_s": (samples, "s", 1.0)}


WORKLOADS = {w.name: w for w in (MaximizeClosed, BellSweep, TruncatedTables, ScanCli)}
