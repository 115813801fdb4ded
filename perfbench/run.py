"""tomobell benchmark: four seeded workloads, timed end to end and by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout that holds ``src/tomobell``; the
package is imported from that source tree, never from site-packages.
Workloads (see ``workloads.py``): maximize-closed, bell-sweep,
truncated-tables, scan-cli.

``--trace 0`` measures the end-to-end metrics: ``setup_s`` (import,
input generation and warm-up, median of three set-ups, two of them in
fresh processes), ``peak_rss_mb`` and ``op_ref.p50``, the median cost of
a sample of work in units of the reference computation of
``reference.py``, which runs between samples. ``--trace 1`` runs each
input twice, plain and with the layer wrappers of ``spans.py``
installed, and reports the per-layer metrics plus the tracing overhead
measured on those pairs.

Before measuring, every run checks that each correctness gate trips on a
deliberately perturbed value. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The lines above it give the wall-clock median and tail of every timing,
with sample counts and tail levels, under the workload's own names
(``maximize_s``, ``state_ms``, ``portrait_ms.nN``, ``scan_s``), the
failures by class and the environment.
"""

import os

# one BLAS thread per process, set before numpy is first imported, and
# inherited by every subprocess the benchmark starts
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_PROBES = 2
PROBE_TIMEOUT_S = 60.0


class SetupError(Exception):
    """The checkout cannot be benchmarked (no source tree to import)."""


def import_tomobell():
    if not (SRC / "tomobell" / "__init__.py").is_file():
        raise SetupError(f"no package source at {SRC / 'tomobell'}")
    sys.path.insert(0, str(SRC))
    import tomobell
    import tomobell.cli  # noqa: F401  (the scan layer; tomobell does not import it)

    where = Path(tomobell.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SetupError(f"tomobell imported from {where}, not from {SRC}")
    return tomobell


def set_up(workload, seed):
    """Import, input generation and warm-up; returns (seconds, tb, workload)."""
    t0 = time.perf_counter()
    tb = import_tomobell()
    import workloads

    if workload not in workloads.WORKLOADS:
        raise SetupError(f"unknown workload {workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[workload](tb, seed)
    wl.warm_up()
    return time.perf_counter() - t0, tb, wl


def probe_setup(workload, seed):
    """Time a set-up in a fresh process, so import time is measured again."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def tail(values):
    """Highest percentile with at least ten samples beyond it: (value, level).

    Below 21 samples that percentile is at or under the median, which is
    no tail; the maximum is reported instead and the level reads 100.
    """
    xs = sorted(values)
    k = len(xs) - 11 if len(xs) >= 21 else len(xs) - 1
    return xs[k], round(100.0 * (k + 1) / len(xs), 2)


def timing(name, values, unit, scale):
    xs = [scale * v for v in values]
    t, level = tail(xs)
    return {
        f"{name}.p50": {"value": statistics.median(xs), "unit": unit, "n": len(xs)},
        f"{name}.tail": {"value": t, "unit": unit, "n": len(xs), "level": level},
    }


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def environment(tb):
    import numpy
    import scipy

    import workloads

    return {
        "nproc": workloads.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "tomobell": tb.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "machine": platform.machine(),
    }


def stratified(samples, stat):
    """``stat`` of the values within each kind of sample, averaged over kinds.

    Per kind (a member of the maximize-closed mix; one kind elsewhere), so
    that neither a cheap member nor the share of members that fitted in
    the run decides the figure.
    """
    by_kind = {}
    for kind, value in samples:
        by_kind.setdefault(kind, []).append(value)
    return statistics.fmean(stat(v) for v in by_kind.values())


REF_WINDOW_S = 0.25
# after each sample the reference runs once per 50 ms of the sample's
# time, at least once and at most 20 times, so that long samples are
# divided by the median of many references, not of two
REFS_PER_SECOND = 20
MAX_REFS = 20


def measure(wl, tally, seconds):
    """Plain run: one sample of work after another until the time is up.

    The reference computation runs between samples. Returns, per sample,
    (kind, seconds, cost in reference units): the sample's time divided by
    the median reference time within REF_WINDOW_S of it, which always
    includes the references just before and just after it.
    """
    import numpy as np
    from reference import reference_seconds

    refs = []

    def run_refs(n):
        for _ in range(n):
            t = time.perf_counter()
            r = reference_seconds()
            refs.append((t + 0.5 * r, r))

    run_refs(MAX_REFS)
    runs = []
    deadline = time.perf_counter() + seconds
    while True:
        inp = wl.next_input()
        before = len(refs) - 1
        t0 = time.perf_counter()
        secs, out = wl.run(inp)
        t1 = time.perf_counter()
        run_refs(min(MAX_REFS, 1 + int(secs * REFS_PER_SECOND)))
        wl.check(inp, out, tally)
        runs.append((wl.kind(inp), t0, t1, secs, before))
        if time.perf_counter() >= deadline:
            break
    at = np.array([t for t, _ in refs])
    r = np.array([x for _, x in refs])
    samples = []
    for kind, t0, t1, secs, before in runs:
        lo = min(int(np.searchsorted(at, t0 - REF_WINDOW_S)), before)
        hi = max(int(np.searchsorted(at, t1 + REF_WINDOW_S)), before + 2)
        samples.append((kind, secs, secs / float(np.median(r[lo:hi]))))
    return samples


def measure_traced(tb, wl, tally, seconds):
    """Each input runs plain, then traced; the pairs give the overhead."""
    from spans import LayerTotals, Tracer, install

    def tracer_factory():
        tracer = Tracer()
        install(tracer, tb)
        return tracer

    totals, notes = LayerTotals(), {}
    plain = traced = 0.0
    deadline = time.perf_counter() + seconds
    while True:
        inp = wl.next_input()
        secs, out = wl.run(inp)
        wl.check(inp, out, tally)
        t_secs, t_out = wl.run_traced(inp, tracer_factory, totals, notes, secs)
        wl.check(inp, t_out, tally)
        plain += secs
        traced += t_secs
        if time.perf_counter() >= deadline:
            break
    extra = {k: statistics.median(v) for k, v in notes.items()}
    extra["trace.overhead_ratio"] = traced / plain - 1.0
    return totals.metrics(extra)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    sys.path.insert(0, str(HERE))
    try:
        setup_s, tb, wl = set_up(args.workload, args.seed)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    problems = wl.self_check()
    if problems:
        for line in problems:
            print(f"perfbench: gate self-check: {line}", file=sys.stderr)
        return 1

    from workloads import Tally

    tally = Tally()
    report = {"workload": wl.name, "seed": args.seed, "sample": wl.sample,
              "environment": environment(tb), "gate_self_check": "ok"}
    if args.trace:
        metrics = measure_traced(tb, wl, tally, args.seconds)
        from spans import layer_names

        result_metrics = {k: {"value": metrics[k], "unit": u} for k, u in layer_names()}
        for k, v in result_metrics.items():
            print(f"{k:40s} {v['value']:.6g} {v['unit']}")
    else:
        samples = measure(wl, tally, args.seconds)
        setups = [setup_s] + [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        per_item = 1.0 / wl.items_per_sample
        secs = [x for _, x, _ in samples]
        cost = [(kind, c * per_item) for kind, _, c in samples]
        named = timing("op_ms", secs, "ms", 1000.0 * per_item)
        named.update(timing("op_ref.pooled", [c for _, c in cost], "ref", 1.0))
        for name, (values, unit, scale) in wl.report(secs).items():
            named.update(timing(name, values, unit, scale))
        result_metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
            "op_ref.p50": {"value": stratified(cost, statistics.median), "unit": "ref"},
        }
        report["setup_samples_s"] = setups
        report["named"] = named
        for k, v in named.items():
            level = f", p{v['level']:g}" if "level" in v else ""
            print(f"{k:28s} {v['value']:.6g} {v['unit']} (n={v['n']}{level})")
        for k, v in result_metrics.items():
            print(f"{k:28s} {v['value']:.6g} {v['unit']}")
    report["attempted"] = tally.attempted
    report["failed"] = tally.failed
    report["by_class"] = dict(tally.classes)
    report["failure_examples"] = tally.examples
    print(f"attempted {tally.attempted} failed {tally.failed} by class {dict(tally.classes)}")
    print("perfbench-report " + json.dumps(report))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": result_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
