"""Span tracing of tomobell, installed from outside the package.

Each wrapped function records one span per call: its name, the span that
was open when it was called (its parent) and its start and end times.
Wrappers are installed at the attributes the callers look up at call time
(for example ``tomobell.bell.minimize``, which ``maximize_bell`` calls, or
``tomobell.states.hermite_box``, which the Gaussian table calls), so the
package itself is not edited. Spans live in flat arrays, about 24 bytes
each; the few spans that carry attributes (an optimizer start's nfev, a
table's nmax, the class of an error) keep them in a side dict.

Layers are the package modules: ``states`` (state construction and
tomogram tables; ``numerics`` is folded in), ``hermite`` (the Gaussian
box fill), ``portrait`` (closed and truncated paths), ``bell`` (Bell
matrix, Bell number, the maximizer and scipy's Nelder-Mead under it) and
``cli``. ``errors`` does no work.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np


class Tracer:
    """Span recorder plus the set of wrappers it has installed."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.attrs = {}
        self._open = [-1]
        self._patches = []

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, describe=None):
        """Return ``fn`` wrapped so that each call records a span ``name``.

        ``describe(args, result, error)`` may return a dict of attributes
        kept with the span; it runs after the span has ended.
        """
        nid = self._name_id(name)
        clock = time.perf_counter
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        opened, attrs = self._open, self.attrs

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(nid)
            parents.append(opened[-1])
            ends.append(0.0)
            opened.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[sid] = clock()
                opened.pop()
                if describe is not None:
                    attrs[sid] = describe(args, None, exc)
                raise
            ends[sid] = clock()
            opened.pop()
            if describe is not None:
                found = describe(args, result, None)
                if found:
                    attrs[sid] = found
            return result

        return traced

    def patch(self, owner, attribute, name, describe=None):
        """Replace ``owner.attribute`` by its traced wrapper until uninstall."""
        owned = attribute in vars(owner)
        original = getattr(owner, attribute)
        self._patches.append((owner, attribute, original, owned))
        setattr(owner, attribute, self.wrap(name, original, describe))

    def uninstall(self):
        for owner, attribute, original, owned in reversed(self._patches):
            if owned:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)
        self._patches.clear()

    def clear(self):
        """Drop recorded spans; installed wrappers keep recording."""
        for a in (self.name, self.parent, self.start, self.end):
            del a[:]
        self.attrs.clear()
        del self._open[1:]

    def spans(self):
        """Per span name: durations and self times (numpy arrays), span ids.

        A span's self time is its duration minus the durations of its
        direct children. Spans still open are left out.
        """
        n = len(self.start)
        if n == 0:
            return {}
        name = np.array(self.name, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end) - np.array(self.start)
        closed = dur >= 0.0
        has_parent = (parent >= 0) & closed
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)[:n]
        own = dur - child
        out = {}
        for nid, label in enumerate(self.names):
            ids = np.flatnonzero((name == nid) & closed)
            if len(ids):
                out[label] = {"ids": ids, "dur": dur[ids], "self": own[ids]}
        return out


# ---------------------------------------------------------------------------
# the layer map: which attributes are wrapped, under which span name
# ---------------------------------------------------------------------------


def _describe_minimize(args, result, error):
    if error is not None:
        return {"error": type(error).__name__}
    return {
        "nfev": int(result.nfev),
        "nit": int(result.nit),
        "success": bool(result.success),
        "status": int(result.status),
        "message": str(result.message),
    }


def _describe_maximize(args, result, error):
    if error is not None:
        return {"error": type(error).__name__}
    errors = [e.split(":", 1)[0] for e in result.per_start_error if e is not None]
    return {"evaluations": int(result.evaluations), "start_errors": errors}


def _describe_truncated(args, result, error):
    nmax = args[4] if len(args) > 4 else None
    if error is not None:
        found = {"error": type(error).__name__, "nmax": nmax}
        if hasattr(error, "tail_deficit"):
            found["tail_deficit"] = float(error.tail_deficit)
        return found
    return {"tail_deficit": float(result.tail_deficit), "nmax": nmax}


def _describe_table(kind):
    def describe(args, result, error):
        return {"kind": kind, "nmax": int(args[3])}
    return describe


def _describe_box(args, result, error):
    shape = tuple(int(s) for s in args[1])
    return {"n": shape[0] - 1, "entries": int(np.prod(shape))}


def install(tracer, tb):
    """Wrap the public functions of every working layer of ``tb``.

    ``tb`` is the imported ``tomobell`` package with its submodules. Names
    imported into another module (``make_portrait_fn`` into ``bell`` and
    ``cli``) are wrapped where that module looks them up.
    """
    bell, portrait, states, cli = tb.bell, tb.portrait, tb.states, tb.cli
    tracer.patch(bell, "minimize", "bell.minimize", _describe_minimize)
    for mod in (bell, cli):
        tracer.patch(mod, "maximize_bell", "bell.maximize_bell", _describe_maximize)
        tracer.patch(mod, "bell_matrix", "bell.bell_matrix")
        tracer.patch(mod, "bell_number", "bell.bell_number")
    for mod in (portrait, bell, cli):
        tracer.patch(mod, "make_portrait_fn", "portrait.make_portrait_fn")
    for fn in ("cat_portrait_even_odd", "cat_portrait_zero_nonzero",
               "coherent_portrait_even_odd", "coherent_portrait_zero_nonzero"):
        tracer.patch(portrait, fn, "portrait.closed")
    # make_portrait_fn hands out these bound methods for Gaussian states
    tracer.patch(portrait.GaussianPortraitContext, "even_odd", "portrait.closed")
    tracer.patch(portrait.GaussianPortraitContext, "zero_nonzero", "portrait.closed")
    tracer.patch(portrait, "portrait_truncated", "portrait.truncated", _describe_truncated)
    for cls in (states.GaussianSpec, states.CatState, states.CoherentProduct):
        tracer.patch(cls, "__init__", "states.spec")
    for cls, kind in ((states.GaussianSource, "gaussian"), (states.CatSource, "cat"),
                      (states.CoherentSource, "coherent")):
        tracer.patch(cls, "tomogram_table", "states.table", _describe_table(kind))
    tracer.patch(states, "hermite_box", "hermite.hermite_box", _describe_box)
    tracer.patch(states, "hermite_eval", "hermite.hermite_eval")


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

TABLE_KINDS = ("gaussian", "cat", "coherent")
TABLE_NMAX = (15, 30)
REFUSALS = ("TailTooLarge", "NumericalNegativity")


def layer_names():
    """Every per-layer metric name with its unit, in report order."""
    out = [
        ("bell.minimize.calls", "count"),
        ("bell.minimize.self_s", "s"),
        ("bell.minimize.nfev_p50", "count"),
        ("bell.minimize.converged_ratio", "ratio"),
        ("bell.objective_us", "us"),
        ("bell.bell_matrix.self_us", "us"),
        ("bell.bell_number.us", "us"),
        ("portrait.closed.calls", "count"),
        ("portrait.closed.us_p50", "us"),
        ("portrait.make_portrait_fn.us", "us"),
        ("states.spec.us", "us"),
        ("portrait.truncated.calls", "count"),
        ("portrait.truncated.self_ms", "ms"),
    ]
    out += [(f"portrait.truncated.failed.{c}", "count") for c in REFUSALS]
    out.append(("portrait.tail_deficit_max", "prob"))
    out += [(f"states.table.ms.{k}.n{n}", "ms") for k in TABLE_KINDS for n in TABLE_NMAX]
    out += [(f"hermite.hermite_box.ms.n{n}", "ms") for n in TABLE_NMAX]
    out.append(("hermite.hermite_box.entries", "count"))
    out += [
        ("cli.import_s", "s"),
        ("cli.scan.point_s.max", "s"),
        ("cli.scan.parallel_efficiency", "ratio"),
        ("trace.spans", "count"),
        ("trace.overhead_ratio", "ratio"),
    ]
    return out


class LayerTotals:
    """Per-layer sums that can be merged across processes and runs.

    Medians are taken over the raw values kept in the lists, so merging
    keeps them exact.
    """

    def __init__(self):
        self.calls = {}
        self.total = {}
        self.own = {}
        self.counts = {}
        self.values = {}
        self.spans = 0

    def add(self, key, calls, total, own):
        self.calls[key] = self.calls.get(key, 0) + int(calls)
        self.total[key] = self.total.get(key, 0.0) + float(total)
        self.own[key] = self.own.get(key, 0.0) + float(own)

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + int(n)

    def extend(self, key, values):
        self.values.setdefault(key, []).extend(values)

    def absorb(self, tracer):
        """Fold the tracer's closed spans into the totals."""
        spans = tracer.spans()
        self.spans += sum(len(s["ids"]) for s in spans.values())
        for label, s in spans.items():
            if label == "states.table":
                for sid, d in zip(s["ids"], s["dur"]):
                    a = tracer.attrs[int(sid)]
                    self.extend(f"table.{a['kind']}.n{a['nmax']}", [float(d)])
                continue
            if label == "hermite.hermite_box":
                for sid, d in zip(s["ids"], s["dur"]):
                    a = tracer.attrs[int(sid)]
                    self.extend(f"box.n{a['n']}", [float(d)])
                    self.count("box.entries", a["entries"])
                continue
            self.add(label, len(s["ids"]), s["dur"].sum(), s["self"].sum())
            if label == "portrait.closed":
                self.extend("closed.dur", s["dur"].tolist())
            elif label == "bell.minimize":
                for sid in s["ids"]:
                    a = tracer.attrs.get(int(sid), {})
                    if "nfev" in a:
                        self.extend("minimize.nfev", [a["nfev"]])
                        self.extend("minimize.converged", [a["success"]])
            elif label == "bell.maximize_bell":
                for sid in s["ids"]:
                    self.count("maximize.evaluations", tracer.attrs[int(sid)].get("evaluations", 0))
            elif label == "portrait.truncated":
                for sid in s["ids"]:
                    a = tracer.attrs[int(sid)]
                    if "error" in a:
                        self.count("truncated.failed." + a["error"])
                    else:
                        self.extend("truncated.deficit", [a["tail_deficit"]])

    def to_json(self):
        return {"calls": self.calls, "total": self.total, "own": self.own,
                "counts": self.counts, "values": self.values, "spans": self.spans}

    def merge_json(self, doc):
        for key, calls in doc["calls"].items():
            self.add(key, calls, doc["total"][key], doc["own"][key])
        for key, n in doc["counts"].items():
            self.count(key, n)
        for key, values in doc["values"].items():
            self.extend(key, values)
        self.spans += doc["spans"]

    def metrics(self, extra):
        """All per-layer metrics; a layer that did no work reads 0.

        ``extra`` supplies the values measured around the spans rather than
        from them (cli import time, scan figures, tracing overhead).
        """
        def per_call(key, scale):
            c = self.calls.get(key, 0)
            return scale * self.own.get(key, 0.0) / c if c else 0.0

        def mean_dur(key, scale):
            c = self.calls.get(key, 0)
            return scale * self.total.get(key, 0.0) / c if c else 0.0

        def median(key, scale=1.0):
            v = self.values.get(key)
            return scale * float(np.median(v)) if v else 0.0

        converged = self.values.get("minimize.converged", [])
        evals = self.counts.get("maximize.evaluations", 0)
        m = {
            "bell.minimize.calls": self.calls.get("bell.minimize", 0),
            "bell.minimize.self_s": per_call("bell.minimize", 1.0),
            "bell.minimize.nfev_p50": median("minimize.nfev"),
            "bell.minimize.converged_ratio": (sum(converged) / len(converged)) if converged else 0.0,
            "bell.objective_us": (1e6 * self.total.get("bell.maximize_bell", 0.0) / evals) if evals else 0.0,
            "bell.bell_matrix.self_us": per_call("bell.bell_matrix", 1e6),
            "bell.bell_number.us": mean_dur("bell.bell_number", 1e6),
            "portrait.closed.calls": self.calls.get("portrait.closed", 0),
            "portrait.closed.us_p50": median("closed.dur", 1e6),
            "portrait.make_portrait_fn.us": mean_dur("portrait.make_portrait_fn", 1e6),
            "states.spec.us": mean_dur("states.spec", 1e6),
            "portrait.truncated.calls": self.calls.get("portrait.truncated", 0),
            "portrait.truncated.self_ms": per_call("portrait.truncated", 1e3),
        }
        for c in REFUSALS:
            m[f"portrait.truncated.failed.{c}"] = self.counts.get("truncated.failed." + c, 0)
        deficits = self.values.get("truncated.deficit")
        m["portrait.tail_deficit_max"] = max(deficits) if deficits else 0.0
        for k in TABLE_KINDS:
            for n in TABLE_NMAX:
                m[f"states.table.ms.{k}.n{n}"] = median(f"table.{k}.n{n}", 1e3)
        for n in TABLE_NMAX:
            m[f"hermite.hermite_box.ms.n{n}"] = median(f"box.n{n}", 1e3)
        m["hermite.hermite_box.entries"] = self.counts.get("box.entries", 0)
        m["trace.spans"] = self.spans
        for key in ("cli.import_s", "cli.scan.point_s.max", "cli.scan.parallel_efficiency",
                    "trace.overhead_ratio"):
            m[key] = extra.get(key, 0.0)
        return m
