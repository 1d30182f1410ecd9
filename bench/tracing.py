"""Per-layer tracing installed from outside the library.

``install`` wraps the public functions of every tgkz layer module, plus the
few methods in METHODS, and re-binds each wrapped object wherever a tgkz
module or class holds it, so a name brought in with ``from .poly import
...`` is traced in the importing module too.  No file of the library
changes.

A span records name, start, end, parent span and job.  Spans stay in memory
and are written out at the end of the round.  Spans opened on a worker
thread take as parent the main thread's innermost open span, which is the
caller waiting on the pool.

A wrapped ``lru_cache`` function gets a fresh cache around the wrapper, so
its ``calls`` count executions of the body, not cache hits.
"""

import functools
import inspect
import itertools
import json
import sys
import threading
import time

LAYERS = ("problem", "report", "cones", "semigroups", "lattice", "fieldlin",
          "binomials", "poly", "cyclotomic", "weyl", "systems", "duality")

METHODS = {
    "cyclotomic": {"Cyclotomic": ("inverse", "__mul__")},
    "lattice": {"Functional": ("__call__",)},
    "poly": {"Polynomial": ("leading",)},
}

# Called so often that a span per call would dominate the traced run:
# these are counted, and their time falls to the calling span.
COUNT_ONLY = {
    "cyclotomic.Cyclotomic.__mul__",
    "cyclotomic.cyclotomic_polynomial",
    "lattice.Functional.__call__",
    "poly.Polynomial.leading",
    "semigroups.member_semigroup",
}

# Metric names that differ from the traced function's qualified name.
ALIASES = {
    "cyclotomic.inverse": "cyclotomic.Cyclotomic.inverse",
    "cyclotomic.mul": "cyclotomic.Cyclotomic.__mul__",
}

# Work counts, summed over calls: taken from the arguments before the call
# or from the result after it.
BEFORE = {
    "cyclotomic.Cyclotomic.inverse": ("rational", lambda x: x.is_rational()),
}
AFTER = {
    "poly.buchberger": ("basis_size", len),
    "poly.module_groebner": ("basis_size", len),
    "systems.bbgkz_primitive_presentation":
        ("relations", lambda pres: len(pres.relations)),
    "semigroups.cone_points_up_to": ("points", len),
}

START, END, PARENT, JOB, WORK = 1, 2, 3, 4, 5


def self_times(spans):
    """Each span's duration minus the part of it its child spans cover.

    ``spans`` holds ``(start, end, parent index or None)`` with every parent
    listed before its children.  Children on different threads may overlap
    each other; the union of their intervals is what counts."""
    children = [[] for _ in spans]
    for i, (_, _, parent) in enumerate(spans):
        if parent is not None:
            children[parent].append(i)
    out = []
    for (start, end, _), kids in zip(spans, children):
        covered, reach = 0.0, start
        for lo, hi in sorted((max(spans[k][0], start), min(spans[k][1], end))
                             for k in kids):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def outermost(names, parents):
    """Whether each span has no ancestor of the same name, so that summing
    durations over these spans counts recursive time once."""
    out = []
    for name, parent in zip(names, parents):
        while parent is not None and names[parent] != name:
            parent = parents[parent]
        out.append(parent is None)
    return out


class Tracer:
    def __init__(self):
        self.job = -1           # index of the running job; -1 is set-up
        self.spans = []         # [name, start, end, parent span, job, work]
        self.counters = {}      # name -> (jobs, set-up) itertools.count pair
        self.span_names = set()
        self._local = threading.local()
        self._main = self._local.stack = []

    def _span(self, name, fn):
        before = BEFORE.get(name, (None, None))[1]
        after = AFTER.get(name, (None, None))[1]
        spans, local, main, clock = self.spans, self._local, self._main, \
            time.perf_counter
        tracer = self
        self.span_names.add(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else (main[-1] if main else None)
            span = [name, 0.0, 0.0, parent, tracer.job,
                    before(*args) if before else 0]
            spans.append(span)
            stack.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if after:
                span[WORK] = after(result)
            return result
        return wrapper

    def _counted(self, name, fn):
        counts = self.counters[name] = (itertools.count(), itertools.count())
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            next(counts[tracer.job < 0])
            return fn(*args, **kwargs)
        return wrapper

    def wrap(self, name, fn):
        cache = getattr(fn, "cache_parameters", None)
        inner = fn.__wrapped__ if cache else fn
        if name in COUNT_ONLY or inspect.isgeneratorfunction(inner):
            wrapped = self._counted(name, inner)
        else:
            wrapped = self._span(name, inner)
        if cache:
            wrapped = functools.lru_cache(**cache())(wrapped)
        return wrapped

    def _parent_indices(self):
        index = {id(span): i for i, span in enumerate(self.spans)}
        return [None if s[PARENT] is None else index[id(s[PARENT])]
                for s in self.spans]

    def summary(self):
        """Statistics of everything traced so far, for the jobs and for
        set-up (spec parsing) apart: ``{"jobs": ..., "setup": ...}``.

        Each phase has ``functions``: ``calls``, and for spans also
        ``time_s`` (outermost spans only), ``self_s`` and any work count;
        and ``layers``: ``calls`` and ``self_s`` summed over functions."""
        parents = self._parent_indices()
        names = [s[0] for s in self.spans]
        selfs = self_times([(s[START], s[END], p)
                            for s, p in zip(self.spans, parents)])
        top = outermost(names, parents)
        work_stat = {n: s for n, (s, _) in {**BEFORE, **AFTER}.items()}
        out = {}
        for phase, in_setup in (("jobs", False), ("setup", True)):
            functions = {}
            for name in self.span_names:
                functions[name] = {"calls": 0, "time_s": 0.0, "self_s": 0.0}
                if name in work_stat:
                    functions[name][work_stat[name]] = 0
            for span, own, is_top in zip(self.spans, selfs, top):
                if (span[JOB] < 0) != in_setup:
                    continue
                entry = functions[span[0]]
                entry["calls"] += 1
                entry["self_s"] += own
                if is_top:
                    entry["time_s"] += span[END] - span[START]
                if span[0] in work_stat:
                    entry[work_stat[span[0]]] += span[WORK]
            for name, counts in self.counters.items():
                functions[name] = {"calls": next(counts[in_setup])}
            layers = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
            for name, entry in functions.items():
                layer = layers[name.split(".")[0]]
                layer["calls"] += entry["calls"]
                layer["self_s"] += entry.get("self_s", 0.0)
            out[phase] = {"functions": functions, "layers": layers}
        return out

    def write_spans(self, path, job_names):
        parents = self._parent_indices()
        with open(path, "w", encoding="utf-8") as fh:
            for span, parent in zip(self.spans, parents):
                fh.write(json.dumps({
                    "name": span[0], "start": span[START], "end": span[END],
                    "parent": parent,
                    "job": "setup" if span[JOB] < 0 else job_names[span[JOB]],
                }) + "\n")


def install(package):
    """Wrap the layers of an imported package; returns the Tracer."""
    tracer = Tracer()
    prefix = package.__name__
    modules = [m for n, m in sorted(sys.modules.items())
               if n == prefix or n.startswith(prefix + ".")]
    wrapped = {}  # id(original) -> (original, wrapper)
    for layer in LAYERS:
        module = sys.modules[f"{prefix}.{layer}"]
        for attr, obj in vars(module).items():
            if (not attr.startswith("_")
                    and getattr(obj, "__module__", None) == module.__name__
                    and (inspect.isfunction(obj) or hasattr(obj, "cache_info"))):
                wrapped[id(obj)] = (obj, tracer.wrap(f"{layer}.{attr}", obj))
        for cls_name, methods in METHODS.get(layer, {}).items():
            for method in methods:
                obj = vars(getattr(module, cls_name))[method]
                name = f"{layer}.{cls_name}.{method}"
                wrapped[id(obj)] = (obj, tracer.wrap(name, obj))

    def rebind(namespace):
        for attr, obj in list(vars(namespace).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(namespace, attr, hit[1])

    for module in modules:
        rebind(module)
        for obj in list(vars(module).values()):
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                rebind(obj)
    return tracer
