"""Spans around bellbound's public functions, installed from outside.

``Tracer.install`` wraps every public function of every bellbound module,
and every public method of the classes those modules define, then rebinds
each name wherever a bellbound module (or the package) holds the original
object, so calls through ``from .x import f`` imports are traced too.  A
span records its name, the request it belongs to, start, end and parent
span; spans stay in memory and are written out at the end.  Counters
derived from arguments and results are kept at the same boundaries.
Nothing is printed, so the program's stdout is untouched.
"""

from __future__ import annotations

import importlib
import inspect
import json
import pkgutil
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import bellbound
from checks import is_half_integer


def bellbound_modules():
    modules = [bellbound]
    for info in pkgutil.iter_modules(bellbound.__path__):
        modules.append(importlib.import_module(f"bellbound.{info.name}"))
    return modules


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        # (name id, request, start, end, parent span index or -1)
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.request = -1
        self.counters = defaultdict(float)
        self.request_cubes: set = set()
        self.cubes_per_request = 0
        self.vertex_specs: set = set()
        self.max_dim = 0
        self._restore: list[tuple] = []

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------

    def _wrap(self, name: str, fn):
        name_id = self.name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        observe = OBSERVERS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1] if stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans[index] = (name_id, tracer.request, start, end, parent)
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def install(self):
        """Wrap the public surface; returns self for use in ``with``."""
        modules = bellbound_modules()
        replacement = {}
        for module in modules[1:]:
            short = module.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    replacement[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    self._wrap_methods(short, obj)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in replacement and replacement[id(obj)][0] is obj:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, replacement[id(obj)][1])
        return self

    def _wrap_methods(self, short: str, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if inspect.isfunction(raw):
                wrapped = self._wrap(f"{short}.{cls.__name__}.{attr}", raw)
            elif isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(f"{short}.{cls.__name__}.{attr}", raw.__func__))
            else:
                continue
            self._restore.append((cls, attr, raw))
            setattr(cls, attr, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def begin_request(self, index: int):
        self.request = index
        self.cubes_per_request += len(self.request_cubes)
        self.request_cubes = set()

    def finish(self):
        self.begin_request(-1)

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------

    def self_times(self):
        """Self seconds per span name.

        A span's self time is its duration minus the durations of its
        direct children, which is the part of its interval they cover.
        """
        child_time = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s = defaultdict(float)
        for k, (name_id, _, start, end, _) in enumerate(self.spans):
            self_s[self.names[name_id]] += end - start - child_time[k]
        return self_s

    def nested_calls(self, outer_prefix: str, inner: str):
        """(outermost calls named outer_prefix*, calls of inner inside one).

        An outermost call is one with no caller of the same prefix above
        it on its stack.
        """
        outer_ids = {k for k, name in enumerate(self.names) if name.startswith(outer_prefix)}
        inner_id = self.name_ids.get(inner, -1)
        outermost = nested = 0
        for name_id, _, _, _, parent in self.spans:
            if name_id not in outer_ids and name_id != inner_id:
                continue
            k = parent
            while k >= 0 and self.spans[k][0] not in outer_ids:
                k = self.spans[k][4]
            if name_id == inner_id:
                nested += k >= 0
            elif k < 0:
                outermost += 1
        return outermost, nested

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "fields": ["name", "request", "start", "end", "parent"],
                       "spans": self.spans}, fh)


# ----------------------------------------------------------------------------
# counters, keyed by span name; each sees the call's arguments and result
# ----------------------------------------------------------------------------


def _enumeration(tracer, args, kwargs, result):
    n_vars = args[0] if args else kwargs["n_vars"]
    pairs = args[1] if len(args) > 1 else kwargs["pairs"]
    use_exact = kwargs.get("use_exact", args[4] if len(args) > 4 else None)
    c = tracer.counters
    c["enumeration.enumerations"] += 1
    c["enumeration.evaluations"] += result[2]
    if use_exact is not False and is_half_integer(pairs):
        c["enumeration.exact_calls"] += 1
    tracer.request_cubes.add((n_vars, tuple(pairs)))


def _vertices(tracer, args, kwargs, result):
    tracer.counters["polytopes.vertices.rows"] += len(result)
    tracer.counters["polytopes.vertices.calls"] += 1
    tracer.vertex_specs.add(args[0] if args else kwargs["spec"])


def _membership(tracer, args, kwargs, result):
    tracer.counters["polytopes.membership.calls"] += 1
    tracer.counters["polytopes.membership.iterations"] += result.iterations


def _facet(tracer, args, kwargs, result):
    tracer.counters["polytopes.facet_check.calls"] += 1
    tracer.counters["polytopes.facet_check.tight_rows"] += result.tight_count


def _gram(tracer, args, kwargs, result):
    tracer.counters["optimize.gram_ascent.calls"] += 1
    tracer.counters["optimize.gram_ascent.restarts"] += len(result.restart_objectives)
    tracer.counters["optimize.gram_ascent.best_sweeps"] += result.sweeps


def _ratio(tracer, args, kwargs, result):
    tracer.counters["optimize.ratio_probe.instances"] += result.instances


def _realize(tracer, args, kwargs, result):
    tracer.max_dim = max(tracer.max_dim, result.dimension)


def _run_claims(tracer, args, kwargs, result):
    tracer.counters["reproduce.rows"] += len(result)


OBSERVERS = {
    "enumeration.max_over_signs": _enumeration,
    "polytopes.vertices": _vertices,
    "polytopes.membership": _membership,
    "polytopes.facet_check": _facet,
    "optimize.gram_ascent": _gram,
    "optimize.ratio_probe": _ratio,
    "tsirelson.realize": _realize,
    "reproduce.run_claims": _run_claims,
}
