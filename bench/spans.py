"""Span tracing for one benchmark job, installed from outside the package.

``Tracer.install()`` replaces every public function and public method of
the padicwave layer modules with a wrapper, at every module attribute that
names it: ``padicwave.solver.inverse`` is wrapped as well as
``padicwave.fourier.inverse``, so nested calls are seen whichever module
makes them.  Each call records a span (name, start, end, parent span); a
child process runs exactly one job, so every span of the process carries
that job's id.  Spans stay in memory until ``summary()`` reduces them to
per-name call counts, inclusive time and self time, where self time is a
span minus the spans of its direct children.
"""

from __future__ import annotations

import array
import dataclasses
import functools
import importlib
import inspect
import time
from fractions import Fraction

LAYERS = (
    "padic", "phases", "lattice", "functions", "fourier",
    "vladimirov", "solver", "acceptance", "cli",
)

# Scalar helpers that run once per table value or per coset pair.  A span
# each would cost more than the work inside them, so they are counted only.
COUNT_ONLY = frozenset({
    "padic.rational_valuation",
    "padic.phase_to_complex",
    "phases.PhaseSum",
    "phases.is_exact_value",
    "phases.value_to_complex",
    "phases.value_add",
    "phases.value_scale",
    "phases.reduce_value",
    "phases.values_equal",
    "lattice.as_fraction_vector",
    "lattice.vector_norm_exponent",
    "lattice.coset_representative",
    "lattice.vector_representative",
})

# The fractional part {x}_p is counted where the transform and the oracles
# take it; padic's own uses of it are not counted.
FRACTIONAL_PART = "padic.rational_fractional_part"
FRACTIONAL_PART_SITES = ("acceptance", "fourier")
FRACTIONAL_PART_COUNT = "padic.fractional_part"

# cli keeps a single span for its entry point, so config parsing and the
# CSV and JSON writers show as cli.main's self time.
CLI_ENTRY = "cli.main"


class Tracer:
    """Records spans of the padicwave calls made in this process."""

    def __init__(self, job_id: str):
        self.job_id = job_id
        self.paused = False
        self.name_ids: dict[str, int] = {}
        self.names = array.array("i")
        self.parents = array.array("i")
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.stack = [-1]
        self.counts: dict[str, list[int]] = {}
        # work counters filled by the post-call hooks below
        self.pairs = 0
        self.exact_outputs = 0
        self.rational_outputs = 0
        self.as_rational_none = 0
        self.cosets = 0

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"padicwave.{layer}") for layer in LAYERS}
        sites = [importlib.import_module("padicwave"), *modules.values()]
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if inspect.isclass(obj):
                    self._wrap_class(name, obj)
                elif inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                    if name == FRACTIONAL_PART or (layer == "cli" and name != CLI_ENTRY):
                        continue
                    _rebind(sites, obj, self._wrap(name, obj))
        padic = modules["padic"]
        raw = getattr(padic, FRACTIONAL_PART.split(".")[1], None)
        if raw is not None:
            counted = self._counter(FRACTIONAL_PART_COUNT, raw)
            _rebind([modules[s] for s in FRACTIONAL_PART_SITES], raw, counted)

    def _wrap_class(self, name: str, cls: type) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr == "__init__":
                if dataclasses.is_dataclass(cls):
                    continue
                span_name = name
            elif attr.startswith("_"):
                continue
            else:
                span_name = f"{name}.{attr}"
            if isinstance(raw, (staticmethod, classmethod)):
                fn = raw.__func__
                if inspect.isfunction(fn) and not inspect.isgeneratorfunction(fn):
                    setattr(cls, attr, type(raw)(self._wrap(span_name, fn)))
            elif inspect.isfunction(raw) and not inspect.isgeneratorfunction(raw):
                setattr(cls, attr, self._wrap(span_name, raw))

    def _wrap(self, name: str, fn):
        if name in COUNT_ONLY:
            return self._counter(name, fn)
        return self._span(name, fn, _POST_HOOKS.get(name))

    def _counter(self, name: str, fn):
        cell = self.counts.setdefault(name, [0])

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if not self.paused:
                cell[0] += 1
            return fn(*args, **kwargs)

        return counted

    def _span(self, name: str, fn, post):
        nid = self.name_ids.setdefault(name, len(self.name_ids))
        names, parents, starts, ends, stack = (
            self.names, self.parents, self.starts, self.ends, self.stack
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if post is not None:
                self.paused = True
                try:
                    post(self, args, result)
                finally:
                    self.paused = False
            return result

        return spanned

    # -- reduction ---------------------------------------------------------

    def summary(self) -> dict:
        """Per-name calls, inclusive seconds ("s") and self seconds."""
        by_id = {nid: name for name, nid in self.name_ids.items()}
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        count = len(names)
        child_time = [0.0] * count
        for i in range(count):
            if parents[i] >= 0:
                child_time[parents[i]] += ends[i] - starts[i]
        stats: dict[str, dict] = {}
        for i in range(count):
            duration = ends[i] - starts[i]
            entry = stats.setdefault(by_id[names[i]], {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += duration - child_time[i]
            # inclusive time counts only the outermost span of a recursive name
            anc = parents[i]
            while anc >= 0 and names[anc] != names[i]:
                anc = parents[anc]
            if anc < 0:
                entry["s"] += duration
        for name, cell in self.counts.items():
            stats.setdefault(name, {"calls": 0})["calls"] = cell[0]
        return {
            "job": self.job_id,
            "spans": count,
            "stats": stats,
            "work": {
                "fourier.pairs": self.pairs,
                "fourier.exact_outputs": self.exact_outputs,
                "fourier.rational_outputs": self.rational_outputs,
                "phases.as_rational_none": self.as_rational_none,
                "lattice.cosets": self.cosets,
            },
        }


def _rebind(sites, obj, wrapped) -> None:
    for site in sites:
        for attr, value in list(vars(site).items()):
            if value is obj:
                setattr(site, attr, wrapped)


# -- post-call hooks: work counts read off arguments and results ----------


def _after_transform(tracer: Tracer, args, result) -> None:
    nonzero = sum(1 for _, v in args[0].items() if v != 0)
    outputs = 0
    for _, v in result.items():
        outputs += 1
        if not isinstance(v, (float, complex)):
            tracer.exact_outputs += 1
            if isinstance(v, (int, Fraction)):
                tracer.rational_outputs += 1
    tracer.pairs += nonzero * outputs


def _after_as_rational(tracer: Tracer, args, result) -> None:
    if result is None:
        tracer.as_rational_none += 1


def _after_enumerate_cosets(tracer: Tracer, args, result) -> None:
    tracer.cosets += len(result)


_POST_HOOKS = {
    "fourier.forward": _after_transform,
    "fourier.inverse": _after_transform,
    "phases.PhaseSum.as_rational": _after_as_rational,
    "lattice.enumerate_cosets": _after_enumerate_cosets,
}
