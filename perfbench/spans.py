"""Spans recorded around calls into the library, from outside it.

`Tracer.install` replaces every public function of the named layer
modules with a wrapper, at every binding inside the package that holds
the same function object: a function imported into another module (say
`best_choice_sequence` in `engine`, `treewidth` and `experiment`) is
traced wherever it is called from.  Each call records a span: span id,
name, start and end (ns), parent span id and op id.  Spans stay in memory
until `write` saves them at the end of a run.

A few wrappers also read counters at the call boundary, through the
library's public interfaces only: the `stats` dict that
`best_choice_sequence` accepts, the length of a replayed sequence, the
violations of an analysis report, the quotient size of a `MergeResult`
and the error field of an experiment row.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

SETUP_OP = -1  # op id of spans recorded while inputs are generated
IDLE_OP = -2  # op id outside set-up and ops

_FIELDS = ("span", "name", "start_ns", "end_ns", "parent", "op")


class _Span:
    __slots__ = ("tracer", "nid", "sid", "start")

    def __init__(self, tracer: "Tracer", nid: int):
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        tr = self.tracer
        self.sid = tr.next_id
        tr.next_id += 1
        tr.stack.append(self.sid)
        self.start = time.perf_counter_ns()

    def __exit__(self, *exc):
        end = time.perf_counter_ns()
        tr = self.tracer
        tr.stack.pop()
        tr.records.extend((self.sid, self.nid, self.start, end, tr.stack[-1], tr.op))
        return False


class NullTracer:
    """Stands in for a tracer in an untraced run."""

    op = IDLE_OP

    def span(self, name: str):
        return contextlib.nullcontext()


def _rule1_blocked(tr, fn, sig):
    def call(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        stats = bound.arguments.get("stats")
        if stats is None:
            stats = bound.arguments["stats"] = {}
        before = stats.get("rule1_blocked", 0)
        result = fn(*bound.args, **bound.kwargs)
        tr.event("engine.rule1_blocked", stats.get("rule1_blocked", 0) - before)
        return result
    return call


def _steps_replayed(tr, fn, sig):
    def call(*args, **kwargs):
        result = fn(*args, **kwargs)
        tr.event("engine.steps_replayed", len(sig.bind(*args, **kwargs).arguments["s"].steps))
        return result
    return call


def _violations(tr, fn, sig):
    def call(*args, **kwargs):
        report = fn(*args, **kwargs)
        tr.event("analysis.violations", len(report.violations))
        return report
    return call


def _quotient(tr, fn, sig):
    def call(*args, **kwargs):
        result = fn(*args, **kwargs)
        tr.event("treewidth.n_quotient", result.merge_map.n_quotient)
        tr.event("treewidth.n_original", result.merge_map.n_original)
        return result
    return call


def _trial_errors(tr, fn, sig):
    def call(*args, **kwargs):
        row = fn(*args, **kwargs)
        tr.event("experiment.trial_errors", 1 if row.error else 0)
        return row
    return call


# Wrappers that read a counter at the call boundary, by span name.
COUNTING = {
    "engine.best_choice_sequence": _rule1_blocked,
    "engine.apply_sequence": _steps_replayed,
    "analysis.analyze_sequence": _violations,
    "treewidth.merge_by_coloring": _quotient,
    "experiment.run_trial": _trial_errors,
}


class Tracer:
    """In-memory span and counter store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.records = array("q")  # flat: len(_FIELDS) integers per span
        self.events: list[tuple[int, str, int]] = []  # (op, counter, amount)
        self.stack = [-1]  # open span ids; -1 is the root
        self.next_id = 0
        self.op = IDLE_OP
        self._wrapped: dict[int, tuple[object, object]] = {}  # id(original) -> (original, wrapper)
        self._bindings: list[tuple[object, str, object, object]] = []

    def _nid(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def event(self, counter: str, amount: int) -> None:
        self.events.append((self.op, counter, amount))

    def span(self, name: str) -> _Span:
        """Context manager recording one span from the benchmark's own code."""
        return _Span(self, self._nid(name))

    def _wrap(self, name: str, fn):
        nid = self._nid(name)
        inner = fn
        counting = COUNTING.get(name)
        if counting is not None:
            inner = counting(self, fn, inspect.signature(fn))
        tr = self
        stack = self.stack
        records = self.records
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            sid = tr.next_id
            tr.next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                return inner(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                records.extend((sid, nid, start, end, parent, tr.op))

        return functools.update_wrapper(wrapper, fn)

    def install(self, package: str, layers) -> None:
        """Wrap each public function defined in `package.<layer>` at every
        binding of it in any loaded module of the package."""
        for layer in layers:
            mod = sys.modules[f"{package}.{layer}"]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    self._wrapped[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for mod in _package_modules(package):
            for attr, obj in list(vars(mod).items()):
                hit = self._wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._bindings.append((mod, attr, obj, hit[1]))

    def unwrapped(self, package: str) -> list[str]:
        """Bindings inside the package that still hold an original function."""
        out = []
        for mod in _package_modules(package):
            for attr, obj in vars(mod).items():
                hit = self._wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    out.append(f"{mod.__name__}.{attr}")
        return sorted(out)

    def uninstall(self) -> None:
        for mod, attr, original, wrapper in reversed(self._bindings):
            if getattr(mod, attr, None) is wrapper:
                setattr(mod, attr, original)
        self._bindings.clear()

    def spans(self):
        """Yield each span as a tuple laid out like `_FIELDS`."""
        r = self.records
        w = len(_FIELDS)
        for i in range(0, len(r), w):
            yield tuple(r[i:i + w])

    def write(self, directory: Path, stem: str) -> Path:
        """Save the spans (raw int64 records) and their layout and names."""
        directory.mkdir(parents=True, exist_ok=True)
        data = directory / f"{stem}.spans.bin"
        data.write_bytes(self.records.tobytes())
        (directory / f"{stem}.spans.json").write_text(json.dumps({
            "fields": list(_FIELDS),
            "int64_byteorder": sys.byteorder,
            "names": self.names,
            "spans": len(self.records) // len(_FIELDS),
        }, indent=1) + "\n")
        return data

    def summarize(self, counted_ops: set[int], timed_ops: int, setup_share: int) -> "Summary":
        """Aggregate self time and calls per span name.

        Self time is span time minus the time of its child spans.  Times
        of spans inside ops are divided by `timed_ops`; times of spans
        recorded during set-up by `setup_share`, the number of ops one
        pass over the generated inputs makes.  Calls and counters are
        taken over the ops in `counted_ops` only, so they repeat exactly.
        """
        child = defaultdict(int)
        for sid, nid, start, end, parent, op in self.spans():
            child[parent] += end - start
        setup_s = defaultdict(float)
        op_s = defaultdict(float)
        calls = defaultdict(int)
        for sid, nid, start, end, parent, op in self.spans():
            own = (end - start - child[sid]) / 1e9
            name = self.names[nid]
            if op == SETUP_OP:
                setup_s[name] += own / setup_share
            elif op >= 0:
                op_s[name] += own / timed_ops
                if op in counted_ops:
                    calls[name] += 1
        counters = defaultdict(int)
        for op, counter, amount in self.events:
            if op in counted_ops:
                counters[counter] += amount
        seen = {self.names[nid] for nid in set(self.records[1::len(_FIELDS)])}
        return Summary(dict(setup_s), dict(op_s), dict(calls), dict(counters),
                       len(counted_ops), seen)

    @property
    def span_count(self) -> int:
        return len(self.records) // len(_FIELDS)


@dataclass
class Summary:
    """Self seconds per op by span name, for spans in set-up and in ops;
    calls and counters per op over the counted ops; every name seen."""

    setup_s: dict[str, float]
    op_s: dict[str, float]
    calls: dict[str, int]
    counters: dict[str, int]
    counted: int
    seen: set[str]

    def seconds(self, name: str) -> float:
        return self.setup_s.get(name, 0.0) + self.op_s.get(name, 0.0)

    def layer_seconds(self, layer: str) -> float:
        return sum(self.seconds(n) for n in {*self.setup_s, *self.op_s} if _layer(n) == layer)

    def layer_op_seconds(self, layer: str) -> float:
        return sum(v for n, v in self.op_s.items() if _layer(n) == layer)

    def op_seconds(self) -> float:
        return sum(self.op_s.values())

    def per_op(self, name: str) -> float:
        return self.calls.get(name, 0) / self.counted

    def counter(self, name: str) -> float:
        return self.counters.get(name, 0) / self.counted


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def _package_modules(package: str):
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))]
