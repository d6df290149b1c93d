"""Layer spans recorded from outside the package, by wrapping its entry points.

``Instrumentation(tracer).install()`` replaces the public functions of
every chordgenus module, the public methods of its classes (plus the
arithmetic dunders of ``Poly``, ``Series`` and ``BiSeries``) and the
pipeline step ``genfunc._pipeline_step`` with timing wrappers.  Names that one module
imported from another (``asymptotics.genus_polynomial``,
``genfunc.diagram_count_table``, the package's re-exports, ...) are
re-pointed at the same wrappers, so every route into a layer is seen.
``restore()`` puts the originals back.

A call opens a span only when it enters a layer from a different layer;
calls inside a layer fold into the span that entered it, so a layer's self
time is the time spent inside it minus the time of the other layers it
called.  Spans with the same name under the same parent are merged into one
node that counts its calls; a node keeps name, first start, last end,
parent and request id, and lives in memory until ``dump``.

The per-diagram ``diagrams._cycle_count`` is private and never wrapped, so
the oracle's work is counted from (2n-1)!! and involution numbers instead.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter
from fractions import Fraction

from workloads import compose_terms, double_factorial_odd, involutions

LAYERS = (
    "cli",
    "verify",
    "bruteforce",
    "diagrams",
    "recurrences",
    "genfunc",
    "series",
    "asymptotics",
)
ROOT = "bench"
ARITHMETIC = ("__add__", "__sub__", "__mul__", "__neg__", "__pow__", "__call__")
PINNED = {"genfunc._pipeline_step"}  # timed even when called from its own layer


class Node:
    __slots__ = ("name", "layer", "parent", "request", "calls", "total", "child", "start", "end")

    def __init__(self, name, layer, parent, request, start):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.request = request
        self.calls = 0
        self.total = 0.0
        self.child = 0.0
        self.start = start
        self.end = start

    @property
    def self_time(self) -> float:
        return self.total - self.child


class Tracer:
    """Merged span tree with per-request roots and work counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.nodes: list[Node] = []
        self.index: dict[tuple[int | None, str], int] = {}
        self.counters: Counter = Counter()
        self.stack: list[list] = []  # [node id, layer, start, child time]
        self.request: str | None = None

    def _node(self, parent: int | None, name: str, layer: str, start: float) -> int:
        k = (parent, name)
        nid = self.index.get(k)
        if nid is None:
            nid = len(self.nodes)
            self.nodes.append(Node(name, layer, parent, self.request, start))
            self.index[k] = nid
        return nid

    def enter(self, name: str, layer: str) -> list:
        now = self.clock()
        parent = self.stack[-1][0] if self.stack else None
        frame = [self._node(parent, name, layer, now), layer, now, 0.0]
        self.stack.append(frame)
        return frame

    def leave(self, frame: list) -> None:
        end = self.clock()
        popped = self.stack.pop()
        if popped is not frame:
            raise RuntimeError("span stack out of order")
        dur = end - frame[2]
        node = self.nodes[frame[0]]
        node.calls += 1
        node.total += dur
        node.child += frame[3]
        node.end = end
        if self.stack:
            self.stack[-1][3] += dur

    def current_layer(self) -> str | None:
        return self.stack[-1][1] if self.stack else None

    def begin_request(self, request_id: str) -> list:
        self.request = request_id
        return self.enter(f"request:{request_id}", ROOT)

    def end_request(self, frame: list) -> None:
        self.leave(frame)
        self.request = None

    # -- summaries

    def by_name(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds), summed over nodes."""
        out: dict[str, list] = {}
        for node in self.nodes:
            acc = out.setdefault(node.name, [0, 0.0, 0.0])
            acc[0] += node.calls
            acc[1] += node.total
            acc[2] += node.self_time
        return {k: tuple(v) for k, v in out.items()}

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """layer -> (spans, self seconds) for every layer in LAYERS."""
        out = {layer: [0, 0.0] for layer in LAYERS}
        for node in self.nodes:
            if node.layer in out:
                out[node.layer][0] += node.calls
                out[node.layer][1] += node.self_time
        return {k: tuple(v) for k, v in out.items()}

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for node in self.nodes:
                fh.write(
                    json.dumps(
                        {
                            "name": node.name,
                            "parent": node.parent,
                            "request": node.request,
                            "calls": node.calls,
                            "start": node.start,
                            "end": node.end,
                            "total_s": node.total,
                            "self_s": node.self_time,
                        }
                    )
                    + "\n"
                )


# ---------------------------------------------------------------------------
# work counters, computed from arguments and results at the layer boundary
# ---------------------------------------------------------------------------


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _count_compose(tracer, args, kwargs, result):
    inner = _arg(args, kwargs, 1, "inner")
    v = inner.valuation()
    tracer.counters["series.compose_terms"] += compose_terms(inner.order, v or 0)


def _count_full(tracer, args, kwargs, result):
    n_max = _arg(args, kwargs, 0, "n_max")
    tracer.counters["bruteforce.diagrams"] += sum(
        double_factorial_odd(n) for n in range(n_max + 1)
    )


def _count_partial(tracer, args, kwargs, result):
    n_max = _arg(args, kwargs, 0, "n_max")
    tracer.counters["bruteforce.diagrams"] += sum(involutions(n) for n in range(n_max + 1))


def _count_stream(tracer, args, kwargs, result):
    tracer.counters["bruteforce.diagrams"] += double_factorial_odd(_arg(args, kwargs, 0, "n"))


def _count_partial_stream(tracer, args, kwargs, result):
    tracer.counters["bruteforce.diagrams"] += involutions(_arg(args, kwargs, 0, "n"))


def _count_table(tracer, args, kwargs, result):
    g_max = _arg(args, kwargs, 0, "g_max")
    n_max = _arg(args, kwargs, 1, "n_max")
    tracer.counters["recurrences.table_cells"] += (g_max + 1) * (n_max + 1)


def _count_chain(tracer, args, kwargs, result):
    tracer.counters["asymptotics.sturm_chain_len"] += len(result)


def _count_root(tracer, args, kwargs, result):
    # halvings that take the search interval (0, search_to] to the bracket
    search_to = Fraction(_arg(args, kwargs, 2, "search_to", 2))
    width = result.hi - result.lo
    if width > 0:
        ratio = search_to / width
        steps = (-(-ratio.numerator // ratio.denominator) - 1).bit_length()
        tracer.counters["asymptotics.bisect_steps"] += steps


def _count_eval(tracer, args, kwargs, result):
    if tracer.current_layer() == "asymptotics":
        tracer.counters["asymptotics.poly_evals"] += 1


def _count_checks(tracer, args, kwargs, result):
    tracer.counters["verify.checks"] += len(result)


def _count_step(tracer, args, kwargs, result):
    tracer.counters["genfunc.pg_steps"] += 1


COUNTERS = {
    "series.Series.compose": _count_compose,
    "bruteforce.count_by_genus": _count_full,
    "bruteforce.count_by_genus_onechords": _count_full,
    "bruteforce.count_shapes": _count_full,
    "bruteforce.count_macromolecular_multi": _count_partial,
    "bruteforce.enumerate_chord_diagrams": _count_stream,
    "bruteforce.enumerate_partial_diagrams": _count_partial_stream,
    "recurrences.diagram_count_table": _count_table,
    "asymptotics.sturm_chain": _count_chain,
    "asymptotics.smallest_positive_root": _count_root,
    "series.Poly.__call__": _count_eval,
    "verify.run_suite": _count_checks,
    "genfunc._pipeline_step": _count_step,
}


# ---------------------------------------------------------------------------
# wrapping
# ---------------------------------------------------------------------------


def _wrap(tracer: Tracer, name: str, layer: str, fn):
    count = COUNTERS.get(name)
    pinned = name in PINNED
    enter, leave, stack = tracer.enter, tracer.leave, tracer.stack

    if inspect.isgeneratorfunction(fn):
        # time each step of the stream; the consumer's work between steps
        # belongs to whoever consumes it

        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            if count:
                count(tracer, args, kwargs, None)
            it = fn(*args, **kwargs)
            while True:
                frame = enter(name, layer)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    leave(frame)
                yield item

        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not pinned and stack and stack[-1][1] == layer:
            result = fn(*args, **kwargs)
        else:
            frame = enter(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(frame)
        if count:
            count(tracer, args, kwargs, result)
        return result

    return wrapper


def _targets(modules):
    """(owner, attribute, span name, layer, original) for every wrapped callable."""
    for layer, mod in modules.items():
        for attr, val in list(vars(mod).items()):
            if inspect.isclass(val) and val.__module__ == mod.__name__:
                for mname, member in list(vars(val).items()):
                    if mname.startswith("_") and mname not in ARITHMETIC:
                        continue
                    if inspect.isfunction(member):  # not properties or class/static methods
                        yield val, mname, f"{layer}.{val.__name__}.{mname}", layer, member
                continue
            if attr.startswith("_") and f"{layer}.{attr}" not in PINNED:
                continue
            if getattr(val, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(val) or hasattr(val, "cache_info"):
                yield mod, attr, f"{layer}.{attr}", layer, val


class Instrumentation:
    """Installs and removes the wrappers for one tracer."""

    def __init__(self, tracer: Tracer):
        self.modules = {layer: importlib.import_module(f"chordgenus.{layer}") for layer in LAYERS}
        self.package = importlib.import_module("chordgenus")
        self.tracer = tracer
        self.saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        wrapped: dict[int, object] = {}
        for owner, attr, name, layer, original in list(_targets(self.modules)):
            wrapper = _wrap(self.tracer, name, layer, original)
            wrapped[id(original)] = wrapper
            self._set(owner, attr, wrapper)
        # re-point names that other modules imported directly
        for mod in (*self.modules.values(), self.package):
            for attr, val in list(vars(mod).items()):
                wrapper = wrapped.get(id(val))
                if wrapper is not None:
                    self._set(mod, attr, wrapper)

    def _set(self, owner, attr, value) -> None:
        self.saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved.clear()


def _caches():
    for layer in LAYERS:
        for val in vars(importlib.import_module(f"chordgenus.{layer}")).values():
            if hasattr(val, "cache_info"):
                yield val


def clear_caches() -> None:
    """Empty every lru_cache in the package, so a pass starts cold.

    Call it with the wrappers removed: a wrapper does not expose the cache.
    """
    for cached in _caches():
        cached.cache_clear()


def cache_stats() -> tuple[int, int]:
    """(hits, misses) summed over every lru_cache in the package."""
    infos = [cached.cache_info() for cached in _caches()]
    return sum(i.hits for i in infos), sum(i.misses for i in infos)
