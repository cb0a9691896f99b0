"""Outside-in tracing: wrap rigidpack's functions from the benchmark.

Nothing under src/ is edited. `install` wraps every public function and
public method of the seven traced modules, then rebinds each wrapped name
in every rigidpack namespace that holds the original (modules that use
`from .x import y` and the package's re-exports included). Generator
functions are left alone, since a wrapper would only time their creation.

Spans are kept in memory as an aggregated call tree (one root per job
kind) and written out when the run ends. A layer's self time is the time
during which its span is the innermost open span.
"""

from __future__ import annotations

import functools
import gc
import inspect
import json
import sys
import time
from collections import Counter
from functools import cached_property

LAYERS = ("graph", "setfuncs", "sparsity", "packing", "orientation", "oracle",
          "cli")

CONNECTIVITY = {f"graph.MultiGraph.{name}" for name in (
    "edge_connectivity", "local_edge_connectivity", "essential_edge_connectivity",
    "vertex_connectivity")}
PAIR_SWEEPS = {f"packing.{name}" for name in (
    "check_weakly_connected", "check_rigid_necessary", "check_rigid_sufficient",
    "check_pack_basic", "check_pack_refined", "check_pack_degree")}

# per-layer metric -> (kind, function keys); "calls" counts every call,
# "incl" sums the time of calls that have no same-key ancestor
KEYED_METRICS = {
    "graph.connectivity_calls": ("calls", CONNECTIVITY),
    "graph.connectivity_s": ("incl", CONNECTIVITY),
    "sparsity.gather_calls": ("calls", {"sparsity.PebbleState.gather"}),
    "sparsity.probe_calls": ("calls", {"sparsity.PebbleState.probe_pair"}),
    "sparsity.rebuild_calls": ("calls", {"sparsity.CountMatroid.rebuild"}),
    "sparsity.rebuild_s": ("incl", {"sparsity.CountMatroid.rebuild"}),
    "packing.union_calls": ("calls", {"packing.matroid_union_pack"}),
    "packing.union_s": ("incl", {"packing.matroid_union_pack"}),
    "packing.certificate_s": ("incl", {"packing.structure_partition"}),
    "packing.sweep_calls": ("calls", PAIR_SWEEPS),
    "packing.sweep_s": ("incl", PAIR_SWEEPS),
    "oracle.partition_calls": ("calls", {"oracle.bf_partition_connected"}),
    "oracle.partition_s": ("incl", {"oracle.bf_partition_connected"}),
    "orientation.robust_s": ("incl", {"orientation.robust_arc_strong"}),
    "orientation.euler_calls": ("calls", {"orientation.euler_orient"}),
    "orientation.hakimi_calls": ("calls", {"orientation.hakimi_orient"}),
    "orientation.hakimi_s": ("incl", {"orientation.hakimi_orient"}),
    "setfuncs.value_calls": ("calls", {"setfuncs.SetFunc.value"}),
    "cli.verify_s": ("incl", {"cli.cmd_verify"}),
}


class Node:
    """One call path of the aggregated span tree."""

    __slots__ = ("calls", "total", "self_time", "children")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.children: dict = {}


class Tracer:
    def __init__(self):
        self.active = False
        self.roots: dict[str, Node] = {}
        self.stack: list = []      # frames: [node, layer, start, child_time]
        self.layer_self: Counter = Counter()
        self.counters: Counter = Counter()
        self.originals: dict[int, object] = {}   # id(original) -> original
        self.wrappers: list = []
        self.bindings = 0

    # -- spans --------------------------------------------------------

    def job(self, kind: str, fn):
        """Run one job under a root span named after its kind."""
        root = self.roots.get(kind)
        if root is None:
            root = self.roots[kind] = Node()
        frame = [root, "bench", time.perf_counter(), 0.0]
        self.stack.append(frame)
        self.active = True
        try:
            return fn()
        finally:
            self.active = False
            self._close(frame)

    def _close(self, frame) -> None:
        self.stack.pop()
        node, layer, start, child = frame
        duration = time.perf_counter() - start
        node.calls += 1
        node.total += duration
        node.self_time += duration - child
        self.layer_self[layer] += duration - child
        if self.stack:
            self.stack[-1][3] += duration

    def wrap(self, key: str, layer: str, fn, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = tracer.stack[-1][0]
            node = parent.children.get(key)
            if node is None:
                node = parent.children[key] = Node()
            frame = [node, layer, time.perf_counter(), 0.0]
            tracer.stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame)
            if on_result is not None:
                on_result(tracer.counters, args, kwargs, result)
            return result

        self.originals[id(fn)] = fn
        self.wrappers.append(wrapper)
        return wrapper

    # -- derived metrics ----------------------------------------------

    def _walk(self):
        """Yield (key, node, has_same_key_ancestor) over every path."""
        stack = [(node, frozenset(), None) for node in self.roots.values()]
        while stack:
            node, ancestors, key = stack.pop()
            if key is not None:
                yield key, node, key in ancestors
                ancestors = ancestors | {key}
            for child_key, child in node.children.items():
                stack.append((child, ancestors, child_key))

    def call_counts(self) -> Counter:
        calls: Counter = Counter()
        for key, node, _ in self._walk():
            calls[key] += node.calls
        return calls

    def layer_metrics(self, rounds: int) -> dict:
        calls = self.call_counts()
        incl: Counter = Counter()
        for key, node, nested in self._walk():
            if not nested:
                incl[key] += node.total
        out = {}
        for name, (kind, keys) in KEYED_METRICS.items():
            if kind == "calls":
                out[name] = (sum(calls[k] for k in keys) / rounds, "count")
            else:
                out[name] = (sum(incl[k] for k in keys) / rounds, "s")
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self.layer_self[layer] / rounds, "s")
        out["bench.self_s"] = (self.layer_self["bench"] / rounds, "s")
        c = self.counters
        out["sparsity.probe_blocked_ratio"] = (
            _ratio(c["probe_blocked"], calls["sparsity.PebbleState.probe_pair"]), "ratio")
        out["packing.usable_edges"] = (c["union_usable"] / rounds, "count")
        out["packing.covered_ratio"] = (
            _ratio(c["union_covered"], c["union_usable"]), "ratio")
        return out

    def dump(self, path: str, meta: dict) -> None:
        def tree(node: Node) -> dict:
            return {"calls": node.calls, "total_s": node.total,
                    "self_s": node.self_time,
                    "children": {k: tree(v) for k, v in node.children.items()}}

        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta,
                       "spans": {k: tree(v) for k, v in self.roots.items()}},
                      fh, indent=1, sort_keys=True)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _probe_result(counters, args, kwargs, result) -> None:
    counters["probe_blocked"] += result is not None


def _union_result(counters, args, kwargs, result) -> None:
    host = args[0]
    forbidden = set(kwargs.get("forbidden", args[2] if len(args) > 2 else ()))
    allowed = kwargs.get("allowed", args[3] if len(args) > 3 else None)
    usable = sum(1 for e in range(host.m) if e not in forbidden
                 and (allowed is None or e in allowed))
    counters["union_usable"] += usable
    counters["union_covered"] += result.covered()


HOOKS = {"sparsity.PebbleState.probe_pair": _probe_result,
         "packing.matroid_union_pack": _union_result}


def _traced_members(package):
    """(module, owner, attribute, key, object) for every function to wrap."""
    for layer in LAYERS:
        mod = getattr(package, layer)
        for name, obj in list(vars(mod).items()):
            if name.startswith("_"):
                continue
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                yield layer, mod, name, f"{layer}.{name}", obj
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for attr, member in list(vars(obj).items()):
                    if attr.startswith("_"):
                        continue
                    yield layer, obj, attr, f"{layer}.{obj.__name__}.{attr}", member


def install(tracer: Tracer, package) -> None:
    """Wrap every traced function and rebind it in every rigidpack namespace."""
    replaced: dict[int, object] = {}
    for layer, owner, attr, key, obj in _traced_members(package):
        hook = HOOKS.get(key)
        if inspect.isfunction(obj):
            if inspect.isgeneratorfunction(obj):
                continue
            wrapper = tracer.wrap(key, layer, obj, hook)
            if inspect.isclass(owner):
                setattr(owner, attr, wrapper)
            replaced[id(obj)] = wrapper
        elif isinstance(obj, (classmethod, staticmethod)):
            inner = obj.__func__
            setattr(owner, attr, type(obj)(tracer.wrap(key, layer, inner, hook)))
        elif isinstance(obj, cached_property):
            obj.func = tracer.wrap(key, layer, obj.func, hook)
    # rebind aliases too, such as a class attribute `__call__ = value`
    for mod in _package_modules(package):
        for space in [mod] + [c for c in vars(mod).values() if inspect.isclass(c)]:
            for name, val in list(vars(space).items()):
                wrapper = replaced.get(id(val))
                if wrapper is not None and val is not wrapper:
                    setattr(space, name, wrapper)
                    tracer.bindings += 1


def _package_modules(package):
    prefix = package.__name__ + "."
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == package.__name__ or name.startswith(prefix))]


def unwrapped_references(tracer: Tracer, package) -> list[str]:
    """Places where an original of a wrapped function is still reachable.

    Checks every rigidpack namespace and class by name, then asks the
    garbage collector for any other holder (default arguments, dispatch
    tables, closures); only the tracer's own wrappers may hold originals.
    """
    found = []
    for mod in _package_modules(package):
        for name, val in vars(mod).items():
            if id(val) in tracer.originals:
                found.append(f"{mod.__name__}.{name}")
            if inspect.isclass(val):
                for attr, member in vars(val).items():
                    inner = getattr(member, "__func__", None) \
                        or getattr(member, "func", None) or member
                    if id(inner) in tracer.originals:
                        found.append(f"{mod.__name__}.{name}.{attr}")
    allowed = {id(tracer.originals)}
    for w in tracer.wrappers:
        allowed.add(id(w.__dict__))
        for cell in w.__closure__ or ():
            allowed.add(id(cell))
    gc.collect()
    for fn in tracer.originals.values():
        for ref in gc.get_referrers(fn):
            if id(ref) in allowed or inspect.isframe(ref):
                continue
            found.append(f"{fn.__module__}.{fn.__qualname__} held by "
                         f"{type(ref).__name__}")
    return sorted(set(found))
