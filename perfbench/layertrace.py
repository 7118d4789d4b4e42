"""Layer spans for the qact benchmark, recorded from outside the package.

`install()` wraps the public functions of every qact module (the layers) and
the methods named in `METHODS`, and rebinds each wrapper under every name a
qact module binds the original to, so that a call through
`qact.actions.build_quaternion` is seen exactly like one through
`qact.groups.build_quaternion`.  Each wrapped call is
a span with a parent; a generator function is a span per resumption.  Spans
are aggregated per name (calls, self time, errors and counts read off the
results) and the first `SPAN_CAP` spans are kept whole for the trace file.

Nothing under `src/` knows about this module.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

LAYERS = ("groups", "cyclo", "reptheory", "decomp", "actions", "siegel", "curves", "reproduce", "cli")

# The cli layer is entered through `main` only: its subcommand handlers are
# bound into the parser, and their work (report assembly, golden diff) is
# counted as the self time of `cli.main`.
ENTRY_ONLY = {"cli": ("main",)}

# Public helpers that are the body of one traced group operation: the subgroup
# lattice under `maximal_subgroups` and the homomorphism sweep under
# `automorphisms` and `find_isomorphism`.  They are not spans, so the self time
# of those operations holds their cost.
FOLDED = ("groups.all_subgroups", "groups.two_generated_subgroups", "groups.extend_homomorphism")

# Methods are traced only where they are a layer operation of their own, under
# these span names.  Every function span is named `<layer>.<function>`.
METHODS = {
    "groups.FiniteGroup.__init__": "groups.build",
    "groups.FiniteGroup.maximal_subgroups": "groups.maximal_subgroups",
    "cyclo.Cyclotomic.__mul__": "cyclo.Cyclotomic.mul",
    "cyclo.Cyclotomic.__add__": "cyclo.Cyclotomic.add",
    "cyclo.Cyclotomic.inverse": "cyclo.Cyclotomic.inverse",
    "cyclo.PolyMatrix.__matmul__": "cyclo.PolyMatrix.matmul",
}

# Counts read off return values, summed over calls.
COUNTERS = {
    "actions.classify": lambda r: {"nodes": r.total, "orbits": r.orbit_count},
    "groups.automorphisms": lambda r: {"size": len(r)},
}

SPAN_CAP = 20000


class Stat:
    __slots__ = ("calls", "self_ns", "errors", "counts")

    def __init__(self):
        self.calls = 0
        self.self_ns = 0
        self.errors = 0
        self.counts: dict[str, int] = {}

    def add_counts(self, counts: dict[str, int]):
        for k, v in counts.items():
            self.counts[k] = self.counts.get(k, 0) + v

    def to_json(self) -> dict:
        return {"calls": self.calls, "self_s": self.self_ns / 1e9, "errors": self.errors, **self.counts}


class Tracer:
    """Span stack and per-name aggregates for one traced process."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.stats: dict[str, Stat] = {}
        # each frame is [span id, nanoseconds covered by child spans]
        self.stack: list[list[int]] = [[0, 0]]
        self.next_id = 1
        self.spans: list[tuple] = []
        self.span_count = 0

    def stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat())

    def _enter(self) -> tuple[list[int], int]:
        frame = [self.next_id, 0]
        self.next_id += 1
        self.stack.append(frame)
        return frame, time.perf_counter_ns()

    def _exit(self, name: str, stat: Stat, frame: list[int], start: int):
        end = time.perf_counter_ns()
        stack = self.stack
        stack.pop()
        duration = end - start
        stat.self_ns += duration - frame[1]
        parent = stack[-1]
        parent[1] += duration
        self.span_count += 1
        if len(self.spans) < SPAN_CAP:
            self.spans.append((frame[0], parent[0], name, start, end))

    def wrap_function(self, name: str, fn):
        stat = self.stat(name)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, stat, fn)
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stat.calls += 1
            frame, start = self._enter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat.errors += 1
                raise
            finally:
                self._exit(name, stat, frame, start)
            if counter is not None:
                stat.add_counts(counter(result))
            return result

        return traced

    def _wrap_generator(self, name: str, stat: Stat, fn):
        stat.counts["yielded"] = 0

        def resume(gen):
            while True:
                frame, start = self._enter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                except BaseException:
                    stat.errors += 1
                    raise
                finally:
                    self._exit(name, stat, frame, start)
                stat.counts["yielded"] += 1
                yield item

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stat.calls += 1
            return resume(fn(*args, **kwargs))

        return traced

    def layer_totals(self) -> dict[str, dict]:
        out = {layer: {"self_s": 0.0, "errors": 0} for layer in LAYERS}
        for name, st in self.stats.items():
            layer = name.split(".", 1)[0]
            out[layer]["self_s"] += st.self_ns / 1e9
            out[layer]["errors"] += st.errors
        return out

    def to_json(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "stats": {name: st.to_json() for name, st in sorted(self.stats.items())},
            "layers": self.layer_totals(),
            "span_count": self.span_count,
            "spans_kept": len(self.spans),
            "spans": [
                {"id": i, "parent": p, "name": n, "start_ns": s, "end_ns": e}
                for i, p, n, s, e in self.spans
            ],
        }

    def write(self, path: str):
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh)


def _public_functions(module):
    """(span name, function) for the traced functions defined in `module`."""
    layer = module.__name__.rsplit(".", 1)[1]
    allowed = ENTRY_ONLY.get(layer)
    for attr, obj in vars(module).items():
        name = f"{layer}.{attr}"
        if attr.startswith("_") or name in FOLDED or (allowed is not None and attr not in allowed):
            continue
        if callable(obj) and not inspect.isclass(obj) and getattr(obj, "__module__", None) == module.__name__:
            yield name, obj


def install(tracer: Tracer) -> None:
    """Wrap every layer of qact in place, recording into `tracer`."""
    modules = {layer: importlib.import_module(f"qact.{layer}") for layer in LAYERS}
    wrappers: dict[int, tuple[object, object]] = {}
    for mod in modules.values():
        for name, fn in _public_functions(mod):
            wrappers[id(fn)] = (fn, tracer.wrap_function(name, fn))
    for key, name in METHODS.items():
        layer, cls_name, attr = key.split(".")
        cls = getattr(modules[layer], cls_name)
        setattr(cls, attr, tracer.wrap_function(name, vars(cls)[attr]))
    # rebind at every name any layer binds the original to, its own included
    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            fn, wrapper = wrappers.get(id(obj), (None, None))
            if fn is obj:
                setattr(mod, attr, wrapper)
