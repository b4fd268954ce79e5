"""Per-layer tracing from outside the library.

The layers are tropabel's modules.  `Tracer.install` wraps each public
function of those modules and rebinds the wrapper under every module
attribute that holds the function (the modules import each other's names
with `from .x import y`, so a call between modules goes through such an
attribute).  A wrapper opens a span when the call starts and closes it when
the call returns.  Self time is the span's duration minus the time covered
by the spans it caused.

Spans below an operation are folded into per-function totals the moment
they close, so memory stays flat however many calls an operation makes;
each operation's span is kept whole, with its self time per layer, and all
of it is written out when the run ends.
"""

import importlib
import json
from time import perf_counter

LAYERS = ("graph", "divisor", "flow", "cone", "linalg", "abelfan", "metric", "semigroup", "cli")

# arithmetic helpers called millions of times per run: their cost is
# counted as self time of the function that calls them
UNWRAPPED = {"dot", "vec_add", "vec_sub", "vec_scale", "is_zero", "primitive",
             "sign_normalize", "exceptional_id"}

# methods wrapped like functions: (layer, class, method)
METHODS = (("cone", "Cone", "from_halfspaces"), ("cone", "Cone", "from_rays"))

# methods whose calls are only counted (too hot to time)
COUNTED = (("semigroup", "Monomial", "divides"),)

# result sizes recorded at span close: function -> counter name, size
YIELDS = {
    "flow.acyclic_orientations": ("flow.acyclic_orientations.yielded", len),
    "flow.flows_with_divisor": ("flow.flows_with_divisor.yielded", len),
    "flow.enumerate_admissible": ("flow.pairs.kept", len),
    "divisor.enumerate_quasistable": ("divisor.quasistable.kept", lambda r: len(r.elements)),
    "semigroup.ray_power_intersection": ("semigroup.generators", lambda r: len(r[0].gens)),
}

SELF = (
    "divisor.enumerate_quasistable", "flow.enumerate_admissible", "abelfan.merged_cone",
    "abelfan.locate_point", "cone.from_halfspaces", "abelfan.build_fan", "abelfan.cone_faces",
    "cli.main", "metric.abel_eval", "graph.stable_reduction",
    "semigroup.ray_power_intersection", "semigroup.intersect_ideals",
)
CALLS = (
    "divisor.is_quasistable", "abelfan.merged_cone", "cone.from_halfspaces", "linalg.rank",
    "linalg.solve", "linalg.nullspace", "abelfan.cone_faces", "graph.contract",
    "graph.subdivide", "semigroup.intersect_ideals",
)


def per_layer_metrics():
    """(name, unit, better) of every per-layer metric, in output order."""
    out = [(f"{layer}.self_s", "s/op", "lower") for layer in LAYERS]
    out += [(f"{f}.self_s", "s/op", "lower") for f in SELF]
    out += [(f"{f}.calls", "count/op", "lower") for f in CALLS]
    out += [
        ("semigroup.divides.calls", "count/op", "lower"),
        ("flow.acyclic_orientations.yielded", "count/op", "lower"),
        ("flow.flows_with_divisor.yielded", "count/op", "lower"),
        ("flow.pairs.kept", "count/op", "higher"),
        ("flow.keep_ratio", "ratio", "higher"),
        ("divisor.quasistable.kept", "count/op", "higher"),
        ("divisor.keep_ratio", "ratio", "higher"),
        ("abelfan.cones_per_locate", "count", "lower"),
        ("semigroup.generators", "count/op", "higher"),
        ("traced.ops_per_s", "1/s", "higher"),
    ]
    return out


class Tracer:
    def __init__(self):
        self.stack = []  # child time of each open span
        self.self_s = {}  # function -> summed self time
        self.total_s = {}  # function -> summed duration (children included)
        self.calls = {}  # function -> number of calls
        self.counts = {}  # counter -> total
        self.ops = []  # one record per operation span
        self._restore = []

    # -------------------------------------------------------------- wrapping

    def _timed(self, name, fn):
        stack, self_s, total_s = self.stack, self.self_s, self.total_s
        calls, counts = self.calls, self.counts
        self_s[name] = total_s[name] = 0.0
        calls[name] = 0
        counter = YIELDS.get(name)

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                child = stack.pop()
                self_s[name] += duration - child
                total_s[name] += duration
                calls[name] += 1
                if stack:
                    stack[-1] += duration
            if counter is not None:
                counts[counter[0]] = counts.get(counter[0], 0) + counter[1](result)
            return result

        return wrapper

    def _counted(self, name, fn):
        calls = self.calls
        calls[name] = 0

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        modules = {layer: importlib.import_module(f"tropabel.{layer}") for layer in LAYERS}
        binders = [importlib.import_module("tropabel")] + list(modules.values())
        wrapped = {}
        for layer, mod in modules.items():
            for attr, fn in vars(mod).items():
                if (
                    callable(fn) and not isinstance(fn, type) and not attr.startswith("_")
                    and getattr(fn, "__module__", None) == mod.__name__ and attr not in UNWRAPPED
                ):
                    wrapped[id(fn)] = (fn, self._timed(f"{layer}.{attr}", fn))
        for mod in binders:
            for attr, value in list(vars(mod).items()):
                fn, wrapper = wrapped.get(id(value), (None, None))
                if fn is value:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        for layer, cls_name, meth in METHODS:
            cls = getattr(modules[layer], cls_name)
            raw = vars(cls)[meth]
            self._restore.append((cls, meth, raw))
            setattr(cls, meth, staticmethod(self._timed(f"{layer}.{meth}", raw.__func__)))
        for layer, cls_name, meth in COUNTED:
            cls = getattr(modules[layer], cls_name)
            raw = vars(cls)[meth]
            self._restore.append((cls, meth, raw))
            setattr(cls, meth, self._counted(f"{layer}.{meth}", raw))

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore = []

    # ------------------------------------------------------------ operations

    def layer_self(self):
        out = dict.fromkeys(LAYERS, 0.0)
        for name, value in self.self_s.items():
            out[name.split(".")[0]] += value
        return out

    def run_op(self, case_id, op, case):
        """Run one operation as a root span; returns (result, duration)."""
        before = self.layer_self()
        self.stack.append(0.0)
        start = perf_counter()
        try:
            result = op(case)
        finally:
            duration = perf_counter() - start
            child = self.stack.pop()
            after = self.layer_self()
            self.ops.append({
                "case": case_id,
                "start": start,
                "duration": duration,
                "outside_layers_s": duration - child,
                "self_s": {k: after[k] - before[k] for k in LAYERS if after[k] != before[k]},
            })
        return result, duration

    # --------------------------------------------------------------- metrics

    def metrics(self, n_ops, scale, busy_s):
        """Per-layer metrics; times are multiplied by `scale` (see calibrate.py)
        and `busy_s` is the scaled time of all operations."""

        def per_op(x):
            return x / n_ops

        def ratio(a, b):
            return a / b if b else 0.0

        values = {}
        for layer, value in self.layer_self().items():
            values[f"{layer}.self_s"] = per_op(value * scale)
        for f in SELF:
            values[f"{f}.self_s"] = per_op(self.self_s[f] * scale)
        for f in CALLS:
            values[f"{f}.calls"] = per_op(self.calls[f])
        counts = self.counts
        flows = counts.get("flow.flows_with_divisor.yielded", 0)
        pairs = counts.get("flow.pairs.kept", 0)
        kept = counts.get("divisor.quasistable.kept", 0)
        values.update({
            "semigroup.divides.calls": per_op(self.calls["semigroup.divides"]),
            "flow.acyclic_orientations.yielded": per_op(counts.get("flow.acyclic_orientations.yielded", 0)),
            "flow.flows_with_divisor.yielded": per_op(flows),
            "flow.pairs.kept": per_op(pairs),
            "flow.keep_ratio": ratio(pairs, flows),
            "divisor.quasistable.kept": per_op(kept),
            "divisor.keep_ratio": ratio(kept, self.calls["divisor.is_quasistable"]),
            "abelfan.cones_per_locate": ratio(
                self.calls["abelfan.merged_cone"], self.calls["abelfan.locate_point"]
            ),
            "semigroup.generators": per_op(counts.get("semigroup.generators", 0)),
            "traced.ops_per_s": n_ops / busy_s,
        })
        return values

    def dump(self, path, header):
        data = dict(header)
        data["functions"] = {
            name: {
                "self_s": self.self_s.get(name, 0.0),
                "total_s": self.total_s.get(name, 0.0),
                "calls": self.calls[name],
            }
            for name in sorted(self.calls)
        }
        data["counts"] = dict(sorted(self.counts.items()))
        data["layers_self_s"] = self.layer_self()
        data["ops"] = self.ops
        with open(path, "w") as fh:
            json.dump(data, fh, indent=1)
