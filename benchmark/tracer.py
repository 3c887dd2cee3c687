"""Outside-in span tracer for the polyafreq layers.

The tracer never edits the package's source.  It replaces the public
functions of each layer module, the public methods of the classes a layer
defines, and the `Poly` arithmetic methods with timing wrappers, and puts
the originals back on `uninstall`.  A function imported with
``from .roots import is_real_rooted`` is a separate binding in the importing
module, so every `polyafreq.*` namespace that holds the same object is
rebound, not only the defining module.

Spans (name, start, end, parent, case) go into flat arrays while the run
lasts and are written once, by `write`, after it ends.  Nothing here is
imported by an untraced run.
"""

from __future__ import annotations

import json
import sys
import time
import types
from array import array

#: The layers are the package's modules, in dependency order.
LAYERS = (
    "polynomial",
    "roots",
    "transforms",
    "operators",
    "pf",
    "combinatorics",
    "jsonio",
    "cli",
    "suites",
)

#: `Poly` methods that do arithmetic; the rest are constant-time accessors.
POLY_METHODS = (
    "__add__",
    "__sub__",
    "__neg__",
    "__mul__",
    "__rmul__",
    "scale",
    "__pow__",
    "__divmod__",
    "__floordiv__",
    "__mod__",
    "exact_divide",
    "derivative",
    "__call__",
    "affine_compose",
    "reversed_coeffs",
)

#: Span names for the `Poly` methods the metrics refer to by operation.
POLY_SPAN_NAMES = {"__call__": "horner", "__divmod__": "divmod", "__mul__": "mul"}

#: Per-element helpers called once for each enumerated permutation, and the
#: generator that yields them (a span would close before it is consumed).
#: A wrapper costs as much as their body, so their time stays in the oracle
#: that calls them.
UNWRAPPED = frozenset(
    {
        "combinatorics.descents",
        "combinatorics.excedances",
        "combinatorics.cycle_count",
        "combinatorics.stack_sort",
        "combinatorics.is_t_stack_sortable",
        "combinatorics.signed_permutations",
    }
)

NO_PARENT = -1
NO_CASE = -1


def _coefficient_bits(chain) -> int:
    bits = 0
    for p in chain:
        for c in p.coeffs:
            bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    return bits


class Tracer:
    """Span recorder; `install` patches the package, `uninstall` restores it."""

    def __init__(self, package: str = "polyafreq"):
        self.package = package
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.case = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current_case = NO_CASE
        self.max_chain_bits = 0
        self._stack = [NO_PARENT]
        self._patches: list[tuple[object, str, object, object]] | None = None
        self.installed = False

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, on_return=None):
        """A function that calls `fn` inside a span called `name`."""
        nid = self._name_id(name)
        names, parents, cases = self.name, self.parent, self.case
        starts, ends, stack = self.start, self.end, self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            cases.append(tracer.current_case)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_return is not None:
                on_return(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def call(self, name: str, fn, *args, **kwargs):
        """Run one call inside a span opened at the caller's site."""
        return self.wrap(name, fn)(*args, **kwargs)

    def _observe_chain(self, chain) -> None:
        self.max_chain_bits = max(self.max_chain_bits, _coefficient_bits(chain))

    # -- patching ----------------------------------------------------------

    def _modules(self) -> list[types.ModuleType]:
        prefix = self.package + "."
        return [
            m
            for key, m in sorted(sys.modules.items())
            if m is not None and (key == self.package or key.startswith(prefix))
        ]

    def _plan(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every binding to patch."""
        plan = []
        wrappers: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            module = sys.modules.get(f"{self.package}.{layer}")
            if module is None:
                continue
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    name = f"{layer}.{attr}"
                    if name not in UNWRAPPED:
                        hook = self._observe_chain if name == "roots.sturm_chain" else None
                        wrappers[id(obj)] = (obj, self.wrap(name, obj, hook))
                elif isinstance(obj, type):
                    plan.extend(self._class_plan(layer, obj))
        for module in self._modules():
            for attr, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    plan.append((module, attr, obj, entry[1]))
        return plan

    def _class_plan(self, layer: str, cls: type):
        if cls.__name__ == "Poly":
            for attr in POLY_METHODS:
                fn = cls.__dict__[attr]
                yield cls, attr, fn, self.wrap(f"{layer}.{POLY_SPAN_NAMES.get(attr, attr.strip('_'))}", fn)
            return
        for attr, obj in list(vars(cls).items()):
            if not attr.startswith("_") and isinstance(obj, types.FunctionType):
                yield cls, attr, obj, self.wrap(f"{layer}.{cls.__name__}.{attr}", obj)

    def install(self) -> None:
        """Patch the layer modules imported under the package.

        The first call decides what to wrap; later calls after `uninstall`
        re-apply the same wrappers, so span names and counts carry over.
        """
        if self.installed:
            raise RuntimeError("tracer already installed")
        if self._patches is None:
            self._patches = self._plan()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        self.installed = True

    def uninstall(self) -> None:
        if not self.installed:
            return
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)
        self.installed = False

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- output ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.start)

    def write(self, path) -> None:
        """One JSON header line, then the five span arrays in native layout."""
        header = {
            "names": self.names,
            "spans": len(self),
            "arrays": [
                ["name", self.name.typecode],
                ["parent", self.parent.typecode],
                ["case", self.case.typecode],
                ["start", self.start.typecode],
                ["end", self.end.typecode],
            ],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.case, self.start, self.end):
                arr.tofile(handle)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def aggregate(tracer: Tracer) -> tuple[dict, dict]:
    """Per-name and per-layer totals from the recorded spans.

    Returns ``(by_name, by_layer)``.  ``by_name[n]`` holds ``calls`` and
    ``self_s`` of every span named n.  ``by_layer[L]`` holds ``calls`` and
    ``total_s`` of the spans entering L from another layer (or from the
    benchmark), and ``self_s``: each L span's duration minus the durations
    of its direct children.
    """
    count = len(tracer)
    child = [0.0] * count
    layers = [layer_of(n) for n in tracer.names]
    names, parents, starts, ends = tracer.name, tracer.parent, tracer.start, tracer.end
    for i in range(count):
        p = parents[i]
        if p != NO_PARENT:
            child[p] += ends[i] - starts[i]
    by_name = {n: {"calls": 0, "self_s": 0.0} for n in tracer.names}
    by_layer = {layer: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for layer in LAYERS}
    for i in range(count):
        nid = names[i]
        dur = ends[i] - starts[i]
        own = dur - child[i]
        entry = by_name[tracer.names[nid]]
        entry["calls"] += 1
        entry["self_s"] += own
        layer = layers[nid]
        slot = by_layer[layer]
        slot["self_s"] += own
        p = parents[i]
        if p == NO_PARENT or layers[names[p]] != layer:
            slot["calls"] += 1
            slot["total_s"] += dur
    return by_name, by_layer
