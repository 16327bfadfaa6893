"""Per-module spans recorded from outside the program.

Tracer.install() puts a wrapper around every public function, method and
property of the layer modules, at every name that binds it: the module that
defines a function and every floerrank module that imported it (so
`verify.from_seifert` and `morphism.from_seifert` are wrapped as well as
`deltaseq.from_seifert`).  uninstall() puts the originals back.

A wrapper appends one span (name, start, end, parent) to flat arrays kept in
memory; self_times() then gives each layer the part of its spans' time that
no child span covers.  Per-element accessors, called millions of times, are
counted or left alone instead of spanned: their time counts in their
caller's self time, as does the time of `arith`, which is never wrapped.

In memory mode the wrappers record no spans; the outermost `seifert` call
runs under tracemalloc instead, and the peak it allocates is kept.
"""

import dataclasses
import inspect
import sys
import tracemalloc
from array import array
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("seifert", "deltaseq", "gradedroot", "morphism", "verify", "botany", "cli")

# called once per position: count them, or leave them to the caller's time
COUNTED = {
    "seifert.delta_at": "seifert.delta_entries",
    "deltaseq.DeltaSequence.value_at": "deltaseq.value_at_calls",
    "verify.VerificationReport.check": "verify.checks",
}
UNWRAPPED = {
    "seifert.membership", "seifert.delta_semigroup",
    "morphism.DeltaMorphism.image",
    "morphism.TwoGenSemigroup.psi", "morphism.TwoGenSemigroup.defect",
    "morphism.TwoGenSemigroup.delta_upper", "morphism.TwoGenSemigroup.delta_lower",
    "morphism.TwoGenSemigroup.theta",
}
STRUCTURE = {"vertices", "edges", "render", "structural_vertex_counts", "structural_leaves"}


def category(layer: str, attr: str):
    """Sub-layer a span's self time is also booked under, or None."""
    if layer == "morphism":
        if attr in ("fix_defects", "embed_to_subsequence"):
            return "repair"
        return "validate" if attr.startswith("is_") or attr == "defect_table" else "construct"
    if layer == "gradedroot":
        return "structure" if attr in STRUCTURE else "summary"
    return None


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_delta_array(counts, args, kwargs, result):
    counts["seifert.delta_entries"] += _arg(args, kwargs, 1, "upto") + 1


def _count_walk(counts, args, kwargs, result):
    counts["seifert.rank_calls"] += 1


def _count_sequence(counts, args, kwargs, result):
    counts["deltaseq.sequences_built"] += 1
    counts["deltaseq.positions_built"] += len(args[0].positions)


def _count_vertices(counts, args, kwargs, result):
    counts["gradedroot.vertices"] += len(result)


def _count_morphism(counts, args, kwargs, result):
    counts["morphism.positions_mapped"] += len(_arg(args, kwargs, 3, "mapping"))


def _count_candidate(counts, args, kwargs, result):
    counts["botany.candidates"] += 1


AFTER = {
    "seifert.delta_array": _count_delta_array,
    "seifert.walk_statistics": _count_walk,
    "deltaseq.DeltaSequence.__init__": _count_sequence,
    "gradedroot.GradedRoot.vertices": _count_vertices,
    "morphism.DeltaMorphism.__init__": _count_morphism,
    "botany.rank_red_of": _count_candidate,
}


class Tracer:
    """Wrappers over the layer modules of an imported floerrank package."""

    def __init__(self):
        self.modules = {name: mod for name, mod in sys.modules.items()
                        if name == "floerrank" or name.startswith("floerrank.")}
        self.names = []          # span name id -> (layer, qualname, category)
        self.memory = False
        self._patches = []
        self.reset()
        self._plan()

    def reset(self):
        self.starts, self.ends = array("d"), array("d")
        self.parents, self.ids = array("q"), array("q")
        self.stack = []
        self.counts = Counter()
        self.peak_alloc = 0

    # -- wrappers ------------------------------------------------------------

    def _span(self, fn, layer, qualname):
        name_id = len(self.names)
        attr = qualname.rsplit(".", 1)[-1]
        self.names.append((layer, qualname, category(layer, attr)))
        after = AFTER.get(f"{layer}.{qualname}")
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.memory:
                if layer != "seifert" or tracemalloc.is_tracing():
                    return fn(*args, **kwargs)
                tracemalloc.start()
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.peak_alloc = max(tracer.peak_alloc, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
            stack = tracer.stack
            i = len(tracer.starts)
            tracer.parents.append(stack[-1] if stack else -1)
            tracer.ids.append(name_id)
            tracer.ends.append(0.0)
            stack.append(i)
            tracer.starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.ends[i] = perf_counter()
                stack.pop()
            if after is not None:
                after(tracer.counts, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, fn, counter):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.counts[counter] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _cells(self, fn):
        """Ray x grading cells of each union-find structure actually built."""
        tracer = self

        def wrapper(root, *args, **kwargs):
            if getattr(root, "_structure", None) is None:
                tracer.counts["gradedroot.cells"] += (
                    len(root.extrema) * (root.stabilization - min(root.extrema) + 1))
            return fn(root, *args, **kwargs)

        return wrapper

    def _wrap(self, fn, layer, qualname):
        key = f"{layer}.{qualname}"
        if key in UNWRAPPED:
            return None
        if key in COUNTED:
            return self._counter(fn, COUNTED[key])
        return self._span(fn, layer, qualname)

    # -- install / uninstall -------------------------------------------------

    def _plan_class(self, cls, layer):
        plain = not dataclasses.is_dataclass(cls)
        for attr, member in list(vars(cls).items()):
            public = not attr.startswith("_") or (attr == "__init__" and plain)
            qualname = f"{cls.__name__}.{attr}"
            wrapped = None
            if attr == "_build_structure" and inspect.isfunction(member):
                wrapped = self._cells(member)
            elif not public:
                continue
            elif inspect.isfunction(member):
                wrapped = self._wrap(member, layer, qualname)
            elif isinstance(member, classmethod):
                wrapped = classmethod(self._span(member.__func__, layer, qualname))
            elif isinstance(member, property) and plain and member.fget is not None:
                wrapped = property(self._span(member.fget, layer, qualname))
            if wrapped is not None:
                self._patches.append((cls, attr, member, wrapped))

    def _plan(self):
        """(owner, attribute, original, wrapper) for every binding to replace."""
        wrappers = {}        # id(original function) -> wrapper
        for layer in LAYERS:
            mod = self.modules[f"floerrank.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    self._plan_class(obj, layer)
                elif callable(obj) and not inspect.isgeneratorfunction(obj):
                    wrapped = self._wrap(obj, layer, attr)
                    if wrapped is not None:
                        wrappers[id(obj)] = wrapped
        for mod in self.modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patches.append((mod, attr, obj, wrappers[id(obj)]))

    def install(self):
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def self_times(self) -> dict:
        """Per-layer self time, sub-layer self time and cross-check time.

        Also counts botany.rank_evals: calls from botany into seifert.
        """
        n = len(self.starts)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        covered = [0.0] * n
        for i, p in enumerate(self.parents):
            if p >= 0:
                covered[p] += dur[i]
        out = defaultdict(float)
        for i in range(n):
            layer, qualname, cat = self.names[self.ids[i]]
            own = dur[i] - covered[i]
            parent = self.parents[i]
            if layer == "seifert" and parent >= 0 and self.names[self.ids[parent]][0] == "botany":
                out["botany.rank_evals"] += 1
            out[f"{layer}.self_s"] += own
            if cat:
                out[f"{layer}.{cat}_s"] += own
            if qualname == "cross_checked_ranks":
                out["verify.cross_check_s"] += dur[i]
        return out
