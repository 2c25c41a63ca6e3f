"""Per-layer timing from outside the program.

Every public function of each ``demchar`` module is wrapped, and so is
every other binding of the same function object (``from .onedsums import
g_recursive`` in ``formulas`` and ``cli``, say).  A few hot methods are
wrapped on their class.  Each wrapped call is a span; a layer's self time
is the time of its spans minus the time of the spans they enclose.  Only
aggregates are kept: counts, self times and a few ratios.  Methods that are
not wrapped count towards the layer of the span that called them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("qring", "weights", "crystals", "tensor", "paths", "demazure", "onedsums", "formulas", "cli")

# Hot methods: (module, class, method) -> metric key.
METHODS = {
    ("qring", "LaurentPoly", "__add__"): "qring.add",
    ("qring", "LaurentPoly", "__mul__"): "qring.mul",
    ("qring", "LaurentPoly", "shift"): "qring.shift",
    ("weights", "Weight", "__add__"): "weights.weight_add",
    ("weights", "Weight", "__sub__"): "weights.weight_add",
    ("weights", "FormalCharacter", "__add__"): "weights.formal_char_add",
    ("paths", "GroundState", "path_weight"): "paths.path_weight",
    ("tensor", "TensorWord", "energy"): "tensor.energy",
}

# Per-layer metric -> the end-to-end metric and workloads it should move.
TARGETS = {
    "qring.self_s": "run_s, peak_rss_mb on stringfn; little on verify-formulas",
    "qring.add.calls": "run_s, peak_rss_mb on stringfn",
    "qring.mul.calls": "run_s, peak_rss_mb on stringfn",
    "qring.shift.calls": "run_s, peak_rss_mb on stringfn",
    "qring.exact_div.self_s": "run_s, peak_rss_mb on stringfn",
    "qring.qmultinomial.self_s": "run_s, peak_rss_mb on stringfn",
    "weights.self_s": "run_s on verify-formulas",
    "weights.weight_add.calls": "run_s on verify-formulas",
    "weights.formal_char_add.calls": "run_s on character",
    "weights.demazure_op.self_s": "run_s on character",
    "weights.weyl_by_length.shells": "op_p90_ms on restricted",
    "weights.weyl_by_length.self_s": "op_p90_ms on restricted",
    "paths.self_s": "run_s on verify-formulas and character",
    "paths.enumerate_paths.words": "run_s on verify-formulas and character",
    "paths.enumerate_paths.yield_ratio": "run_s on verify-formulas and character",
    "paths.path_weight.calls": "run_s on verify-formulas and character",
    "tensor.self_s": "run_s on verify-formulas and restricted",
    "tensor.energy.calls": "run_s on verify-formulas and restricted",
    "crystals.self_s": "setup_s on all workloads",
    "crystals.perfect_crystal.self_s": "setup_s on all workloads",
    "demazure.self_s": "run_s on character",
    "demazure.character_by_paths.self_s": "run_s on character",
    "demazure.character_by_operators.self_s": "run_s on character",
    "onedsums.self_s": "run_s, peak_rss_mb on stringfn",
    "onedsums.g_recursive.calls": "run_s, peak_rss_mb on stringfn",
    "onedsums.g_recursive.nonzero_ratio": "run_s, peak_rss_mb on stringfn",
    "onedsums.stabilized_limit.windows": "run_s, peak_rss_mb on stringfn",
    "onedsums.g_enumerate.self_s": "run_s on verify-formulas",
    "onedsums.character_at_full_segment.self_s": "run_s on character",
    "onedsums.x_by_weyl_sum.self_s": "op_p90_ms, ok_ratio on restricted",
    "formulas.self_s": "run_s on verify-formulas",
    "formulas.g_closed_form.calls": "run_s on verify-formulas",
    "cli.self_s": "setup_s, run_s everywhere",
    "trace.overhead": "traced run_s / untraced run_s, per workload",
    "trace.coverage": "layer self time / traced run_s; near 1 when the layers account for the run",
}


class Tracer:
    """Wraps the public functions of every layer until ``uninstall``."""

    def __init__(self):
        self.stack: list[list] = []  # per open span: [key, time of enclosed spans]
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"demchar.{layer}") for layer in LAYERS}
        wrapped = {}  # id of a public function -> (function, wrapper)
        for layer, module in modules.items():
            for name, obj in vars(module).items():
                if name.startswith("_") or not _is_function(obj) or obj.__module__ != module.__name__:
                    continue
                hook = getattr(self, "_after_" + name, None)
                wrapped[id(obj)] = (obj, self._wrap(obj, layer, f"{layer}.{name}", hook))
        for module in modules.values():
            for name, obj in list(vars(module).items()):
                original, wrapper = wrapped.get(id(obj), (None, None))
                if original is obj:
                    self._patch(module, name, wrapper)
        for (layer, cls_name, method), key in METHODS.items():
            cls = getattr(modules[layer], cls_name)
            original = cls.__dict__[method]
            wrapper = self._wrap(original, layer, key, None)
            for name, obj in list(vars(cls).items()):
                if obj is original:
                    self._patch(cls, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    # -- spans -------------------------------------------------------------

    def _wrap(self, fn, layer: str, key: str, hook):
        stack, self_s, counts = self.stack, self.self_s, self.counts

        def close(frame, start):
            duration = perf_counter() - start
            stack.pop()
            own = duration - frame[1]
            self_s[layer] += own
            self_s[key] += own
            if stack:
                stack[-1][1] += duration

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                counts[key + ".calls"] += 1
                inner = fn(*args, **kwargs)
                while True:
                    frame = [key, 0.0]
                    stack.append(frame)
                    start = perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        close(frame, start)
                    counts[key + ".yields"] += 1
                    yield item
            return generator_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key + ".calls"] += 1
            frame = [key, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(frame, start)
            if hook is not None:
                hook(args, kwargs, result)
            return result
        return wrapper

    # -- counters measured where the work happens ---------------------------

    def _after_enumerate_paths(self, args, kwargs, result) -> None:
        crystal = args[0]
        j = args[3] if len(args) > 3 else kwargs["j"]
        self.counts["paths.enumerate_paths.words"] += len(result)
        self.counts["paths.enumerate_paths.tails"] += len(crystal) ** j

    def _after_g_recursive(self, args, kwargs, result) -> None:
        if result:
            self.counts["onedsums.g_recursive.nonzero"] += 1
        if self.stack and self.stack[-1][0] == "onedsums.stabilized_limit":
            self.counts["onedsums.stabilized_limit.windows"] += 1

    # -- results -----------------------------------------------------------

    def snapshot(self) -> dict:
        """Accumulated self times and counts, as plain numbers."""
        return {"self_s": dict(self.self_s), "counts": dict(self.counts)}


def _is_function(obj) -> bool:
    return inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper)


def layer_metrics(total: dict, at_ready: dict, run_s: float) -> dict[str, float]:
    """The per-layer metrics of one traced pass, all of ``TARGETS`` but
    ``trace.overhead``, which needs the plain passes.

    Self times and counts cover set-up and run, so that crystal building
    shows in ``crystals``; ``trace.coverage`` compares the run's share of
    the layers' self time with the traced ``run_s``.
    """
    self_s, counts = total["self_s"], total["counts"]
    metrics = {}
    for name in TARGETS:
        if name.endswith(".self_s"):
            metrics[name] = self_s.get(name.removesuffix(".self_s"), 0.0)
        elif name.endswith(".calls"):
            metrics[name] = counts.get(name, 0)
    words, tails = counts.get("paths.enumerate_paths.words", 0), counts.get("paths.enumerate_paths.tails", 0)
    calls, nonzero = counts.get("onedsums.g_recursive.calls", 0), counts.get("onedsums.g_recursive.nonzero", 0)
    metrics["weights.weyl_by_length.shells"] = counts.get("weights.weyl_by_length.yields", 0)
    metrics["paths.enumerate_paths.words"] = words
    metrics["paths.enumerate_paths.yield_ratio"] = words / tails if tails else 0.0
    metrics["onedsums.g_recursive.nonzero_ratio"] = nonzero / calls if calls else 0.0
    metrics["onedsums.stabilized_limit.windows"] = counts.get("onedsums.stabilized_limit.windows", 0)
    run_self = sum(self_s.get(layer, 0.0) - at_ready["self_s"].get(layer, 0.0) for layer in LAYERS)
    metrics["trace.coverage"] = run_self / run_s
    return metrics
