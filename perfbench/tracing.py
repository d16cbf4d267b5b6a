"""Per-layer tracing for the traced benchmark run.

Tracing changes no program file.  `Tracer.install` replaces, at run time,
the public functions and the arithmetic methods of each brauer module with
timing wrappers, in every module namespace that holds them, and reads the
memo caches' `cache_info()` at the end.  Each wrapper belongs to a layer
(`coeffs`, `diagrams`, `shapes`, `repform`, `tensor`, `affine`); a layer's
self time is the time inside its wrappers minus the time of the wrappers
called from them.

Spans (name, start, end, parent) are kept in memory and written out at the
end.  The scalar operations of `coeffs` run millions of times per workload,
so they are timed and counted but not kept as spans.

A name that a later version of brauer no longer has is skipped, and the
metrics read from it are 0.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

from brauer import affine, coeffs, diagrams, repform, shapes, tensor

LAYERS = ("coeffs", "diagrams", "shapes", "repform", "tensor", "affine")
MODULES = (coeffs, diagrams, shapes, repform, tensor, affine)

CACHES = {
    "compose_cached": (diagrams, "_compose_cached"),
    "factor_diagram": (diagrams, "factor_diagram"),
    "route_y": (affine, "_route_y"),
    "diagram_matrix": (tensor, "diagram_matrix"),
    "enumerate_paths": (shapes, "enumerate_paths"),
    "path_counts": (shapes, "path_counts"),
    "jucys_murphy": (diagrams, "jucys_murphy"),
    "z_element": (diagrams, "z_element"),
    "jm_power": (affine, "_jm_power"),
}

# (owner, attribute, metric key, layer, keep spans)
_FUNCTIONS = [
    (diagrams, "compose", "diagrams.compose", "diagrams", True),
    (diagrams, "multiply", "diagrams.multiply", "diagrams", True),
    (diagrams, "verify_presentation", "diagrams.verify_presentation", "diagrams", True),
    (diagrams, "factor_diagram", "diagrams.factor_diagram", "diagrams", False),
    (diagrams, "partial_closure", "diagrams.partial_closure", "diagrams", True),
    (diagrams, "jucys_murphy", "diagrams.jucys_murphy", "diagrams", True),
    (diagrams, "z_element", "diagrams.z_element", "diagrams", True),
    (shapes, "enumerate_O", "shapes.enumerate_O", "shapes", True),
    (shapes, "enumerate_paths", "shapes.enumerate_paths", "shapes", True),
    (shapes, "path_counts", "shapes.path_counts", "shapes", True),
    (shapes, "branch", "shapes.branch", "shapes", False),
    (shapes, "content_of_difference", "shapes.content_of_difference", "shapes", False),
    (shapes, "b_list", "shapes.b_list", "shapes", False),
    (repform, "build_representation", "repform.build_representation", "repform", True),
    (repform, "verify_representation", "repform.verify", "repform", True),
    (repform, "build_s_matrix", "repform.build", "repform", True),
    (repform, "build_sbar_matrix", "repform.build", "repform", True),
    (repform, "x_matrix", "repform.build", "repform", True),
    (repform, "representation_action", "repform.action", "repform", True),
    (repform, "sbar_fiber_report", "repform.sbar_fiber_report", "repform", True),
    (repform, "jm_eigenvalue", "repform.jm_eigenvalue", "repform", False),
    (tensor, "diagram_matrix", "tensor.diagram_matrix", "tensor", True),
    (tensor, "centralizer_rank", "tensor.rank", "tensor", True),
    (tensor, "casimir_apply", "tensor.casimir", "tensor", True),
    (tensor, "jm_sum_apply", "tensor.casimir", "tensor", True),
    (affine, "from_word", "affine.from_word", "affine", True),
    (affine, "pi_m", "affine.pi_m", "affine", True),
    (affine, "pi_word", "affine.pi_word", "affine", True),
    (affine, "cap_series", "affine.cap_series", "affine", True),
]

# (class, method names, metric key, layer)
_METHODS = [
    (coeffs.NPoly, ("__mul__", "__rmul__", "__pow__"), "coeffs.npoly_mul", "coeffs"),
    (coeffs.NPoly, ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__"), "coeffs.npoly_add", "coeffs"),
    (coeffs.NPoly, ("__eq__", "eval"), "coeffs.npoly_other", "coeffs"),
    (coeffs.SurdSum, ("__mul__", "__rmul__"), "coeffs.surd_mul", "coeffs"),
    (coeffs.SurdSum, ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__"), "coeffs.surd_add", "coeffs"),
    (coeffs.SurdSum, ("__eq__", "divide_rational"), "coeffs.surd_other", "coeffs"),
    (repform.RepMatrix, ("__mul__",), "repform.matmul", "repform"),
    (affine.AffineElement, ("__mul__",), "affine.mul", "affine"),
    (affine.RegularMonomial, ("__post_init__",), "affine.monomial", "affine"),
]
_SPAN_METHODS = {"repform.matmul", "affine.mul"}


class Stat:
    __slots__ = ("calls", "incl", "self", "depth", "extra")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0  # outermost calls only, so recursion is not counted twice
        self.self = 0.0
        self.depth = 0
        self.extra = 0


class Tracer:
    def __init__(self):
        self.origin = time.perf_counter()
        self.stack: list[list] = []  # [child time, index of the nearest kept span]
        self.spans: list = []
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.layer_self: dict[str, list[float]] = defaultdict(lambda: [0.0])
        # taken before install() wraps any of them
        self.caches = {}
        for name, (owner, attr) in CACHES.items():
            fn = getattr(owner, attr, None)
            if hasattr(fn, "cache_info"):
                self.caches[name] = fn

    # -- timing

    def _enter(self, record: bool):
        parent = self.stack[-1][1] if self.stack else -1
        idx = len(self.spans) if record else parent
        if record:
            self.spans.append(None)
        frame = [0.0, idx]
        self.stack.append(frame)
        return frame, parent

    def _exit(self, frame, parent, record, stat, layer_cell, name, t0, t1):
        self.stack.pop()
        d = t1 - t0
        stat.depth -= 1
        if not stat.depth:
            stat.incl += d
        own = d - frame[0]
        stat.self += own
        layer_cell[0] += own
        stat.calls += 1
        if self.stack:
            self.stack[-1][0] += d
        if record:
            self.spans[frame[1]] = (name, t0 - self.origin, t1 - self.origin, parent)

    def wrap(self, fn, key: str, layer: str, record: bool, on_result=None):
        stat, cell = self.stats[key], self.layer_self[layer]
        enter, exit_ = self._enter, self._exit
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            frame, parent = enter(record)
            stat.depth += 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(frame, parent, record, stat, cell, key, t0, perf())
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    @contextlib.contextmanager
    def span(self, key: str, layer: str):
        stat, cell = self.stats[key], self.layer_self[layer]
        frame, parent = self._enter(True)
        stat.depth += 1
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._exit(frame, parent, True, stat, cell, key, t0, time.perf_counter())

    # -- installing

    def _replace(self, original, wrapper, modules) -> None:
        """Rebind every module-level name that holds `original`."""
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapper)

    def install(self, *callers) -> None:
        """Wrap brauer's layers; `callers` are further modules whose imported
        names should be rebound as well (the benchmark's own)."""
        import brauer

        modules = MODULES + (brauer,) + callers
        hooks = {
            "tensor.diagram_matrix": self._count_on_miss("diagram_matrix", "tensor.diagram_matrix", lambda m: m.nnz),
            "shapes.enumerate_paths": self._count_on_miss("enumerate_paths", "shapes.enumerate_paths", len),
            "affine.from_word": self._count_terms,
        }
        for owner, attr, key, layer, record in _FUNCTIONS:
            original = getattr(owner, attr, None)
            if original is not None:
                self._replace(original, self.wrap(original, key, layer, record, hooks.get(key)), modules)
        kernel_module = getattr(diagrams, "_kernel", None)
        kernel = getattr(kernel_module, "compose_pairings", None)
        if kernel is not None:
            setattr(kernel_module, "compose_pairings", self.wrap(kernel, "diagrams.kernel", "diagrams", True))
        for cls, names, key, layer in _METHODS:
            on_result = self._count_terms if key == "affine.mul" else None
            for name in names:
                original = cls.__dict__.get(name)
                if original is not None:
                    setattr(cls, name, self.wrap(original, key, layer, key in _SPAN_METHODS, on_result))
        self._cache_before = self.cache_counts()

    # -- counts taken from results

    def _count_on_miss(self, cache: str, key: str, size):
        """A result hook adding size(result) to `key` whenever `cache` missed,
        that is, whenever the result was computed rather than looked up."""
        last = [self.cache_counts()[cache][1]]

        def hook(result) -> None:
            misses = self.cache_counts()[cache][1]
            if misses != last[0]:
                last[0] = misses
                self.stats[key].extra += size(result)

        return hook

    def _count_terms(self, element) -> None:
        self.stats["affine.terms_out"].extra += len(element.terms)

    # -- results

    def cache_counts(self) -> dict[str, tuple[int, int]]:
        out = {name: (0, 0) for name in CACHES}
        for name, fn in self.caches.items():
            info = fn.cache_info()
            out[name] = (info.hits, info.misses)
        return out

    def metrics(self) -> dict[str, float]:
        s = self.stats
        caches = {
            name: (hits - self._cache_before[name][0], misses - self._cache_before[name][1])
            for name, (hits, misses) in self.cache_counts().items()
        }

        def ratio(cache: str) -> float:
            hits, misses = caches[cache]
            return hits / (hits + misses) if hits + misses else 0.0

        m = {
            "tensor.matrix_build_s": s["tensor.diagram_matrix"].incl,
            "tensor.matrices_built": caches["diagram_matrix"][1],
            "tensor.matrix_nnz": s["tensor.diagram_matrix"].extra,
            "tensor.pair_check_self_s": s["tensor.pair_check"].self,
            "tensor.pairs_checked": s["tensor.pair_check"].calls,
            "tensor.rank_s": s["tensor.rank"].incl,
            "repform.verify_s": s["repform.verify"].incl,
            "repform.matmul_calls": s["repform.matmul"].calls,
            "repform.matmul_s": s["repform.matmul"].incl,
            "repform.build_s": s["repform.build"].incl,
            "repform.action_s": s["repform.action"].incl,
            "shapes.paths_s": s["shapes.enumerate_paths"].incl,
            "shapes.paths_enumerated": s["shapes.enumerate_paths"].extra,
            "coeffs.surd_mul_calls": s["coeffs.surd_mul"].calls,
            "coeffs.surd_add_calls": s["coeffs.surd_add"].calls,
            "coeffs.npoly_mul_calls": s["coeffs.npoly_mul"].calls,
            "coeffs.npoly_add_calls": s["coeffs.npoly_add"].calls,
            "affine.mul_calls": s["affine.mul"].calls,
            "affine.mul_s": s["affine.mul"].incl,
            "affine.from_word_s": s["affine.from_word"].incl,
            "affine.pi_m_self_s": s["affine.pi_m"].self,
            "affine.pi_word_self_s": s["affine.pi_word"].self,
            "affine.monomials_constructed": s["affine.monomial"].calls,
            "affine.route_y_hit_ratio": ratio("route_y"),
            "affine.terms_out": s["affine.terms_out"].extra,
            "diagrams.kernel_calls": s["diagrams.kernel"].calls,
            "diagrams.kernel_s": s["diagrams.kernel"].incl,
            "diagrams.compose_calls": s["diagrams.compose"].calls,
            "diagrams.compose_hit_ratio": ratio("compose_cached"),
            "diagrams.multiply_calls": s["diagrams.multiply"].calls,
            "diagrams.multiply_self_s": s["diagrams.multiply"].self,
            "diagrams.factor_hit_ratio": ratio("factor_diagram"),
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = self.layer_self[layer][0]
        for name, (hits, misses) in caches.items():
            m[f"cache.{name}.hits"] = hits
            m[f"cache.{name}.misses"] = misses
        m["trace.spans"] = len(self.spans)
        return m

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"], "spans": self.spans}, fh)

