"""Per-layer spans around progmix, installed from outside the library.

A Tracer wraps the public functions named in SPANS and the methods named in
METHODS.  Module functions are re-bound in every progmix module that holds
them, because the modules import each other's functions by name; methods are
replaced on their class.  Each wrapper records one span: its self time is its
duration minus the durations of the spans it called, so the self times of one
pass plus the time outside every span add up to the pass's wall time.

`budget.charge` is wrapped the same way to count the work units each budget
was charged.  Nothing inside src/progmix is edited, and uninstall() puts every
original back.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import tracemalloc
from time import perf_counter

SPANS = {
    "groups": ["special_linear_group", "centralizer", "conjugacy_class"],
    "mixing": [
        "progression_average",
        "progression_deviation",
        "restricted_progression_deviation",
        "convolve",
    ],
    "spectral": ["convolution_matrix", "spectral_norm"],
    "measures": ["conjugate_product_fibres", "heavy_mass"],
    "borel": [
        "borel_context",
        "four_term_average",
        "smoothing_gap",
        "sheared_average",
        "sheared_average_exact",
        "conic_analysis",
        "elimination_constants",
    ],
    "szemeredi": ["count_grid", "count_corners"],
}
METHODS = {
    ("groups", "GroupTable"): ["indices_of", "rmul_perm", "lmul_perm", "rmul_indices_many"],
    ("report", "ExperimentReport"): ["render"],
}
# The lru_cached constructors whose cache misses are reported as cold time.
CACHED = {"groups.special_linear_group", "borel.borel_context"}


def progmix_modules(package) -> dict:
    """Every submodule of the progmix package, by short name."""
    return {
        info.name: importlib.import_module(f"{package.__name__}.{info.name}")
        for info in pkgutil.iter_modules(package.__path__)
    }


class Tracer:
    def __init__(self, package):
        self.modules = progmix_modules(package)
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Zero every accumulator; called at the start of each traced pass."""
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.cold_s: dict[str, float] = {}
        self.keys = 0
        self.units = {"op": 0, "enumeration": 0, "membership": 0}
        self.matrix_bytes = 0
        self._largest_matrix_call = None
        self.covered = 0.0
        self._stack: list[float] = []

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        for mod_name, names in SPANS.items():
            mod = self.modules[mod_name]
            for name in names:
                original = getattr(mod, name)
                inner = self._measure_matrix(original) if name == "convolution_matrix" else original
                self._rebind(original, self._span(f"{mod_name}.{name}", inner, original))
        for (mod_name, cls_name), names in METHODS.items():
            cls = getattr(self.modules[mod_name], cls_name)
            for name in names:
                original = cls.__dict__[name]
                self._patches.append((cls, name, original))
                setattr(cls, name, self._span(f"{mod_name}.{name}", original, original))
        charge = self.modules["budget"].charge
        self._rebind(charge, self._charge(charge))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _rebind(self, original, wrapper) -> None:
        for mod in self.modules.values():
            names = [name for name, value in vars(mod).items() if value is original]
            for name in names:
                self._patches.append((mod, name, original))
                setattr(mod, name, wrapper)

    # -- wrappers -----------------------------------------------------------

    def _span(self, name: str, fn, original):
        cache_info = getattr(original, "cache_info", None) if name in CACHED else None
        count_keys = name == "groups.indices_of"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count_keys:
                self.keys += len(args[1])
            misses = cache_info().misses if cache_info else 0
            self._stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                children = self._stack.pop()
                self.self_s[name] = self.self_s.get(name, 0.0) + duration - children
                self.calls[name] = self.calls.get(name, 0) + 1
                if self._stack:
                    self._stack[-1] += duration
                else:
                    self.covered += duration
                if cache_info and cache_info().misses > misses:
                    self.cold_s[name] = self.cold_s.get(name, 0.0) + duration

        return wrapper

    def _measure_matrix(self, fn):
        """Record the computed size of each convolution matrix, and keep the
        largest call so that its memory can be measured outside the pass."""

        @functools.wraps(fn)
        def wrapper(table, mu):
            nbytes = table.size * table.size * 8
            if nbytes > self.matrix_bytes:
                self.matrix_bytes = nbytes
                self._largest_matrix_call = (fn, table, mu)
            return fn(table, mu)

        return wrapper

    def _matrix_peak_bytes(self) -> int:
        """tracemalloc peak of the pass's largest convolution_matrix call,
        replayed untimed: tracing every allocation inside the pass would
        inflate the self times of the spans below it."""
        if self._largest_matrix_call is None:
            return 0
        fn, table, mu = self._largest_matrix_call
        tracemalloc.start()
        try:
            fn(table, mu)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def _charge(self, fn):
        budget = self.modules["budget"]
        kinds = {
            budget.OP_BUDGET: "op",
            budget.ENUMERATION_BUDGET: "enumeration",
            budget.MEMBERSHIP_BUDGET: "membership",
        }

        @functools.wraps(fn)
        def wrapper(cost, default, what):
            self.units[kinds[default]] += cost
            return fn(cost, default, what)

        return wrapper

    # -- reading ------------------------------------------------------------

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer values of the pass that took `wall_s` seconds traced;
        call it after uninstall()."""
        out = {}
        for name, value in self.self_s.items():
            out[f"{name}.self_s"] = value
            out[f"{name}.calls"] = self.calls.get(name, 0)
        for name, value in self.cold_s.items():
            out[f"{name}.cold_s"] = value
        out["groups.indices_of.keys"] = self.keys
        for kind, units in self.units.items():
            out[f"budget.{kind}_units"] = units
        out["spectral.matrix_bytes"] = self.matrix_bytes
        out["spectral.convolution_matrix.peak_bytes"] = self._matrix_peak_bytes()
        out["trace.wall_s"] = wall_s
        out["trace.untraced_s"] = wall_s - self.covered
        return out
