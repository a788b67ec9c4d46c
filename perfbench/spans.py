"""Per-layer spans recorded from outside the package.

The tracer wraps public functions of the ``ccndecomp`` modules at every
module attribute through which the package looks them up (a function imported
by name is a separate attribute of each importing module), and wraps methods
on their class.  Each wrapper records a span: call count, total duration and
self time (duration minus the time of the spans it encloses).  Spans are kept
in memory and read out when the benchmark ends.

A hook whose target no longer exists is listed in ``missing`` instead of
raising, so a refactor of the package never breaks the benchmark; the timed
(untraced) run does not use the tracer at all.
"""

from __future__ import annotations

import dataclasses
import sys
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable

PACKAGE = "ccndecomp"

# (module, attribute, span name): module-level functions.
FUNCTION_HOOKS = [
    ("cli", "main", "cli.main"),
    ("multiindex", "iter_multiindices", "multiindex.iter"),
    ("stirling", "coefficient_c", "stirling.coefficient_c"),
    ("monoid", "sample_dyadic", "monoid.sample"),
    ("oracle", "admissibility_check", "oracle.admissibility"),
    ("coupling", "coupling_eval_explicit", "coupling.explicit"),
    ("coupling", "coupling_family_check", "coupling.family_check"),
    ("basis", "basis_from_oracle_direct", "basis.direct"),
    ("basis", "basis_family_check", "basis.family_check"),
    ("network", "parse_network", "network.parse"),
    ("network", "evaluate_vector_field", "network.vector_field"),
    ("network", "integrate_rk4", "network.rk4"),
]
# (module, class, method, span name): methods wrapped on the class.
METHOD_HOOKS = [
    ("oracle", "PolynomialOracle", "evaluate", "oracle.evaluate"),
    ("oracle", "BlackBoxOracle", "evaluate", "oracle.evaluate"),
    ("network", "Network", "in_neighborhood", "network.in_neighborhood"),
]
# (module, class, classmethod, span name): factories whose returned family's
# ``component`` closure is wrapped (the closed-form coupling component is not
# reachable as a module attribute).
FAMILY_HOOKS = [
    ("coupling", "CouplingFamily", "from_polynomial", "coupling.closed_form"),
]
# Generator functions: the wrapper drains the generator inside the span so
# that the enumeration time lands on it.  Every caller in the package
# consumes the whole stream.
MATERIALIZED = {"multiindex.iter"}
STIRLING_CACHES = ("stirling1", "stirling2", "r_stirling1")


# Extra counts recorded after a call: name -> fn(counters, args, kwargs, result).
def _count_inputs(counters, args, kwargs, result):
    counters["oracle.inputs"] += len(args[2] if len(args) > 2 else kwargs["inputs"])


def _count_scan(counters, args, kwargs, result):
    counters["network.slots_scanned"] += len(args[0].cells)
    counters["network.edges_returned"] += len(result)


def _count_yield(counters, args, kwargs, result):
    counters["multiindex.yielded"] += len(result)


COUNTERS: dict[str, Callable] = {
    "oracle.evaluate": _count_inputs,
    "network.in_neighborhood": _count_scan,
    "multiindex.iter": _count_yield,
}


class Tracer:
    """Installs span wrappers into the loaded package and removes them."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counters: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._stack: list[list[float]] = []
        self._undo: list[tuple[Any, str, Any]] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        stack, calls, total, self_time = self._stack, self.calls, self.total, self.self_time
        count = COUNTERS.get(name)
        materialize = name in MATERIALIZED
        counters, missing = self.counters, self.missing

        def span(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if materialize:
                    result = list(result)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                calls[name] += 1
                total[name] += elapsed
                self_time[name] += elapsed - children[0]
            if count is not None:
                try:
                    count(counters, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    if f"{name} counts" not in missing:
                        missing.append(f"{name} counts")
            return iter(result) if materialize else result

        return span

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for mod_name, attr, name in FUNCTION_HOOKS:
            original = getattr(sys.modules.get(f"{PACKAGE}.{mod_name}"), attr, None)
            if not callable(original):
                self.missing.append(f"{mod_name}.{attr}")
                continue
            wrapper = self.wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapper)
        for mod_name, cls_name, attr, name in METHOD_HOOKS:
            cls = getattr(sys.modules.get(f"{PACKAGE}.{mod_name}"), cls_name, None)
            original = getattr(cls, "__dict__", {}).get(attr)
            if not callable(original):
                self.missing.append(f"{mod_name}.{cls_name}.{attr}")
                continue
            self._set(cls, attr, self.wrap(name, original))
        for mod_name, cls_name, attr, name in FAMILY_HOOKS:
            cls = getattr(sys.modules.get(f"{PACKAGE}.{mod_name}"), cls_name, None)
            original = getattr(cls, "__dict__", {}).get(attr)
            if not isinstance(original, classmethod):
                self.missing.append(f"{mod_name}.{cls_name}.{attr}")
                continue
            self._set(cls, attr, classmethod(self._family_factory(name, original.__func__)))

    def _family_factory(self, name: str, factory: Callable) -> Callable:
        def traced_factory(cls, *args, **kwargs):
            family = factory(cls, *args, **kwargs)
            if not dataclasses.is_dataclass(family) or not callable(getattr(family, "component", None)):
                if name not in self.missing:
                    self.missing.append(name)
                return family
            return dataclasses.replace(family, component=self.wrap(name, family.component))

        return traced_factory

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def stirling_cache_stats() -> tuple[int, int] | None:
    """(hits, misses) summed over the Stirling table caches, or None when a
    cache is gone."""
    module = sys.modules.get(f"{PACKAGE}.stirling")
    hits = misses = 0
    for attr in STIRLING_CACHES:
        info = getattr(getattr(module, attr, None), "cache_info", None)
        if info is None:
            return None
        stats = info()
        hits += stats.hits
        misses += stats.misses
    return hits, misses
