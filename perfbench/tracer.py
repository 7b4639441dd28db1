"""Spans around calls into each zassenhaus module's public functions.

The tracer never edits the package; it wraps functions from outside.
``install`` replaces each public function (a plain function listed in its
module's ``__all__``) by a timing wrapper wherever another module holds a
reference to it: in the package namespace, in every module that imported
it with ``from ... import``, and in module-level dicts such as
``cli._SWEEP_CHECKS`` that store the function object itself.  Inside its
own module a function is wrapped only when it has a per-layer figure of
its own (``OWN_MODULE_SPANS``): the nine checks that ``run_suite`` calls,
``g_right`` under ``g_left``, ``cli.main`` called by the benchmark.  Other
calls within one module (``c_from_recurrence`` calling ``beta_step`` 400
times per verify) stay unwrapped, so tracing does not inflate them.
``remove`` puts every original back.

A layer is one module.  Its self time is the time during which the
innermost open span belongs to it, so it excludes the spans of other
layers it calls and nested spans of its own layer are not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict

LAYERS = ("coeffs", "recurrence", "matrices", "realizations", "verify", "cli")
PACKAGE = "zassenhaus"

# Coefficients whose call times are bucketed by the evaluation path they
# return.  Every coefficient call from outside coeffs is counted by path.
COEFF_FNS = ("g_right", "f_bch", "gamma_swap")
OWN_MODULE_SPANS = frozenset(
    COEFF_FNS
    + ("check_disentangle", "check_swap", "check_bch", "check_ab_structure",
       "check_integral", "check_truncated_product", "check_hadamard",
       "quadrature_gr", "main")
)


class Tracer:
    """Counts and times spans; ``install``/``remove`` toggle the wrappers."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self._patches: list[tuple[dict, object, object, object]] = []
        self.stack: list[str] = []
        self.mark = 0.0
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls: Counter[str] = Counter()
        self.time_s: defaultdict[str, float] = defaultdict(float)

    def _add(self, key: str, seconds: float) -> None:
        self.calls[key] += 1
        self.time_s[key] += seconds

    def _classify(self, layer: str, name: str, outer: bool, seconds: float,
                  args, result, exc) -> None:
        self._add(f"{layer}.{name}", seconds)
        if layer == "coeffs":
            if exc is None and hasattr(result, "method"):
                method = result.method.value
                if name in COEFF_FNS:
                    self._add(f"coeffs.{name}.{method}", seconds)
                if outer:
                    self.calls[f"coeffs.calls.{method}"] += 1
                    self.calls["coeffs.terms"] += result.terms_used
            elif outer and type(exc).__name__ == "PoleError":
                self.calls["coeffs.pole_errors"] += 1
        elif layer == "matrices" and name == "expm":
            shape = getattr(result if exc is None else args[0], "shape", (0,))
            self._add(f"matrices.expm.d{shape[0]}", seconds)
        elif layer == "verify" and exc is None and name.startswith("check_"):
            self._add(f"verify.check.{result.name}", seconds)

    def _wrap(self, layer: str, name: str, fn):
        tracer = self
        clock = self.clock

        @functools.wraps(fn)
        def span(*args, **kwargs):
            start = clock()
            stack = tracer.stack
            outer = not stack or stack[-1] != layer
            if stack:
                tracer.self_s[stack[-1]] += start - tracer.mark
            stack.append(layer)
            tracer.mark = start
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as caught:
                exc = caught
                raise
            finally:
                end = clock()
                tracer.self_s[layer] += end - tracer.mark
                stack.pop()
                tracer.mark = end
                tracer._classify(layer, name, outer, end - start, args, result, exc)

        return span

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for name in module.__all__:
                fn = getattr(module, name)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[id(fn)] = (fn, name, self._wrap(layer, name, fn))

        def wrapper_for(value, holder: str):
            entry = wrappers.get(id(value))
            if entry is None or entry[0] is not value:
                return None
            if value.__module__ == holder and entry[1] not in OWN_MODULE_SPANS:
                return None
            return entry[2]

        for mod_name in (PACKAGE, *(f"{PACKAGE}.{layer}" for layer in LAYERS)):
            namespace = vars(importlib.import_module(mod_name))
            for key, value in list(namespace.items()):
                entries = [(namespace, key, value)]
                if isinstance(value, dict):
                    entries = [(value, k, v) for k, v in value.items()]
                for container, k, v in entries:
                    wrapper = wrapper_for(v, mod_name)
                    if wrapper is not None:
                        self._patches.append((container, k, v, wrapper))
        for container, key, _, wrapper in self._patches:
            container[key] = wrapper

    def remove(self) -> None:
        for container, key, original, _ in reversed(self._patches):
            container[key] = original
        self._patches.clear()
