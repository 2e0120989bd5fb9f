"""Outside-in tracer: spans around calls into jetweil's public functions.

The tracer wraps functions from outside the package and changes none of
its files.  ``from .weil import weil_mul`` in ``jets`` binds a second name
for the same function, so every module namespace that binds the original
object is patched, and every binding is restored on exit.

A span is (name, start, end, parent span, request id).  Spans stay in
memory; ``summary`` turns them into per-layer counts and self times, where
a span's self time is its duration minus the time covered by its children.
Spans of one thread nest, so the children's durations can simply be summed.
"""
from __future__ import annotations

import json
import math
import sys
import time
from collections import defaultdict

# (module, attribute) of every function the per-layer metrics cover
FUNCTIONS = (
    ("weil", "weil_mul"), ("weil", "weil_unary"), ("weil", "weil_recip"),
    ("weil", "weil_pow_int"), ("weil", "weil_add"), ("weil", "weil_sub"),
    ("weil", "weil_neg"), ("weil", "weil_const"),
    ("jets", "seed"), ("jets", "taylor_eval"),
    ("slp", "eval_generic"), ("slp", "parse_program"), ("slp", "eval_primal"),
    ("modes", "eval_dual"), ("modes", "record_tape"),
    ("modes", "reverse_sweep"),
    ("stability", "stability_bound"),
    ("oracle", "nested_jvp_schedule"), ("oracle", "symbolic_eval"),
    ("oracle", "finite_difference"),
    ("checks", "run_suite"),
    ("cli", "_emit"), ("cli", "main"),
)
# (module, class, method)
METHODS = (
    ("jets", "WeilSemantics", "apply"),
    ("jets", "DerivativeTable", "to_json_dict"),
)

_LIFTS = ("weil.weil_unary.", "weil.weil_recip", "weil.weil_pow_int")
_LINEAR = {"weil_add", "weil_sub", "weil_neg", "weil_const"}


def _pair_count(caps) -> int:
    """Pairs (alpha, beta) with alpha + beta inside the caps."""
    return math.prod((c + 1) * (c + 2) // 2 for c in caps)


class Tracer:
    """Context manager that records spans while jetweil's functions run."""

    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []   # [name, start, end, parent, request]
        self.counts: dict[str, dict[str, int]] = defaultdict(
            lambda: defaultdict(int))
        self.request = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- naming and counters ------------------------------------------------

    def _namer(self, module: str, attr: str):
        """Span name for a call; the weil layer splits by caller or kind."""
        if attr == "weil_mul":
            def name(args, kwargs):
                parent = self.spans[self._stack[-1]][0] if self._stack else ""
                where = "horner" if parent.startswith(_LIFTS) else "node"
                return f"weil.weil_mul.{where}"
            return name
        if attr == "weil_unary":
            return lambda args, kwargs: f"weil.weil_unary.{args[0]}"
        if attr in _LINEAR:
            return lambda args, kwargs: "weil.linear"
        if attr == "run_suite":
            return lambda args, kwargs: f"checks.run_suite.{args[0]}"
        fixed = f"{module}.{attr}"
        return lambda args, kwargs: fixed

    def _count(self, name: str, result) -> None:
        """Computed counters: result bytes and multiply-adds of weil kernels."""
        if not name.startswith("weil."):
            return
        coeffs = result.coeffs
        self.counts[name]["bytes"] += coeffs.nbytes
        if name.startswith("weil.weil_mul."):
            batch = coeffs.size // coeffs.shape[0]
            self.counts[name]["madds"] += _pair_count(result.shape.caps) * batch

    def _wrap(self, fn, namer):
        spans, stack, tracer = self.spans, self._stack, self

        def traced(*args, **kwargs):
            name = namer(args, kwargs)
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    tracer.request]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            tracer._count(name, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    # -- patching -----------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def __enter__(self) -> "Tracer":
        pkg = self.package.__name__
        try:
            for module, attr in FUNCTIONS:
                home = sys.modules[f"{pkg}.{module}"]
                original = getattr(home, attr)
                wrapped = self._wrap(original, self._namer(module, attr))
                for mod in list(sys.modules.values()):
                    if getattr(mod, "__dict__", {}).get(attr) is original:
                        self._patch(mod, attr, wrapped)
            for module, cls_name, attr in METHODS:
                cls = getattr(sys.modules[f"{pkg}.{module}"], cls_name)
                name = f"{module}.{cls_name}.{attr}"
                self._patch(cls, attr, self._wrap(
                    getattr(cls, attr), lambda args, kwargs, n=name: n))
        except BaseException:
            self._restore()
            raise
        return self

    def _restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __exit__(self, *exc) -> None:
        self._restore()

    # -- results ------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self_s and the computed counters."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0})
        for (name, start, end, _, _), children in zip(self.spans, child_time):
            row = out[name]
            row["calls"] += 1
            row["self_s"] += (end - start) - children
        for name, counters in self.counts.items():
            out[name].update(counters)
        return dict(out)

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, request in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent,
                                     "request": request}) + "\n")
