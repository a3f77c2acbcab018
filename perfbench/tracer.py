"""Outside-in tracing of giryq: spans recorded around public calls.

Nothing in ``src/giryq`` is edited.  :meth:`Tracer.install` rebinds the
names that giryq's modules look up at call time (module globals, the CLI's
quantifier dispatch table and ``LawReport.line``) to wrappers that record a
span per call: name, start, end and the index of the enclosing span.  Spans
stay in memory until the run ends.
"""
from __future__ import annotations

import functools
import importlib
import time
from typing import Any, Callable, Optional

# public functions wrapped per layer; a span is named "<layer>.<function>"
LAYER_FUNCTIONS = {
    "scenario": ("load_scenario",),
    "cli": ("evaluate_scenario", "evaluate_query", "render_text"),
    "quantifiers": (
        "exists_fiber", "forall_fiber", "exists_lifted", "forall_lifted",
        "exists_composite", "forall_composite", "exists_at", "forall_at",
        "check_adjunction_bounds", "check_galois",
    ),
    "kernels": (
        "compose", "lift", "image_measure", "mixture", "is_deterministic",
        "extract_point_function", "pushforward", "identity_kernel",
        "deterministic_kernel",
    ),
    "predicates": ("expectation", "entails", "substitute"),
    "measures": ("tv_metric", "tv_norm"),
    "lp": ("lp_solve",),
    "laws": ("run_suites", "run_suite"),
}
LAYERS = tuple(LAYER_FUNCTIONS)

# spans whose arguments and results are kept for counters computed after the run
KEPT = frozenset({
    "lp.lp_solve", "kernels.compose",
    "quantifiers.exists_lifted", "quantifiers.forall_lifted",
    "quantifiers.exists_fiber", "quantifiers.forall_fiber",
})

# the op an end-to-end run times, per CLI subcommand
OP_SPANS = {"run": "cli.evaluate_query", "laws": "laws.run_suite"}

_PATCHED_MODULES = ("cli", "scenario", "quantifiers", "kernels", "predicates",
                    "measures", "lp", "laws")


class Tracer:
    """In-memory span recorder.

    ``spans`` holds ``[name, start, end, parent, detail]`` lists; ``parent``
    is the index of the enclosing span or -1.  ``calls`` keeps, per span
    name, the ``(span index, args, result)`` of every call, for counters
    computed after the run.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.calls: dict[str, list[tuple[int, tuple, Any]]] = {}
        self.originals: dict[str, Callable] = {}
        self._stack: list[int] = []

    def span(self, name: str, fn: Callable, args: tuple, kwargs: Optional[dict] = None,
             detail: Optional[str] = None, keep: bool = False) -> Any:
        """Call ``fn(*args, **kwargs)`` inside a span named ``name``."""
        spans, stack = self.spans, self._stack
        idx = len(spans)
        record = [name, 0.0, 0.0, stack[-1] if stack else -1, detail]
        spans.append(record)
        stack.append(idx)
        record[1] = time.perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            record[2] = time.perf_counter()
            stack.pop()
        if keep:
            self.calls.setdefault(name, []).append((idx, args, result))
        return result

    def wrap(self, name: str, fn: Callable, keep: bool = False) -> Callable:
        detail_of_first_arg = name == "laws.run_suite"

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            detail = args[0] if detail_of_first_arg and args else None
            return self.span(name, fn, args, kwargs, detail, keep)

        return traced

    def install(self, only: Optional[tuple[str, ...]] = None) -> None:
        """Rebind giryq's public functions to traced wrappers.

        ``only`` restricts tracing to the named spans (an end-to-end run
        traces just its op); by default every function in
        ``LAYER_FUNCTIONS`` is traced.
        """
        modules = {m: importlib.import_module(f"giryq.{m}") for m in _PATCHED_MODULES}
        wrappers: dict[int, Callable] = {}
        for layer, names in LAYER_FUNCTIONS.items():
            for fname in names:
                span_name = f"{layer}.{fname}"
                if only is not None and span_name not in only:
                    continue
                original = getattr(modules[layer], fname)
                self.originals[span_name] = original
                if fname == "lift":
                    wrapper = self._wrap_lift(original)
                else:
                    wrapper = self.wrap(span_name, original, keep=span_name in KEPT)
                wrappers[id(original)] = wrapper
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if callable(value) and id(value) in wrappers:
                    setattr(module, attr, wrappers[id(value)])
        ops = modules["cli"]._QUANTIFIER_OPS
        for kind, fn in list(ops.items()):
            ops[kind] = wrappers.get(id(fn), fn)
        if only is None:
            report = modules["laws"].LawReport
            report.line = self.wrap("laws.report_line", report.line)

    def _wrap_lift(self, lift: Callable) -> Callable:
        # lift(kernel) builds the lifted map; the work happens when it is applied
        @functools.wraps(lift)
        def traced_lift(kernel: Any) -> Callable:
            return self.wrap("kernels.lift", lift(kernel))

        return traced_lift

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def self_times(self) -> dict[str, float]:
        """Seconds per layer spent in that layer's own code.

        A span's self time is its duration minus its direct children's;
        the self times of all spans add up to the root spans' durations.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = dict.fromkeys(LAYERS, 0.0)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name.split(".", 1)[0]] += end - start - child[i]
        return out
