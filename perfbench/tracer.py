"""Spans around the public idemnorm functions the benchmark attributes time to.

A traced function is rebound in every idemnorm module namespace that holds it,
because modules import each other's functions by name (sweep.py imports
analyze_cosets, cb_norm and find_witness; cli.py imports sweep and gamma2) and
a call through such a name would otherwise get past the wrapper.  Group.mul
and translate_left/translate_right are deliberately not wrapped: the wrapper
would cost more than the call, so their time lands in the caller whose
algorithm decides how often they run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass

TRACED = (
    ("cli", "main"),
    ("sweep", "sweep"),
    ("sweep", "canonical_form"),
    ("sweep", "classify"),
    ("groups", "analyze_cosets"),
    ("groups", "stabilizer"),
    ("groups", "is_subgroup"),
    ("bs", "bs_norm"),
    ("witness", "find_witness"),
    ("witness", "witness_norm_bound"),
    ("multiplier", "multiplier_matrix"),
    ("multiplier", "forbidden_pattern_search"),
    ("multiplier", "cb_norm"),
    ("schur", "gamma2"),
)

NAMES = tuple(f"{module}.{func}" for module, func in TRACED)


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level
    raised: bool


class Tracer:
    """Records one span per call of each traced function while installed.

    Use as a context manager; leaving it restores every rebound name.  It
    may be entered again: spans accumulate.
    """

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        owners = {name: importlib.import_module(f"idemnorm.{name}") for name, _ in TRACED}
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "idemnorm" or name.startswith("idemnorm."))]
        for module_name, func_name in TRACED:
            original = getattr(owners[module_name], func_name)
            wrapped = self._wrap(f"{module_name}.{func_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, original))
                        setattr(module, attr, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()
        # a deadline alarm can land inside a wrapper's own bookkeeping and
        # leave a span open; no span outlives the traced region
        self._stack.clear()

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            raised = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = Span(name, start, end, parent, raised)

        return traced

    def layer_totals(self) -> dict[str, dict]:
        """Per traced function: calls, calls that raised, and self time (the
        span's duration minus the time its traced children cover)."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span is not None and span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        totals = {name: {"calls": 0, "raised": 0, "self_s": 0.0} for name in NAMES}
        for span, children in zip(self.spans, child_time):
            if span is None:  # a deadline alarm cut it while it was recorded
                continue
            slot = totals[span.name]
            slot["calls"] += 1
            slot["raised"] += span.raised
            slot["self_s"] += (span.end - span.start) - children
        return totals
