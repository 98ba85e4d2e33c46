"""Spans at qcsp's layer boundaries, recorded from outside the program.

Each traced function is replaced, at every module attribute of the loaded
qcsp package that holds it, by a wrapper that records one span per call:
name, start, end (process CPU clock, ns), parent span and operation id.
Spans are kept in memory and written out when the run ends.  Counters are
computed from each call's arguments and result at the same boundary.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# "module.function" of each wrapped function in the qcsp package.  The
# closure checks (is_horn, ...) are reached through the solvers' private flag
# table and cannot be wrapped from outside; solvers.dispatch_class stands for
# classifier time on the solve path.
SPANS = (
    "parser.parse_document",
    "solvers.solve_tractable",
    "solvers.synthesize_normal_form",
    "solvers.dispatch_class",
    "classifier.classify_set",
    "evaluator.evaluate",
    "implsearch.find_implementation",
    "implsearch.check_implementation",
    "gadgets.remove_constants",
    "gadgets.complement_expression",
)

COUNTERS = (
    "parser.bytes",
    "parser.applications",
    "solvers.variables",
    "solvers.applications",
    "solvers.synthesize_normal_form.first_seen",
    "classifier.sat_rows",
    "evaluator.variables",
    "evaluator.true",
    "implsearch.found",
    "implsearch.not_found",
    "implsearch.witness_apps",
    "implsearch.witness_aux",
    "gadgets.remove_constants.with_helper",
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (op, id, parent, name, start, end)
        self.counters: dict[str, int] = defaultdict(int)
        self.synth_seen: set[tuple] = set()
        self.recording = False
        self.op = 0
        self._stack: list[int] = []
        self._next_id = 0
        self._patched: list[tuple] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == "qcsp" or name.startswith("qcsp.")]
        for span in SPANS:
            mod_name, attr = span.split(".")
            original = getattr(sys.modules[f"qcsp.{mod_name}"], attr)
            wrapper = self._wrap(span, original, getattr(self, "_count_" + attr, None))
            for m in modules:
                if getattr(m, attr, None) is original:
                    self._patched.append((m, attr, original))
                    setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    def _wrap(self, name, fn, count):
        clock = time.process_time_ns

        def wrapper(*args, **kwargs):
            if not self.recording:
                result = fn(*args, **kwargs)
                if name == "solvers.synthesize_normal_form":
                    self.synth_seen.add(_synth_key(args))
                return result
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._stack.pop()
                self.spans.append((self.op, span_id, parent, name, start, end))
            if count is not None:
                count(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- operations ----------------------------------------------------------

    def begin_op(self) -> None:
        self.op += 1
        self._stack = [self._next_id]
        self._next_id += 1
        self._root_start = time.process_time_ns()

    def end_op(self) -> None:
        end = time.process_time_ns()
        root = self._stack[0]
        self.spans.append((self.op, root, -1, "op", self._root_start, end))
        self._stack = []

    # -- counters --------------------------------------------------------------

    def _count_parse_document(self, args, kwargs, doc):
        self.counters["parser.bytes"] += len(args[0].encode())
        self.counters["parser.applications"] += sum(len(e.matrix) for e in doc.expressions.values())

    def _count_solve_tractable(self, args, kwargs, value):
        expr = args[0]
        self.counters["solvers.variables"] += len(expr.variables())
        self.counters["solvers.applications"] += len(expr.matrix)

    def _count_synthesize_normal_form(self, args, kwargs, form):
        key = _synth_key(args)
        if key not in self.synth_seen:
            self.synth_seen.add(key)
            self.counters["solvers.synthesize_normal_form.first_seen"] += 1

    def _count_classify_set(self, args, kwargs, report):
        self.counters["classifier.sat_rows"] += sum(bin(c.bits).count("1") for c in args[0])

    def _count_evaluate(self, args, kwargs, value):
        self.counters["evaluator.variables"] += len(args[0].variables())
        self.counters["evaluator.true"] += value

    def _count_find_implementation(self, args, kwargs, impl):
        if impl is None:
            self.counters["implsearch.not_found"] += 1
            return
        self.counters["implsearch.found"] += 1
        self.counters["implsearch.witness_apps"] += len(impl.apps)
        self.counters["implsearch.witness_aux"] += len(impl.aux_vars)

    def _count_remove_constants(self, args, kwargs, result):
        if result.implementations_used:
            self.counters["gadgets.remove_constants.with_helper"] += 1

    # -- summary ---------------------------------------------------------------

    def summary(self, rounds: int) -> dict[str, float]:
        """Per-round calls, total and self time of each span, the counters,
        and the time of the operations outside every span."""
        child_time: dict[tuple[int, int], int] = defaultdict(int)
        for op, _, parent, _, start, end in self.spans:
            if parent >= 0:
                child_time[op, parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, int] = defaultdict(int)
        self_ns: dict[str, int] = defaultdict(int)
        for op, span_id, _, name, start, end in self.spans:
            calls[name] += 1
            total[name] += end - start
            self_ns[name] += end - start - child_time[op, span_id]
        out: dict[str, float] = {}
        for name in SPANS:
            out[f"{name}.calls"] = calls[name] / rounds
            out[f"{name}.total_ms"] = total[name] / rounds / 1e6
            out[f"{name}.self_ms"] = self_ns[name] / rounds / 1e6
        for name in COUNTERS:
            out[name] = self.counters[name] / rounds
        out["trace.outside_ms"] = self_ns["op"] / rounds / 1e6
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for op, span_id, parent, name, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {"op": op, "id": span_id, "parent": parent, "name": name,
                         "start_ns": start, "end_ns": end}
                    )
                    + "\n"
                )


def _synth_key(args) -> tuple:
    c, kind = args[0], args[1]
    return (c.arity, c.bits, kind.value)
