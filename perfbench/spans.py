"""Span tracing of `davote` from outside the package.

`Tracer.install` replaces chosen public functions with wrappers in every
`davote` module namespace that holds them, because modules import each
other's functions by name.  A wrapper records a span (name, start, end,
parent span, operation id) and a few counters; `argmax_set` is only
counted, since it runs millions of times and a span there would distort
what it measures.  Spans stay in memory until `dump` writes them out.

A span's self time is its duration minus the time its child spans
cover.  A call that raises counts as an error only where it leaves the
outermost span of its name, so recursion and nested entry points do not
count one failure twice.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter

# (module, function, span).  The span name is the prefix of the
# per-layer metrics <span>_s (self time), <span>_calls and <span>_errors.
SPANS = (
    ("core", "signature_of_strategy", "core.signature"),
    ("core", "row_signature", "core.row_signature"),
    ("core", "labeling_generates", "core.regenerate"),
    ("core", "enumerate_strategies", "core.enumerate"),
    ("core", "generate_correspondence", "core.generate"),
    ("core", "generate_form", "core.generate"),
    ("core", "transpose_tableau", "core.transpose"),
    ("recognizer", "recognize_tableau", "recognizer.self"),
    ("recognizer", "recognize_correspondence", "recognizer.self"),
    ("recognizer", "recognize_form", "recognizer.self"),
    ("recognizer", "bipartite_column_matching", "recognizer.column_match"),
    ("recognizer", "b_set_family", "recognizer.b_set_family"),
    ("matching", "maximum_matching", "matching.match"),
    ("matching", "column_adjacency", "matching.adjacency"),
    ("oracle", "oracle_recognize", "oracle.search"),
    ("plurality", "recognize_plurality_form", "plurality.recognize"),
    ("plurality", "find_forbidden_submatrix", "plurality.witness"),
    ("special", "recognize_n_tableau", "special.recognize_n"),
    ("special", "plane_signature", "special.plane_signature"),
    ("special", "recognize_form_2_2", "special.recognize_2_2"),
    ("distinctness", "identical_correspondence_rows", "distinctness.direct"),
    ("distinctness", "empty_differentiating_pairs", "distinctness.direct"),
    ("distinctness", "all_forms_rows_distinct_direct", "distinctness.direct"),
    ("distinctness", "correspondence_rows_distinct_direct", "distinctness.direct"),
    ("tableau_io", "load_tableau", "tableau_io.load"),
    ("tableau_io", "loads_tableau", "tableau_io.load"),
    ("tableau_io", "dumps_tableau", "tableau_io.dump"),
    ("tableau_io", "dumps_result", "tableau_io.dump"),
    ("cli", "main", "cli.main"),
)
SPAN_NAMES = tuple(dict.fromkeys(s for _, _, s in SPANS))
METHODS = ("signature-matching", "lu-counting", "plurality", "counting-intervals", "two-candidate", "oracle")
ROOT = "bench.op"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.stack: list[list] = []  # [span id, name, start, time covered by children]
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.errors: Counter = Counter()
        self.counts: Counter = Counter()
        self.op = None
        self.absent: list[str] = []
        self._patched: list[tuple] = []
        self._next = 0

    def call(self, name, fn, args, kwargs):
        parent = self.stack[-1] if self.stack else None
        frame = [self._next, name, perf_counter(), 0.0]
        self._next += 1
        self.stack.append(frame)
        try:
            return fn(*args, **kwargs)
        except BaseException:
            if self.outermost(name):
                self.errors[name] += 1
            raise
        finally:
            end = perf_counter()
            self.stack.pop()
            dur = end - frame[2]
            self.self_s[name] += dur - frame[3]
            self.calls[name] += 1
            if parent is not None:
                parent[3] += dur
            self.spans.append((frame[0], name, frame[2], end, parent[0] if parent else None, self.op))

    def outermost(self, name) -> bool:
        """True inside a wrapper when no enclosing span has the same name."""
        return all(f[1] != name for f in self.stack[:-1])

    def _wrap(self, name, fn, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if after is None:
                return tracer.call(name, fn, args, kwargs)
            return tracer.call(name, lambda *a, **k: after(tracer, name, fn(*a, **k), a), args, kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_argmax(self, fn):
        counts = self.counts

        def wrapper(z):
            counts["core.argmax_calls"] += 1
            return fn(z)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n == "davote" or n.startswith("davote.")]
        targets = [("core", "argmax_set", None)] + list(SPANS)
        for mod_name, attr, span in targets:
            home = sys.modules.get(f"davote.{mod_name}")
            if home is None:  # not loaded by this workload
                continue
            fn = getattr(home, attr, None)
            if fn is None:
                self.absent.append(f"{mod_name}.{attr}")
                continue
            wrapper = self._count_argmax(fn) if span is None else self._wrap(span, fn, _AFTER.get(attr))
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, fn))

    def uninstall(self) -> None:
        for mod, key, fn in reversed(self._patched):
            setattr(mod, key, fn)
        self._patched.clear()

    def metrics(self) -> dict:
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}_s"] = float(self.self_s[name])  # 0.0 where the workload never enters the span
            out[f"{name}_calls"] = self.calls[name]
            out[f"{name}_errors"] = self.errors[name]
        for key in ("core.argmax_calls", "matching.adjacency_edges", "oracle.nodes",
                    "tableau_io.bytes_in", "tableau_io.bytes_out"):
            out[key] = self.counts[key]
        for m in METHODS:
            out[f"recognizer.method.{m}"] = self.counts[f"method.{m}"]
        for code in range(4):
            out[f"cli.exit.{code}"] = self.counts[f"exit.{code}"]
        total = sum(e - s for _, n, s, e, _, _ in self.spans if n == ROOT)
        out["trace.loop_share"] = self.self_s[ROOT] / total if total else 0.0
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent", "op"], "spans": self.spans}, fh)


def _after_method(tracer, name, res, args):
    if tracer.outermost(name):
        tracer.counts[f"method.{res.method}"] += 1
    return res


def _after_edges(tracer, name, adjacency, args):
    tracer.counts["matching.adjacency_edges"] += sum(len(a) for a in adjacency)
    return adjacency


def _after_nodes(tracer, name, report, args):
    tracer.counts["oracle.nodes"] += report.nodes_explored
    return report


def _after_loads(tracer, name, out, args):
    tracer.counts["tableau_io.bytes_in"] += len(args[0].encode())
    return out


def _after_dump(tracer, name, text, args):
    if tracer.outermost(name):
        tracer.counts["tableau_io.bytes_out"] += len(text.encode())
    return text


def _after_exit(tracer, name, code, args):
    tracer.counts[f"exit.{code}"] += 1
    return code


# Counters read from a function's result, keyed by function name.
_AFTER = {
    "recognize_tableau": _after_method,
    "recognize_correspondence": _after_method,
    "recognize_form": _after_method,
    "column_adjacency": _after_edges,
    "oracle_recognize": _after_nodes,
    "loads_tableau": _after_loads,
    "dumps_tableau": _after_dump,
    "dumps_result": _after_dump,
    "main": _after_exit,
}
