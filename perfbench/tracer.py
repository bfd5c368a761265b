"""Outside-in tracer: spans around calls into chrdc's public functions.

The program is not changed. Each traced function is replaced by a timing
wrapper in every `chrdc.*` module that holds a binding to it, because
`from .state import canonicalize` copies the name into the importing
module. `uninstall` puts the original objects back, so untraced runs
execute unpatched code.

`chrdc.terms` (unify, apply, match) is deliberately not wrapped: those run
hundreds of thousands of times per job and a wrapper would dominate the
trace. Their cost lands in the self time of their callers.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, how to wrap). A "generator" is timed per next(), an
# "init" is a class whose construction is timed.
TARGETS = (
    ("chrdc.cli", "main", "call"),
    ("chrdc.syntax", "parse_program_file", "call"),
    ("chrdc.config", "load_config_file", "call"),
    ("chrdc.reports", "emit_report", "call"),
    ("chrdc.peaks", "critical_peaks", "call"),
    ("chrdc.state", "canonicalize", "call"),
    ("chrdc.state", "equivalent", "call"),
    ("chrdc.engine", "applicable_steps", "call"),
    ("chrdc.analysis", "join_search", "call"),
    ("chrdc.analysis", "check_modularity", "call"),
    ("chrdc.orders", "admissible_total_preorders", "generator"),
    ("chrdc.orders", "RulePreorder", "init"),
    ("chrdc.orders", "check_inductive_termination", "call"),
)

# Counts taken from a traced function's result: layer -> (counter, f(result)).
RESULT_COUNTS = {
    "peaks.critical_peaks": ("peaks.emitted", len),
    "engine.applicable_steps": ("engine.steps_generated", len),
    "state.equivalent": ("state.equivalent.true", bool),
    "analysis.join_search": ("analysis.closed", lambda v: v.closed),
}


def layer_name(module: str, attr: str) -> str:
    return f"{module.split('.', 1)[1]}.{attr}"


class Tracer:
    """Spans (name, start, end, parent, job) kept in memory, plus per-layer
    call counts, total time and self time (duration minus child spans)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.job = -1
        self._stack: list[list] = []  # [span index, time inside child spans]
        self._undo: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def _enter(self, name_id: int) -> None:
        index = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_job.append(self.job)
        self.span_end.append(0.0)
        self._stack.append([index, 0.0])
        self.span_start.append(perf_counter())

    def _exit(self) -> None:
        end = perf_counter()
        index, child = self._stack.pop()
        self.span_end[index] = end
        duration = end - self.span_start[index]
        name = self.names[self.span_name[index]]
        self.calls[name] += 1
        self.total[name] += duration
        self.self_time[name] += duration - child
        if self._stack:
            self._stack[-1][1] += duration

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    # -- wrappers ------------------------------------------------------------

    def _wrap_call(self, name: str, fn):
        name_id = self._name_id(name)
        count = RESULT_COUNTS.get(name)
        enter, exit_ = self._enter, self._exit
        counts = self.counts

        def traced(*args, **kwargs):
            enter(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_()
            if count is not None:
                counts[count[0]] += count[1](result)
            return result

        return traced

    def _wrap_generator(self, name: str, fn):
        name_id = self._name_id(name)
        enter, exit_ = self._enter, self._exit
        counts = self.counts
        produced = name.split(".", 1)[0] + ".enumerated"

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                enter(name_id)
                try:
                    value = next(inner)
                except StopIteration:
                    return
                finally:
                    exit_()
                counts[produced] += 1
                yield value

        return traced

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        modules = [
            m for n, m in sorted(sys.modules.items())
            if (n == "chrdc" or n.startswith("chrdc.")) and m is not None
        ]
        for module_name, attr, kind in TARGETS:
            name = layer_name(module_name, attr)
            original = getattr(sys.modules[module_name], attr)
            if kind == "init":
                init = original.__init__
                self._undo.append((original, "__init__", init))
                original.__init__ = self._wrap_call(name, init)
                continue
            wrap = self._wrap_generator if kind == "generator" else self._wrap_call
            traced = wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, original))
                        setattr(module, key, traced)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    # -- output --------------------------------------------------------------

    def write_spans(self, path) -> int:
        """Write spans as tab-separated lines, times in microseconds from
        the first span. `parent` is the 0-based data line of the enclosing
        span, -1 for a job's `cli.main`. Returns the number written."""
        n = len(self.span_start)
        t0 = self.span_start[0] if n else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_us\tend_us\tparent\tjob\n")
            for i in range(n):
                fh.write(
                    f"{self.names[self.span_name[i]]}\t"
                    f"{(self.span_start[i] - t0) * 1e6:.1f}\t"
                    f"{(self.span_end[i] - t0) * 1e6:.1f}\t"
                    f"{self.span_parent[i]}\t{self.span_job[i]}\n"
                )
        return n
