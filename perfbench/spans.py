"""In-memory span recorder that wraps relayqos's public functions from outside.

Each wrapper is installed on the module attribute through which the calling
layer looks the function up (``relayqos.cli.allocate``, ``relayqos.allocator.
effective_capacity_rayleigh``, ...), so the program's own code is unchanged
and the untraced run does no wrapping at all.  A span records its name,
start, end, parent span and request id; spans stay in a list until the run
ends.

``cli.sweep`` hands its points to a thread pool whose threads start with an
empty span stack.  The benchmark is a single closed-loop caller, so at most
one request is in flight: a span opened on a thread with an empty stack takes
as parent the innermost open span of the thread that created the tracer,
which is the ``cli.sweep`` call blocked on the pool.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time
from dataclasses import dataclass

# (layer, module that looks the function up, attribute) for every wrapped
# call site.  The span name is "<layer>.<attribute>".
# ``relayqos.allocate`` is where the benchmark itself looks up ``allocate``
# for its direct solves.
CALL_SITES = (
    ("cli", "relayqos.cli", "main"),
    ("cli", "relayqos.cli", "sweep"),
    ("cli", "relayqos.cli", "validate"),
    ("cli", "relayqos.cli", "ccdf_table"),
    ("allocator", "relayqos.cli", "allocate"),
    ("allocator", "relayqos", "allocate"),
    ("allocator", "relayqos.allocator", "solve_theta1"),
    ("allocator", "relayqos.allocator", "solve_kappa1"),
    ("allocator", "relayqos.allocator", "solve_theta2"),
    ("allocator", "relayqos.allocator", "solve_kappa2"),
    ("effcap", "relayqos.allocator", "effective_capacity_rayleigh"),
    ("effcap", "relayqos.allocator", "effective_bandwidth_service_rayleigh"),
    ("effcap", "relayqos.qsim", "ergodic_rate"),
    ("specfun", "relayqos.allocator", "qos_rate_target"),
    ("specfun", "relayqos.effcap", "log_upper_incomplete_gamma"),
    ("specfun", "relayqos.delaymodel", "qos_rate_target"),
    ("delaymodel", "relayqos.cli", "two_hop_ccdf"),
    ("delaymodel", "relayqos.cli", "single_hop_ccdf"),
    ("delaymodel", "relayqos.cli", "invert_equal_rate_ccdf"),
    ("qsim", "relayqos.cli", "simulate_tandem"),
    ("qsim", "relayqos.cli", "empirical_ccdf"),
    ("qsim", "relayqos.cli", "suggest_fit_window"),
    ("qsim", "relayqos.cli", "tail_slope"),
)


@dataclass(slots=True)  # a traced run holds millions of spans
class Span:
    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    request: int
    error: str = ""
    attrs: dict | None = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


def _delay_attrs(stats) -> dict:
    e2e = stats.e2e_delays
    return {"frames": int(stats.frames_simulated), "samples": int(e2e.size),
            "max_e2e": int(e2e.max()) if e2e.size else 0}


# Attributes recorded from a call's result, after the span's end time.
_RESULT_ATTRS = {"qsim.simulate_tandem": _delay_attrs}


class Tracer:
    """Records spans for the wrapped call sites until :meth:`uninstall`."""

    def __init__(self):
        self.spans: list[Span] = []
        self.request = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._home = self._stack()
        self._installed: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        on_result = _RESULT_ATTRS.get(name)

        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (self._home[-1] if self._home else None)
            span_id = next(self._ids)
            stack.append(span_id)
            error = ""
            result = None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                attrs = on_result(result) if on_result and not error else None
                self.spans.append(Span(span_id, name, start, end, parent,
                                       self.request, error, attrs))

        return traced

    def install(self):
        """Wrap every call site in ``CALL_SITES``."""
        for layer, module_name, attr in CALL_SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            setattr(module, attr, self.wrap(f"{layer}.{attr}", original))
            self._installed.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()


# ---------------------------------------------------------------------------
# span analysis
# ---------------------------------------------------------------------------

def _union_ns(intervals) -> int:
    total, cur_start, cur_end = 0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class SpanTree:
    """Parent/child index over one process's spans."""

    def __init__(self, spans):
        self.spans = list(spans)
        self.children: dict[int, list[Span]] = {}
        self.by_name: dict[str, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                self.children.setdefault(span.parent, []).append(span)
            self.by_name.setdefault(span.name, []).append(span)

    def named(self, name: str, requests=None) -> list[Span]:
        return [s for s in self.by_name.get(name, ())
                if requests is None or s.request in requests]

    def descendants(self, span: Span):
        for child in self.children.get(span.id, ()):
            yield child
            yield from self.descendants(child)

    def self_ns(self, span: Span) -> int:
        """Span duration minus the time covered by its direct children."""
        return span.duration_ns - _union_ns(
            (max(c.start_ns, span.start_ns), min(c.end_ns, span.end_ns))
            for c in self.children.get(span.id, ()))

    def layer_self_ns(self, span: Span) -> int:
        """Span duration minus the time covered by spans of other layers below it.

        Same-layer children are looked through, so a ``cli.main`` span's
        layer self time also holds the time of the ``cli.sweep`` it called,
        less that sweep's allocator children.
        """
        foreign = []
        pending = list(self.children.get(span.id, ()))
        while pending:
            child = pending.pop()
            if child.layer == span.layer:
                pending.extend(self.children.get(child.id, ()))
            else:
                foreign.append((max(child.start_ns, span.start_ns),
                                min(child.end_ns, span.end_ns)))
        return span.duration_ns - _union_ns(foreign)
