"""In-memory spans around klift's layer boundaries, and self-time accounting.

The traced run replaces each function in ``TARGETS`` at the name its caller
looks it up under with a wrapper that records a span, and restores the
originals afterwards, so an untraced run measures the unpatched program.
Spans carry name, start, end, parent, op id and thread id.  Work that a
thread pool runs on behalf of an open span (the CR-Jacobian columns) is
parented to the innermost span open on the tracing thread.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, fields

# (owner, attribute, span name); owner "module:Class" names a class attribute.
TARGETS = (
    ("klift.steppers", "restrict", "kinetic.restrict"),
    ("klift.steppers", "discrete_equilibrium", "kinetic.equilibrium"),
    ("klift.cr", "equilibrium_field", "kinetic.equilibrium"),
    ("klift.steppers:BGKStepper", "step", "steppers.step"),
    ("klift.cr", "cr_map", "cr.cr_map"),
    ("klift.diagnostics", "cr_map", "cr.cr_map"),
    ("klift.cr", "reset_conserved", "moments.reset"),
    ("klift.cr", "gmres", "cr.gmres"),
    ("klift.diagnostics", "cr_jacobian_matrix", "diagnostics.jacobian"),
)

_NULL = contextlib.nullcontext()


def no_span(_name: str):
    """The untraced stand-in for ``Tracer.span``."""
    return _NULL


@dataclass(slots=True)
class Span:
    name: str
    start: float          # time.perf_counter()
    end: float
    parent: int | None    # index of the enclosing span
    op: int               # index of the measured op; -1 outside the measured loop
    thread: int


SPAN_FIELDS = [f.name for f in fields(Span)]


class Tracer:
    """Collects spans in memory; ``op`` tags every span started while it is set."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._owner = threading.get_ident()
        self._stacks: dict[int, list[int]] = defaultdict(list)
        self._lock = threading.Lock()

    @contextlib.contextmanager
    def span(self, name: str):
        tid = threading.get_ident()
        stack = self._stacks[tid]
        owner_stack = self._stacks[self._owner]
        parent = stack[-1] if stack else (owner_stack[-1] if owner_stack else None)
        with self._lock:
            idx = len(self.spans)
            self.spans.append(Span(name, time.perf_counter(), float("nan"), parent, self.op, tid))
        stack.append(idx)
        try:
            yield
        finally:
            self.spans[idx].end = time.perf_counter()
            stack.pop()

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced


def _owner(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


@contextlib.contextmanager
def patched(tracer: Tracer, targets=TARGETS):
    """Wrap every target for the duration of the block; always restore."""
    saved = []
    try:
        for owner_path, attr, name in targets:
            owner = _owner(owner_path)
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(original, name))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
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


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals.

    Children on worker threads may overlap each other; the union counts the
    covered wall time once.  Child intervals are clipped to the parent's.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = []
    for idx, s in enumerate(spans):
        covered = union_length(
            (max(c.start, s.start), min(c.end, s.end))
            for c in children[idx] if c.end > s.start and c.start < s.end
        )
        out.append((s.end - s.start) - covered)
    return out
