"""Tests of the benchmark's own helpers: ``python3 -m pytest bench``."""

import importlib
import math
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import stats  # noqa: E402
from tracing import TARGETS, Span, Tracer, patched, self_times, union_length  # noqa: E402


# ---- tail percentile rule ---------------------------------------------------


def test_tail_needs_ten_ops_beyond():
    # 100 ops: p99 and p95 leave 1 and 5 ops beyond, p90 leaves exactly 10.
    assert stats.tail([float(i) for i in range(1, 101)]) == (90.0, 90.0, 10)
    # 1000 ops: p99.9 leaves 1 beyond, p99 leaves 10.
    assert stats.tail([float(i) for i in range(1, 1001)]) == (99.0, 990.0, 10)


def test_tail_omitted_when_too_few_ops():
    # p75 of 39 ops is rank 30, leaving 9 beyond.
    assert stats.tail([1.0] * 39) is None
    assert stats.tail([1.0] * 40) == (75.0, 1.0, 10)
    assert stats.tail([]) is None


def test_tail_counts_failures_as_inf():
    ok = [1.0] * 85
    assert stats.tail(ok + [math.inf] * 15) == (90.0, math.inf, 10)
    assert stats.tail(ok + [math.inf] * 5 + [2.0] * 10) == (90.0, 2.0, 10)


def test_failures_turned_into_slow_successes_never_read_worse():
    ops = [1.0] * 85
    before = stats.tail(ops + [math.inf] * 15)
    after = stats.tail(ops + [1e6] * 15)
    assert before[0] == after[0] and after[1] <= before[1]


# ---- self time --------------------------------------------------------------


def test_union_length_merges_overlaps():
    assert union_length([(1, 6), (2, 7), (8, 9)]) == 7
    assert union_length([(0, 1), (1, 2)]) == 2
    assert union_length([]) == 0


def test_self_time_with_overlapping_worker_children():
    spans = [
        Span("diagnostics.jacobian", 0.0, 10.0, None, 0, 1),
        Span("cr.cr_map", 1.0, 6.0, 0, 0, 2),   # worker thread 2
        Span("cr.cr_map", 2.0, 7.0, 0, 0, 3),   # worker thread 3, overlapping
        Span("steppers.step", 2.5, 5.0, 2, 0, 3),
        Span("cr.cr_map", 8.0, 9.0, 0, 0, 2),
    ]
    got = self_times(spans)
    # children cover [1, 7] and [8, 9]: 7 of the parent's 10 seconds
    assert got == pytest.approx([3.0, 5.0, 2.5, 2.5, 1.0])


def test_self_time_clips_children_to_parent():
    spans = [Span("a", 0.0, 4.0, None, 0, 1), Span("b", 3.0, 6.0, 0, 0, 2)]
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_worker_spans_are_parented_to_the_open_span():
    tracer = Tracer()

    def work(_):
        with tracer.span("child"):
            time.sleep(0.05)

    tracer.op = 7
    with tracer.span("parent"):
        with ThreadPoolExecutor(max_workers=2) as ex:
            list(ex.map(work, range(2)))
    parent, *children = tracer.spans
    assert [c.parent for c in children] == [0, 0]
    assert {c.thread for c in children} != {threading.get_ident()}
    assert all(s.op == 7 for s in tracer.spans)
    self_parent = self_times(tracer.spans)[0]
    # the children overlap, so the union is less than their sum
    assert self_parent >= (parent.end - parent.start) - sum(c.end - c.start for c in children)
    assert self_parent >= 0.0


# ---- patching ---------------------------------------------------------------


def _current():
    out = []
    for owner_path, attr, _ in TARGETS:
        module, _, cls = owner_path.partition(":")
        owner = importlib.import_module(module)
        out.append(getattr(getattr(owner, cls) if cls else owner, attr))
    return out


def test_patched_restores_every_attribute():
    before = _current()
    tracer = Tracer()
    with patched(tracer):
        during = _current()
    assert all(a is not b for a, b in zip(before, during))
    assert all(a is b for a, b in zip(before, _current()))


def test_patched_restores_after_an_exception():
    before = _current()
    with pytest.raises(RuntimeError):
        with patched(Tracer()):
            raise RuntimeError("op failed")
    assert all(a is b for a, b in zip(before, _current()))


def test_patched_records_the_layers_of_a_step():
    from klift import load_scenario

    root = Path(__file__).resolve().parent.parent
    sc = load_scenario(root / "src" / "klift" / "scenarios" / "helium_desk.cfg")
    stepper = sc.make_stepper(warm_start=True)
    values = sc.initial_field().values
    tracer = Tracer()
    with patched(tracer):
        stepper.step(values)
    assert [s.name for s in tracer.spans] == [
        "steppers.step", "kinetic.restrict", "kinetic.equilibrium"]
    assert [s.parent for s in tracer.spans] == [None, 0, 0]
    stepper.step(values)  # unpatched: no new spans
    assert len(tracer.spans) == 3
