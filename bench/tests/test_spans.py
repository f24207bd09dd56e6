"""Span self-time arithmetic and its mapping onto layers."""

import threading

import pytest

import layers
from tracer import SpanLog, self_times


def span(name, start, end, parent=None, attrs=None):
    return [name, start, end, parent, "op-1", 1, attrs]


def test_self_time_subtracts_children_and_clips_overlap():
    spans = [
        span("op", 0.0, 10.0),
        span("perf.planner.execute_requests", 1.0, 6.0, 0),
        span("mappings.corner_turn.viram", 2.0, 4.0, 1),
        span("perf.index.put_many", 3.5, 5.0, 1),  # overlaps its sibling
        span("perf.index.prune", 4.5, 5.5, 3),  # runs past its parent
        span("import", 7.0, 9.0, 0, {"module": "numpy"}),
    ]
    assert self_times(spans) == pytest.approx(
        [10 - 5 - 2, 5 - 3, 2, 1.5 - 0.5, 1, 2])


def test_layers_take_self_times_and_numpy_inclusive():
    spans = [
        span("op", 0.0, 10.0),
        span("import", 0.0, 3.0, 0, {"module": "repro.perf.cache"}),
        span("import", 0.5, 2.5, 1, {"module": "numpy"}),
        span("import", 1.0, 2.0, 2, {"module": "numpy.linalg"}),
        span("mappings.cslc.raw.batch", 3.0, 4.0, 0),
        span("mappings.corner_turn.viram", 4.0, 6.0, 0),
        span("eval.experiment.table3", 6.0, 7.0, 0),
        span("perf.index.get_many", 7.0, 8.0, 0, {"bytes_read": 100}),
    ]
    totals = layers.LayerTotals()
    selfs = totals.add_spans(spans)
    s = totals.sums
    assert s["import.total_s"] == pytest.approx(3.0)
    assert s["import.repro_s"] == pytest.approx(1.0)
    assert s["import.numpy_s"] == pytest.approx(2.0)  # outermost, inclusive
    assert s["import.numpy_loaded"] == 1
    assert s["mappings.sim_s"] == pytest.approx(3.0)
    assert s["mappings.calls"] == 2
    assert s["mappings.cslc_s"] == pytest.approx(1.0)
    assert s["mappings.corner_turn.viram_s"] == pytest.approx(2.0)
    assert s["eval.experiments_s"] == pytest.approx(1.0)
    assert s["perf.index.get_many_s"] == pytest.approx(1.0)
    assert s["perf.index.bytes_read"] == 100
    assert selfs[0] == pytest.approx(10.0 - 3 - 1 - 2 - 1 - 1)


def test_span_stacks_are_per_thread():
    log = SpanLog("op-7")
    outer = log.open("op")
    seen = {}

    def worker():
        sid = log.open("service.execute_job", op="job-1")
        seen["child"] = log.open("mappings.cslc.raw")
        log.close(seen["child"])
        log.close(sid)
        seen["root"] = sid

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    inner = log.open("perf.index.lookup")
    log.close(inner)
    log.close(outer)
    spans = log.spans
    assert spans[seen["root"]][3] is None  # not parented to "op"
    assert spans[seen["child"]][3] == seen["root"]
    assert spans[seen["child"]][4] == "job-1"  # inherits the job id
    assert spans[inner][3] == outer and spans[inner][4] == "op-7"
