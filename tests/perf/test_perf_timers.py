"""Tests for the wall-time instrumentation (:mod:`repro.perf.timers`)."""

import re
import threading

import pytest

from repro.perf import timers


@pytest.fixture(autouse=True)
def fresh_timers():
    timers.reset()
    yield
    timers.reset()


def test_timer_records_total_and_calls():
    for _ in range(3):
        with timers.timer("work"):
            pass
    snap = timers.snapshot()
    assert snap["work"]["calls"] == 3
    assert snap["work"]["seconds"] >= 0.0


def test_timers_nest_by_path():
    with timers.timer("outer"):
        with timers.timer("inner"):
            pass
        with timers.timer("inner"):
            pass
    snap = timers.snapshot()
    assert snap["outer"]["calls"] == 1
    assert snap["outer/inner"]["calls"] == 2
    assert "inner" not in snap


def test_nesting_recovers_after_exception():
    with pytest.raises(RuntimeError):
        with timers.timer("outer"):
            raise RuntimeError("boom")
    with timers.timer("after"):
        pass
    snap = timers.snapshot()
    # "after" is top-level again: the exception popped "outer" cleanly.
    assert "after" in snap
    assert "outer/after" not in snap


def test_render_shows_the_tree():
    with timers.timer("report"):
        with timers.timer("table3"):
            pass
    text = timers.render()
    assert "report" in text
    assert "table3" in text
    # The child is indented under the parent.
    report_line = next(l for l in text.splitlines() if "report" in l)
    table_line = next(l for l in text.splitlines() if "table3" in l)
    assert len(table_line) - len(table_line.lstrip()) > len(
        report_line
    ) - len(report_line.lstrip())


def _time_on_thread(name):
    def body():
        with timers.timer(name):
            pass

    t = threading.Thread(target=body)
    t.start()
    t.join()


def test_worker_thread_spans_attach_under_worker_prefix():
    _time_on_thread("task")
    paths = list(timers.snapshot())
    assert len(paths) == 1
    assert re.fullmatch(r"worker/\d+/task", paths[0]), paths


def test_distinct_threads_get_distinct_worker_numbers():
    _time_on_thread("task")
    _time_on_thread("task")
    paths = sorted(timers.snapshot())
    assert len(paths) == 2  # no collision into one path
    prefixes = {p.rsplit("/", 1)[0] for p in paths}
    assert len(prefixes) == 2


def test_worker_and_main_thread_paths_do_not_collide():
    with timers.timer("task"):
        pass
    _time_on_thread("task")
    snap = timers.snapshot()
    assert snap["task"]["calls"] == 1
    worker_paths = [p for p in snap if p.startswith("worker/")]
    assert len(worker_paths) == 1


def test_render_synthesizes_worker_root_as_aggregated():
    _time_on_thread("task")
    text = timers.render()
    # The "worker/<n>" prefix was never itself timed, so the tree walk
    # synthesizes it as an aggregated parent row above its child.
    agg_line = next(l for l in text.splitlines() if "(aggregated)" in l)
    assert "worker/" in agg_line
    task_line = next(l for l in text.splitlines() if "task" in l)
    assert len(task_line) - len(task_line.lstrip()) > len(agg_line) - len(
        agg_line.lstrip()
    )


def test_reset_clears_everything():
    with timers.timer("work"):
        pass
    timers.reset()
    assert timers.snapshot() == {}
    assert "(none recorded)" in timers.render()
