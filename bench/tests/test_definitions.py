"""Seeded inputs and metric names."""

import json
import re
from collections import Counter

import layers
import run
import workloads

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_same_seed_same_inputs_other_seed_other_inputs():
    assert workloads.job_mix(3, 2) == workloads.job_mix(3, 2)
    assert workloads.job_mix(3, 2) != workloads.job_mix(4, 2)
    assert workloads.sweep_delta(3) == workloads.sweep_delta(3)
    assert len({workloads.sweep_delta(seed) for seed in range(5)}) == 5


def test_delta_stays_in_range():
    for seed in range(200):
        assert 0.15 <= workloads.sweep_delta(seed) <= 0.35


def _work(jobs):
    """What a job list computes, whatever its order and seeds."""
    return Counter(
        (job["kind"], cell.get("kernel"), cell["machine"]) for job in jobs
        for cell in job["params"].get("cells", [job["params"]])
    )


def test_job_mix_covers_every_cell_and_only_repeats_share_work():
    pairs = [(k, m) for k in workloads.KERNELS for m in workloads.MACHINES]
    for seed in range(3):
        jobs = workloads.job_mix(seed, 2)
        keys = Counter(workloads.job_key(job) for job in jobs)
        assert len(jobs) == 55
        assert Counter(keys.values()) == {1: 45, 2: 5}
        distinct = [json.loads(key) for key in keys]
        assert _work(distinct) == Counter(
            {("run", *p): 2 for p in pairs}
            | {("sweep", *p): 2 for p in pairs}
            | {("pipeline", None, m): 2 for m in workloads.MACHINES})


def test_metric_names_are_well_formed_and_declared():
    bench = json.loads((workloads.BENCH_DIR.parent / "BENCHMARK.json")
                       .read_text())
    declared = [(m["name"], m["unit"], m["better"])
                for m in bench["end_to_end"]]
    assert declared == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in bench["per_layer"]] == list(layers.METRICS)
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == [
        (name, w.why) for name, w in workloads.WORKLOADS.items()]
    names = ([m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
             + list(workloads.WORKLOADS))
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert {m["name"] for m in bench["end_to_end"]} >= {"setup_s"}
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
