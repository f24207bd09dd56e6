"""Both cache tiers hold runs in their cached form: no output array,
only its digest.

The functional output of a run is checked against its reference by the
mapping before the run is built; what the cache keeps is the result —
cycles, breakdown, census, metrics — plus ``output_digest``, so the
differential oracles still see any output difference.
"""

import copy
import hashlib

import numpy as np
import pytest

from repro.check.faults import _oracle_kwargs
from repro.check.oracles import diff_runs, disk_cache_oracle
from repro.check.report import FAIL
from repro.eval.report import full_report
from repro.eval.sensitivity import perturbed_calibration
from repro.kernels.workloads import (
    small_beam_steering,
    small_corner_turn,
    small_cslc,
)
from repro.mappings import registry
from repro.perf.cache import RUN_CACHE, cache_key, cached_form, content_digest
from repro.perf.diskcache import DISK_CACHE
from repro.perf.planner import execute_requests

SMALL = {
    "corner_turn": small_corner_turn(),
    "cslc": small_cslc(),
    "beam_steering": small_beam_steering(),
}


@pytest.fixture(autouse=True)
def fresh_memory_tier():
    RUN_CACHE.clear()
    RUN_CACHE.enable()
    yield
    RUN_CACHE.clear()


class TestCachedForm:
    def test_drops_the_array_and_keeps_its_digest(self, small_ct):
        cold = registry.run("corner_turn", "viram", cache=False,
                            workload=small_ct)
        form = cached_form(cold)
        assert form is not cold and cold.output is not None
        assert form.output is None
        assert form.output_digest == content_digest(cold.output)
        assert form.breakdown is cold.breakdown  # shallow copy

    @pytest.mark.parametrize(
        "array",
        [
            np.array(3.5),
            np.zeros((0, 3), dtype=np.float32),
            np.array([[True, False, True]]),
            np.arange(6, dtype=np.complex128).reshape(2, 3) * (1 + 2j),
            np.arange(12, dtype=np.float32).reshape(3, 4).T,
        ],
        ids=["0-d", "empty", "bool", "complex", "transposed"],
    )
    def test_array_digest_is_the_digest_of_its_bytes(self, array):
        """Hashing the array's buffer gives the digest of the C-order
        bytes ``tobytes()`` copies out."""
        inner = hashlib.sha256(np.ascontiguousarray(array).tobytes())
        expected = hashlib.sha256(
            b"content|"
            + f"ndarray:{array.dtype.str}:{array.shape}:".encode()
            + inner.digest()
        ).hexdigest()
        assert content_digest(array) == expected
        assert content_digest(np.array(array, order="C")) == expected

    def test_is_a_no_op_without_an_array(self, small_ct):
        form = cached_form(
            registry.run("corner_turn", "viram", cache=False,
                         workload=small_ct)
        )
        assert cached_form(form) is form
        assert cached_form({"v": 1}) == {"v": 1}


@pytest.mark.parametrize("kernel,machine", registry.available())
def test_hit_and_miss_are_the_same_cached_form(kernel, machine):
    workload = SMALL[kernel]
    miss = registry.run(kernel, machine, workload=workload)
    hit = registry.run(kernel, machine, workload=workload)
    cold = registry.run(kernel, machine, cache=False, workload=workload)
    assert RUN_CACHE.hits == 1
    assert repr(hit) == repr(miss)
    assert miss.output is None and hit.output is None
    assert miss.output_digest == content_digest(cold.output)


def test_cold_report_leaves_a_small_store():
    full_report()
    assert len(DISK_CACHE) >= 15  # at least the Table 3 cells
    assert DISK_CACHE.stats()["bytes"] < 1_000_000


def test_disk_oracle_catches_a_forged_output_digest():
    kernel, machine = "corner_turn", "viram"
    (honest,) = disk_cache_oracle(pairs=[(kernel, machine)])
    assert honest.status != FAIL
    key = cache_key(kernel, machine, _oracle_kwargs(kernel))

    def forge(entry):
        entry.output_digest = "0" * 64

    # tamper re-appends the entry with a valid payload digest: only the
    # differential oracle can tell it is stale.
    assert DISK_CACHE.tamper(key, forge)
    RUN_CACHE.evict(key)
    (result,) = disk_cache_oracle(pairs=[(kernel, machine)])
    assert result.status == FAIL
    assert "output: arrays differ" in result.detail


class TestPreChangeEntries:
    """Entries pickled before runs had ``output_digest`` hold the array
    and lack the attribute; they decode and are served in cached form."""

    def _plant_legacy_entry(self, small_ct):
        cold = registry.run("corner_turn", "viram", cache=False,
                            workload=small_ct)
        legacy = copy.copy(cold)
        del legacy.output_digest
        assert "output_digest" not in vars(legacy)
        key = cache_key("corner_turn", "viram", {"workload": small_ct})
        assert DISK_CACHE.insert(key, legacy)
        return cold

    def test_registry_serves_cached_form(self, small_ct):
        cold = self._plant_legacy_entry(small_ct)
        served = registry.run("corner_turn", "viram", workload=small_ct)
        assert DISK_CACHE.counters.get("hits") == 1
        assert served.output is None
        assert served.output_digest == content_digest(cold.output)
        assert diff_runs(served, cold) == []
        promoted = registry.run("corner_turn", "viram", workload=small_ct)
        assert RUN_CACHE.hits == 1
        assert repr(promoted) == repr(served)

    def test_planner_serves_cached_form(self, small_ct):
        cold = self._plant_legacy_entry(small_ct)
        (served,) = execute_requests(
            [("corner_turn", "viram", {"workload": small_ct})]
        )
        assert DISK_CACHE.counters.get("hits") == 1
        assert served.output is None
        assert diff_runs(served, cold) == []


def test_batch_group_returns_cached_forms_in_one_disk_write(
    small_ct, monkeypatch
):
    writes = []
    monkeypatch.setattr(
        DISK_CACHE, "insert", lambda *a: pytest.fail("per-cell insert")
    )
    put_many = DISK_CACHE.put_many
    monkeypatch.setattr(
        DISK_CACHE, "put_many",
        lambda items: writes.append(len(items)) or put_many(items),
    )
    cals = [
        perturbed_calibration("viram", "dram_row_cycle", factor)
        for factor in (0.9, 1.0, 1.1)
    ]
    requests = [
        ("corner_turn", "viram", {"workload": small_ct, "calibration": cal})
        for cal in cals
    ]
    runs = execute_requests(requests)
    assert writes == [3]
    assert len(DISK_CACHE) == 3
    digests = {run.output_digest for run in runs}
    assert [run.output for run in runs] == [None] * 3
    cold = registry.run("corner_turn", "viram", cache=False,
                        workload=small_ct, calibration=cals[0])
    assert digests == {content_digest(cold.output)}
