"""Fault injection: prove each differential oracle detects what it
claims to detect.

A validation subsystem that has never seen a failure is itself
unvalidated.  Each injector here deliberately corrupts one of the
redundant evaluation paths — a tampered cache entry, a process pool
that misdelivers worker results, a perturbed vectorised DRAM timing
path — and :func:`run_injection` asserts the matching oracle flags it.
An oracle that stays green under its own fault is a blind spot and is
reported as UNDETECTED.

All injectors are context managers that restore the patched state on
exit; the global run cache is cleared afterwards so no corruption
leaks into later work.
"""

from __future__ import annotations

import contextlib
import dataclasses
from typing import Callable, Dict, Iterator, List

from repro.check.report import FAIL, CheckResult
from repro.check import oracles


@dataclasses.dataclass(frozen=True)
class InjectionOutcome:
    """Result of one fault-injection scenario."""

    fault: str
    oracle: str
    detected: bool
    evidence: str


def _oracle_kwargs(kernel: str) -> Dict[str, object]:
    """The kwargs the disk-tier oracle will run ``kernel`` with.

    The oracle anchors its differential on the reduced probe workload
    (see :mod:`repro.check.probes`), so a disk-tier injector must
    corrupt *that* entry — tampering the canonical-size entry would
    leave the oracle reading an honest record and scoring the fault
    UNDETECTED for the wrong reason.
    """
    from repro.check.probes import probe_workloads

    probes = probe_workloads()
    return {"workload": probes[kernel]} if kernel in probes else {}


@contextlib.contextmanager
def corrupted_cache_entry(
    kernel: str = "corner_turn", machine: str = "viram"
) -> Iterator[str]:
    """Tamper the cached run for ``(kernel, machine)``: scale its cycle
    ledger by 2x, exactly the corruption a stale or bit-flipped entry
    would present.  Yields the tampered cache key."""
    from repro.errors import CheckError
    from repro.mappings import registry
    from repro.perf.cache import RUN_CACHE, cache_key

    if not RUN_CACHE.enabled:
        # Nothing to corrupt; the oracle will report the skip.
        yield ""
        return
    registry.run(kernel, machine)  # ensure the entry exists
    key = cache_key(kernel, machine, {})

    def scale(entry) -> None:
        entry.breakdown = entry.breakdown.scaled(2.0)

    if key is None or not RUN_CACHE.tamper(key, scale):
        raise CheckError(
            f"could not tamper the cache entry for {kernel}/{machine}"
        )
    try:
        yield key
    finally:
        RUN_CACHE.clear()


@contextlib.contextmanager
def tampered_disk_entry(
    kernel: str = "corner_turn", machine: str = "viram"
) -> Iterator[str]:
    """Rewrite the persisted disk entry for ``(kernel, machine)`` with a
    2x-scaled cycle ledger and a *valid* digest — the stale-but-
    self-consistent corruption hash verification cannot catch, which is
    exactly what the disk-tier differential oracle exists for.  The
    memory-tier copy is evicted so the next lookup must cross the disk.
    Yields the tampered key."""
    from repro.errors import CheckError
    from repro.mappings import registry
    from repro.perf.cache import RUN_CACHE, cache_key
    from repro.perf.diskcache import DISK_CACHE

    if not DISK_CACHE.enabled:
        yield ""
        return
    kwargs = _oracle_kwargs(kernel)
    registry.run(kernel, machine, **kwargs)  # ensure both tiers hold it
    key = cache_key(kernel, machine, kwargs)

    def scale(entry) -> None:
        entry.breakdown = entry.breakdown.scaled(2.0)

    if key is None or not DISK_CACHE.tamper(key, scale):
        raise CheckError(
            f"could not tamper the disk entry for {kernel}/{machine}"
        )
    RUN_CACHE.evict(key)
    try:
        yield key
    finally:
        DISK_CACHE.evict(key)
        RUN_CACHE.clear()


@contextlib.contextmanager
def bitflipped_disk_entry(
    kernel: str = "corner_turn", machine: str = "viram"
) -> Iterator[str]:
    """Flip a payload byte of the persisted entry *without* refreshing
    its digest — media corruption.  The read path must refuse the entry
    (counted under ``corrupt``) and the integrity sweep must fail.
    Yields the corrupted key."""
    from repro.errors import CheckError
    from repro.mappings import registry
    from repro.perf.cache import RUN_CACHE, cache_key
    from repro.perf.diskcache import DISK_CACHE

    if not DISK_CACHE.enabled:
        yield ""
        return
    registry.run(kernel, machine)
    key = cache_key(kernel, machine, {})
    if key is None or not DISK_CACHE.corrupt_bytes(key):
        raise CheckError(
            f"could not corrupt the disk entry for {kernel}/{machine}"
        )
    RUN_CACHE.evict(key)
    try:
        yield key
    finally:
        DISK_CACHE.evict(key)
        RUN_CACHE.clear()


@contextlib.contextmanager
def truncated_disk_entry(
    kernel: str = "corner_turn", machine: str = "viram"
) -> Iterator[str]:
    """Tear the persisted entry mid-payload — the torn record a crash
    mid-write or a full disk leaves behind.  The integrity sweep must
    flag it, and (separately, proven in the resilience tests) a
    ``lookup`` must quarantine it and miss rather than raise.  Yields
    the truncated key."""
    from repro.errors import CheckError
    from repro.mappings import registry
    from repro.perf.cache import RUN_CACHE, cache_key
    from repro.perf.diskcache import DISK_CACHE

    if not DISK_CACHE.enabled:
        yield ""
        return
    registry.run(kernel, machine)
    key = cache_key(kernel, machine, {})
    if key is None or not DISK_CACHE.truncate_entry(key):
        raise CheckError(
            f"could not truncate the disk entry for {kernel}/{machine}"
        )
    RUN_CACHE.evict(key)
    try:
        yield key
    finally:
        DISK_CACHE.evict(key)
        RUN_CACHE.clear()


@contextlib.contextmanager
def misdelivered_worker_results() -> Iterator[None]:
    """Patch the process-pool path to swap its first two results —
    the classic dropped/reordered-future bug a parallel executor can
    develop.  Single-result pools get their result's cycles doubled
    instead, so the fault is never a silent no-op."""
    from repro.perf import executor

    original = executor._run_unit_pool

    def swapped(units, n_jobs, chunk_size=None):
        outcomes = original(units, n_jobs, chunk_size=chunk_size)
        if outcomes is None:
            return None
        if len(outcomes) >= 2:
            outcomes[0], outcomes[1] = outcomes[1], outcomes[0]
        elif outcomes and outcomes[0]:
            outcomes[0][0].breakdown = outcomes[0][0].breakdown.scaled(2.0)
        return outcomes

    executor._run_unit_pool = swapped
    try:
        yield
    finally:
        executor._run_unit_pool = original
        from repro.perf.cache import RUN_CACHE

        RUN_CACHE.clear()


@contextlib.contextmanager
def perturbed_dram_timing(extra_activation_cycles: float = 1.0) -> Iterator[None]:
    """Perturb the vectorised DRAM batch path: every segment's exposed
    activation time gains ``extra_activation_cycles``.  This models a
    regression in the numpy costing that the pure-Python
    :class:`DRAMReference` — an independent implementation — must
    catch."""
    import numpy as np

    from repro.memory import dram as dram_module

    original = dram_module.DRAM.access_run

    def perturbed(self, addresses, seg_lengths, rates):
        batch = original(self, addresses, seg_lengths, rates)
        return dataclasses.replace(
            batch,
            activation_cycles=batch.activation_cycles
            + np.full_like(batch.activation_cycles, extra_activation_cycles),
        )

    dram_module.DRAM.access_run = perturbed
    try:
        yield
    finally:
        dram_module.DRAM.access_run = original


def _cache_oracle_under_fault() -> List[CheckResult]:
    return oracles.cache_oracle(pairs=[("corner_turn", "viram")])


def _executor_oracle_under_fault() -> List[CheckResult]:
    return oracles.executor_oracle(jobs=2)


def _dram_oracle_under_fault() -> List[CheckResult]:
    return oracles.dram_oracle()


def _disk_oracle_under_fault() -> List[CheckResult]:
    return oracles.disk_cache_oracle(pairs=[("corner_turn", "viram")])


def _disk_integrity_under_fault() -> List[CheckResult]:
    return oracles.disk_integrity_check()


#: The injection matrix: fault name -> (injector, oracle name, oracle fn).
SCENARIOS: Dict[str, tuple] = {
    "cache-entry-tampered": (
        corrupted_cache_entry,
        "cache",
        _cache_oracle_under_fault,
    ),
    "disk-entry-tampered": (
        tampered_disk_entry,
        "diskcache",
        _disk_oracle_under_fault,
    ),
    "disk-entry-bitflipped": (
        bitflipped_disk_entry,
        "diskcache",
        _disk_integrity_under_fault,
    ),
    "disk-entry-truncated": (
        truncated_disk_entry,
        "diskcache",
        _disk_integrity_under_fault,
    ),
    "executor-results-misdelivered": (
        misdelivered_worker_results,
        "executor",
        _executor_oracle_under_fault,
    ),
    "dram-batch-timing-perturbed": (
        perturbed_dram_timing,
        "dram",
        _dram_oracle_under_fault,
    ),
}


def run_injection(
    scenarios: Dict[str, tuple] = None,
) -> List[InjectionOutcome]:
    """Run every fault scenario and record whether its oracle detected
    the corruption (i.e., produced at least one FAIL result)."""
    outcomes: List[InjectionOutcome] = []
    for fault, (injector, oracle_name, oracle_fn) in (
        scenarios or SCENARIOS
    ).items():
        with injector():
            results = oracle_fn()
        failures = [r for r in results if r.status == FAIL]
        skipped_only = all(r.status == "skip" for r in results)
        if failures:
            evidence = failures[0].format()
        elif skipped_only:
            evidence = "oracle skipped (environment cannot run this path)"
        else:
            evidence = "oracle stayed green under its own fault"
        outcomes.append(
            InjectionOutcome(
                fault=fault,
                oracle=oracle_name,
                detected=bool(failures),
                evidence=evidence,
            )
        )
    return outcomes


def render_injection(outcomes: List[InjectionOutcome]) -> str:
    """Human-readable injection report."""
    lines = ["fault injection: each oracle vs its own corruption"]
    for outcome in outcomes:
        verdict = "DETECTED" if outcome.detected else "UNDETECTED"
        lines.append(
            f"  {verdict:10s} fault={outcome.fault} oracle={outcome.oracle}"
        )
        lines.append(f"             {outcome.evidence}")
    detected = sum(o.detected for o in outcomes)
    lines.append(
        f"{detected}/{len(outcomes)} injected corruptions detected"
    )
    return "\n".join(lines)
