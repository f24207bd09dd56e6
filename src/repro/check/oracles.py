"""Differential oracles: re-execute runs along redundant paths and diff.

The library deliberately carries redundant evaluation paths — the run
cache vs a cold simulation, a serial sweep vs a process pool, the
vectorised :meth:`DRAM.access_run` vs the scalar :class:`DRAMReference`
— precisely so they can be diffed.  Agreement is the evidence that the
PR 1 performance work changed *nothing* about the published numbers;
each oracle here turns that claim into an executable check.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.check.report import FAIL, PASS, SKIP, CheckResult
from repro.perf.cache import content_digest

#: Differential comparisons are exact by default: both paths run the
#: same deterministic arithmetic, so even the float results must match
#: bit for bit.  Cross-implementation comparisons (vectorised DRAM vs
#: the pure-Python reference) allow summation-order slack.
CROSS_IMPL_RTOL = 1e-9


def _close(a: Any, b: Any, rtol: float) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        try:
            return bool(
                np.isclose(float(a), float(b), rtol=rtol, atol=0.0)
            )
        except (TypeError, ValueError):
            return False
    return a == b


def diff_runs(a, b, rtol: float = 0.0) -> List[str]:
    """Field-by-field differences between two :class:`KernelRun` records.

    Returns human-readable difference strings; empty means the runs are
    value-identical (to ``rtol`` on floats; ``rtol=0`` demands bitwise
    equality, which determinism guarantees for same-path re-execution).
    Outputs compare by content digest, so a cache-served run (digest
    only) diffs against a cold one (array) exactly.
    """
    diffs: List[str] = []
    for field in ("kernel", "machine"):
        va, vb = getattr(a, field), getattr(b, field)
        if va != vb:
            diffs.append(f"{field}: {va!r} != {vb!r}")
    if not _close(a.cycles, b.cycles, rtol):
        diffs.append(f"cycles: {a.cycles!r} != {b.cycles!r}")
    for label, da, db in (
        ("breakdown", a.breakdown.as_dict(), b.breakdown.as_dict()),
        ("ops", a.ops.as_dict(), b.ops.as_dict()),
        ("metrics", a.metrics, b.metrics),
    ):
        for key in sorted(set(da) | set(db)):
            if key not in da:
                diffs.append(f"{label}[{key!r}]: missing on first run")
            elif key not in db:
                diffs.append(f"{label}[{key!r}]: missing on second run")
            elif not _close(da[key], db[key], rtol):
                diffs.append(
                    f"{label}[{key!r}]: {da[key]!r} != {db[key]!r}"
                )
    if bool(a.functional_ok) != bool(b.functional_ok):
        diffs.append(
            f"functional_ok: {a.functional_ok} != {b.functional_ok}"
        )
    da, db = _output_digest(a), _output_digest(b)
    if (da is None) != (db is None):
        diffs.append("output: present on one run only")
    elif da != db:
        diffs.append("output: arrays differ")
    return diffs


def _output_digest(run) -> Optional[str]:
    """The digest of ``run``'s output: computed from the array when the
    run carries one, else the digest its cached form recorded."""
    if run.output is not None:
        return content_digest(run.output)
    return run.output_digest


def cache_oracle(
    pairs: Optional[Sequence[Tuple[str, str]]] = None,
    workloads: Optional[Mapping[str, Any]] = None,
) -> List[CheckResult]:
    """Cache hit vs cold simulation, diffed field by field.

    For each pair: one call that populates/serves the cache, a second
    call that must be served *from* the cache, and a ``cache=False``
    cold re-simulation.  All three must be value-identical — a tampered
    or stale cache entry shows up as a hit/cold diff.
    """
    from repro.mappings import registry
    from repro.perf.cache import RUN_CACHE

    if pairs is None:
        pairs = registry.available()
    results: List[CheckResult] = []
    for kernel, machine in pairs:
        name = f"oracle.cache.{kernel}.{machine}"
        kwargs: Dict[str, Any] = {}
        if workloads and kernel in workloads:
            kwargs["workload"] = workloads[kernel]
        if not RUN_CACHE.enabled:
            results.append(
                CheckResult(name, SKIP, "run cache disabled")
            )
            continue
        registry.run(kernel, machine, **kwargs)  # populate (or hit)
        warm = registry.run(kernel, machine, **kwargs)  # cache-served
        cold = registry.run(kernel, machine, cache=False, **kwargs)
        diffs = diff_runs(warm, cold, rtol=0.0)
        results.append(
            CheckResult(
                name,
                PASS if not diffs else FAIL,
                "" if not diffs else (
                    "cache-served run disagrees with cold simulation: "
                    + "; ".join(diffs[:5])
                ),
            )
        )
    return results


#: Default cells for the disk-tier oracle: one per kernel, spread over
#: the research machines, so all three mapping families cross the
#: persistence boundary every fast-tier run.
DISK_ORACLE_PAIRS: Tuple[Tuple[str, str], ...] = (
    ("corner_turn", "viram"),
    ("cslc", "imagine"),
    ("beam_steering", "raw"),
)


def disk_cache_oracle(
    pairs: Optional[Sequence[Tuple[str, str]]] = None,
    workloads: Optional[Mapping[str, Any]] = None,
) -> List[CheckResult]:
    """Disk-tier hit vs memory-tier hit vs cold simulation, field by
    field.

    For each pair: a first run populates (or is served by) the tiers;
    the entry is then read back through the full persistence boundary —
    pickle, digest, file, unpickle — the key is evicted from the memory
    tier so a re-served run must cross the tiers again, and a
    ``cache=False`` cold re-simulation anchors the comparison.  All of
    them must be value-identical: a stale, tampered, or mis-serialised
    disk entry shows up as a disk-hit/cold diff.

    When the disk tier is opted out (``REPRO_DISK_CACHE=0`` or
    ``--no-disk-cache``) the oracle exercises the same machinery against
    an *ephemeral private store* instead of skipping: the subject under
    test is the persistence code path, not the user's cache directory,
    and the published validation section must not depend on cache
    configuration.
    """
    import contextlib
    import tempfile

    from repro.check.probes import probe_workloads
    from repro.mappings import registry
    from repro.perf.cache import RUN_CACHE, cache_key
    from repro.perf.diskcache import DISK_CACHE
    from repro.perf.index import PackedDiskCache

    if pairs is None:
        pairs = DISK_ORACLE_PAIRS
    probes = probe_workloads()
    results: List[CheckResult] = []
    with contextlib.ExitStack() as stack:
        if DISK_CACHE.enabled:
            store = DISK_CACHE
        else:
            tmp = stack.enter_context(
                tempfile.TemporaryDirectory(prefix="repro-oracle-disk-")
            )
            store = PackedDiskCache(tmp, respect_env=False)
        for kernel, machine in pairs:
            name = f"oracle.diskcache.{kernel}.{machine}"
            kwargs: Dict[str, Any] = {}
            if workloads and kernel in workloads:
                kwargs["workload"] = workloads[kernel]
            elif kernel in probes:
                # No pinned size: anchor the differential on the probe
                # workload so the cold re-simulation stays milliseconds
                # (see repro.check.probes).
                kwargs["workload"] = probes[kernel]
            key = cache_key(kernel, machine, kwargs)
            if key is None:
                results.append(CheckResult(name, SKIP, "request uncacheable"))
                continue
            first = registry.run(kernel, machine, **kwargs)  # populate tiers
            if not store.contains(key):
                store.insert(key, first)  # memory tier pre-dated the disk
            disk_hit = store.lookup(key)  # the full persistence round-trip
            if disk_hit is None:
                results.append(
                    CheckResult(
                        name, FAIL,
                        "persisted entry unreadable (corrupt or vanished)",
                    )
                )
                continue
            RUN_CACHE.evict(key)
            reserved = registry.run(kernel, machine, **kwargs)  # re-served
            cold = registry.run(kernel, machine, cache=False, **kwargs)
            diffs = [
                f"disk-hit vs cold: {d}" for d in diff_runs(disk_hit, cold)
            ] + [
                f"re-served vs cold: {d}" for d in diff_runs(reserved, cold)
            ]
            results.append(
                CheckResult(
                    name,
                    PASS if not diffs else FAIL,
                    "" if not diffs else (
                        "tiered runs disagree with cold simulation: "
                        + "; ".join(diffs[:5])
                    ),
                )
            )
    return results


def disk_integrity_check() -> List[CheckResult]:
    """Digest-verify every persisted entry of the current model version.

    The write path hashes each payload and the read path refuses a
    mismatch, so a flipped bit can never be *served* — this check makes
    the same sweep eagerly, failing loudly if any stored entry no
    longer matches its digest (media corruption, torn external writes).

    When the disk tier is opted out, the sweep machinery is exercised
    against an ephemeral store seeded with a canary entry instead — the
    user's directory is left untouched but the check still runs, so the
    published validation section does not depend on cache configuration.
    """
    import tempfile

    from repro.perf.diskcache import DISK_CACHE
    from repro.perf.index import PackedDiskCache

    name = "oracle.diskcache.integrity"
    if DISK_CACHE.enabled:
        bad = DISK_CACHE.verify()
    else:
        with tempfile.TemporaryDirectory(
            prefix="repro-oracle-disk-"
        ) as tmp:
            store = PackedDiskCache(tmp, respect_env=False)
            store.insert("integritycanary", {"canary": 1.0})
            bad = store.verify()
    return [
        CheckResult(
            name,
            PASS if not bad else FAIL,
            "" if not bad else (
                f"{len(bad)} entries failed digest verification: "
                + ", ".join(k[:12] for k in bad[:5])
            ),
        )
    ]


def executor_oracle(
    requests: Optional[Sequence[Tuple[str, str, Dict[str, Any]]]] = None,
    jobs: int = 2,
) -> List[CheckResult]:
    """Serial sweep vs ``--jobs N`` process pool, diffed element-wise.

    Runs with *both* cache tiers disabled so both legs genuinely
    simulate — a persistent store warmed by an earlier process would
    otherwise answer the planner before it ever dispatched to the pool,
    blinding the oracle to pool-side misdelivery.  If the pool is
    unavailable in this environment (the supervisor degrades to serial
    and counts it under ``resilience.degradations``), the comparison is
    vacuous and reported as a skip.
    """
    from repro.perf.cache import RUN_CACHE
    from repro.perf.diskcache import DISK_CACHE
    from repro.perf.executor import run_cells
    from repro.resilience.stats import RESILIENCE

    if requests is None:
        from repro.kernels.workloads import (
            small_beam_steering,
            small_corner_turn,
            small_cslc,
        )

        requests = [
            ("corner_turn", "viram", {"workload": small_corner_turn()}),
            ("cslc", "raw", {"workload": small_cslc()}),
            ("beam_steering", "imagine", {"workload": small_beam_steering()}),
            ("beam_steering", "raw", {"workload": small_beam_steering()}),
        ]
    was_enabled = RUN_CACHE.enabled
    RUN_CACHE.disable()
    try:
        with DISK_CACHE.disabled():
            serial = run_cells(requests, jobs=1)
            degradations_before = RESILIENCE.snapshot()["degradations"]
            parallel = run_cells(requests, jobs=jobs)
        fell_back = (
            RESILIENCE.snapshot()["degradations"] > degradations_before
        )
    finally:
        if was_enabled:
            RUN_CACHE.enable()
    results: List[CheckResult] = []
    for (kernel, machine, _kwargs), a, b in zip(requests, serial, parallel):
        name = f"oracle.executor.{kernel}.{machine}"
        if fell_back:
            results.append(
                CheckResult(
                    name, SKIP, "process pool unavailable; both legs serial"
                )
            )
            continue
        diffs = diff_runs(a, b, rtol=0.0)
        results.append(
            CheckResult(
                name,
                PASS if not diffs else FAIL,
                "" if not diffs else (
                    f"serial vs jobs={jobs} disagree: " + "; ".join(diffs[:5])
                ),
            )
        )
    return results


def _dram_cases() -> List[Tuple[str, Any, List[np.ndarray], List[float]]]:
    """Deterministic (config, segments, rates) replay cases.

    Mixes sequential, strided, tiled-ish, repeated and empty segments
    over power-of-two and non-power-of-two geometries, covering both
    activation policies.
    """
    from repro.memory.dram import DRAMConfig

    def segs(*arrays):
        return [np.asarray(a, dtype=np.int64) for a in arrays]

    cases = []
    for policy in ("bank-parallel", "serialized"):
        cases.append(
            (
                f"pow2-{policy}",
                DRAMConfig(
                    name=f"check-pow2-{policy}",
                    banks=8,
                    row_words=256,
                    row_cycle=10.0,
                    access_latency=4.0,
                    activation_policy=policy,
                ),
                segs(
                    np.arange(0, 4096),              # sequential sweep
                    np.arange(0, 65536, 1024),       # row-per-access stride
                    [],                              # empty segment
                    np.tile(np.arange(0, 512), 3),   # re-walk open rows
                    np.arange(65536, 65536 + 100)[::-1].copy(),  # reversed
                ),
                [8.0, 4.0, 1.0, 8.0, 2.0],
            )
        )
        cases.append(
            (
                f"nonpow2-{policy}",
                DRAMConfig(
                    name=f"check-nonpow2-{policy}",
                    banks=6,
                    row_words=96,
                    row_cycle=7.0,
                    access_latency=3.0,
                    activation_policy=policy,
                ),
                segs(
                    np.arange(0, 1000),
                    np.arange(0, 30000, 97),         # coprime stride
                    np.repeat(np.arange(0, 600, 96), 5),  # bank hammering
                    [],
                ),
                [4.0, 2.0, 1.0, 1.0],
            )
        )
    return cases


def dram_oracle() -> List[CheckResult]:
    """Vectorised batch costing vs scalar replay vs the pure-Python
    reference simulator, on deterministic address patterns.

    Three independent paths cost the same program-ordered access stream:

    * :meth:`DRAM.access_run` — one vectorised batch call;
    * :meth:`DRAM.access` — per-segment scalar calls threading state;
    * :class:`DRAMReference.access` — the loop-based oracle.

    Activation counts must agree exactly; cycle totals to float slack.
    """
    from repro.memory.dram import DRAM, DRAMReference
    from repro.memory.streams import Custom

    results: List[CheckResult] = []
    for label, config, segments, rates in _dram_cases():
        batch_dram = DRAM(config)
        scalar_dram = DRAM(config)
        reference = DRAMReference(config)

        addresses = np.concatenate(segments) if segments else np.empty(
            0, dtype=np.int64
        )
        lengths = np.asarray([len(s) for s in segments], dtype=np.int64)
        batch = batch_dram.access_run(addresses, lengths, rates)

        mismatches: List[str] = []
        for i, (segment, rate) in enumerate(zip(segments, rates)):
            pattern = Custom(segment)
            scalar = scalar_dram.access(pattern, rate_words_per_cycle=rate)
            ref = reference.access(pattern, rate_words_per_cycle=rate)
            got = batch.segment(i)
            for other_label, other in (("scalar", scalar), ("reference", ref)):
                if got.activations != other.activations:
                    mismatches.append(
                        f"seg {i} activations: batch {got.activations} != "
                        f"{other_label} {other.activations}"
                    )
                for field in ("issue_cycles", "activation_cycles"):
                    ga, oa = getattr(got, field), getattr(other, field)
                    if not np.isclose(ga, oa, rtol=CROSS_IMPL_RTOL, atol=0.0):
                        mismatches.append(
                            f"seg {i} {field}: batch {ga!r} != "
                            f"{other_label} {oa!r}"
                        )
                if got.words != other.words:
                    mismatches.append(
                        f"seg {i} words: batch {got.words} != "
                        f"{other_label} {other.words}"
                    )
        if batch_dram.open_rows != scalar_dram.open_rows:
            mismatches.append(
                "final open-row state: batch "
                f"{batch_dram.open_rows} != scalar {scalar_dram.open_rows}"
            )
        results.append(
            CheckResult(
                f"oracle.dram.{label}",
                PASS if not mismatches else FAIL,
                "" if not mismatches else "; ".join(mismatches[:6]),
            )
        )
    return results
