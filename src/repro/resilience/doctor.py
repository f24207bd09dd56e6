"""``repro doctor``: health probes for the execution runtime.

Before trusting a long sweep to an environment, probe the things that
fail in practice: can a process pool actually spawn and round-trip
work, can the disk cache write/read/verify an entry, can the
interprocess lock be acquired, is the store free of corruption, and is
the telemetry registry sane.  Each probe returns ``pass``, ``warn``
(degraded but survivable — e.g. no pool, serial fallback available), or
``fail`` (the runtime would misbehave); the CLI prints the table and
exits non-zero iff any probe failed, naming it.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Tuple

PASS = "pass"
WARN = "warn"
FAIL = "fail"


@dataclasses.dataclass(frozen=True)
class ProbeResult:
    """Outcome of one health probe."""

    name: str
    status: str
    detail: str = ""

    def format(self) -> str:
        line = f"{self.status.upper():4s} {self.name}"
        if self.detail:
            line += f" — {self.detail}"
        return line


def _pool_probe() -> int:
    """Top-level for pickling: the pool round-trip payload."""
    return 42


def probe_pool_spawn() -> ProbeResult:
    """Spawn a one-worker pool and round-trip a trivial task."""
    name = "probe.pool-spawn"
    try:
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=1) as pool:
            value = pool.submit(_pool_probe).result(timeout=60)
        if value != 42:
            return ProbeResult(
                name, FAIL, f"pool returned {value!r}, expected 42"
            )
        return ProbeResult(name, PASS, "1-worker pool round-trip ok")
    except Exception as exc:
        # No pool is a *degradation*, not a failure: the supervised
        # executor falls back to serial and says so in telemetry.
        return ProbeResult(
            name, WARN,
            f"process pool unavailable ({type(exc).__name__}: {exc}); "
            "sweeps will run serially",
        )


def probe_disk_cache_rw() -> ProbeResult:
    """Insert, look up, and evict a probe entry in the live store."""
    from repro.perf.diskcache import DISK_CACHE

    name = "probe.disk-cache-rw"
    if not DISK_CACHE.enabled:
        return ProbeResult(
            name, WARN, "disk tier disabled (REPRO_DISK_CACHE=0)"
        )
    key = "doctorprobe"
    payload = {"probe": "doctor", "value": 1.25}
    try:
        if not DISK_CACHE.insert(key, payload):
            return ProbeResult(
                name, FAIL,
                f"insert refused (read-only store at {DISK_CACHE.root()}?)",
            )
        value = DISK_CACHE.lookup(key)
        if value != payload:
            return ProbeResult(
                name, FAIL, f"lookup returned {value!r} for probe entry"
            )
        return ProbeResult(
            name, PASS, f"write+verified-read ok at {DISK_CACHE.root()}"
        )
    finally:
        DISK_CACHE.evict(key)


def probe_disk_cache_verify() -> ProbeResult:
    """Digest-verify every persisted entry of the current stamp."""
    from repro.perf.diskcache import DISK_CACHE

    name = "probe.disk-cache-verify"
    if not DISK_CACHE.enabled:
        return ProbeResult(name, WARN, "disk tier disabled")
    bad = DISK_CACHE.verify()
    if bad:
        return ProbeResult(
            name, FAIL,
            f"{len(bad)} corrupt entries in {DISK_CACHE.stamp_dir()}: "
            + ", ".join(k[:12] for k in bad[:5])
            + " — run `repro cache clear`",
        )
    n = len(DISK_CACHE)
    return ProbeResult(name, PASS, f"{n} entries, all digests verified")


def probe_lock() -> ProbeResult:
    """Acquire and release the interprocess lock."""
    from repro.perf.diskcache import DISK_CACHE

    name = "probe.lock"
    try:
        with DISK_CACHE._interprocess_lock() as guard:
            if getattr(guard, "_fh", None) is None:
                return ProbeResult(
                    name, WARN,
                    "flock unavailable; store writes run unserialised",
                )
        return ProbeResult(name, PASS, "interprocess lock acquired")
    except Exception as exc:
        return ProbeResult(
            name, FAIL, f"lock acquisition raised {type(exc).__name__}: {exc}"
        )


def probe_quarantine() -> ProbeResult:
    """Report quarantined entries (evidence of past corruption)."""
    from repro.perf.diskcache import DISK_CACHE

    name = "probe.quarantine"
    incidents = DISK_CACHE.incidents()
    if not incidents:
        return ProbeResult(name, PASS, "no quarantined entries")
    reasons = {i.get("reason", "?") for i in incidents}
    return ProbeResult(
        name, WARN,
        f"{len(incidents)} quarantined entries "
        f"({', '.join(sorted(reasons))}) under "
        f"{DISK_CACHE.root()} — healed, kept for forensics",
    )


def probe_telemetry() -> ProbeResult:
    """Snapshot the telemetry registry and require the core namespaces."""
    # A namespace appears once its owner is imported: import the owners
    # of the required ones, so a missing name means a broken owner.
    import repro.perf.cache  # noqa: F401
    import repro.perf.diskcache  # noqa: F401
    import repro.perf.timers  # noqa: F401
    import repro.resilience.stats  # noqa: F401
    from repro.trace.telemetry import TELEMETRY

    name = "probe.telemetry"
    required = {"perf.timers", "perf.cache", "perf.diskcache", "resilience"}
    missing = required - set(TELEMETRY.namespaces())
    if missing:
        return ProbeResult(
            name, FAIL, f"namespaces missing: {sorted(missing)}"
        )
    snap = TELEMETRY.snapshot()
    errors = [k for k in snap if k.endswith(".error")]
    if errors:
        return ProbeResult(
            name, FAIL,
            "sources raised: "
            + "; ".join(f"{k}={snap[k]}" for k in errors[:3]),
        )
    return ProbeResult(
        name, PASS, f"{len(TELEMETRY.namespaces())} sources, snapshot clean"
    )


def probe_obs() -> ProbeResult:
    """Probe the observability layer: ledger dir writable, history
    parseable line by line (quarantining a corrupt trailing line rather
    than trusting it)."""
    import os

    from repro.ioutil import heal_log
    from repro.obs.history import history_path, read_history
    from repro.obs.ledger import ledger_dir, obs_enabled

    name = "probe.obs"
    if not obs_enabled():
        return ProbeResult(name, WARN, "obs layer disabled (REPRO_OBS=0)")
    # Ledger directory must be creatable and writable.
    directory = ledger_dir()
    try:
        directory.mkdir(parents=True, exist_ok=True)
        probe_file = directory / f".doctor-probe-{os.getpid()}"
        probe_file.write_text("probe\n", encoding="utf-8")
        probe_file.unlink()
    except OSError as exc:
        return ProbeResult(
            name, FAIL,
            f"ledger dir not writable ({directory}): "
            f"{type(exc).__name__}: {exc}",
        )
    # History must parse line by line; a torn tail is healed, not trusted.
    path = history_path()
    try:
        moved = heal_log(path)
    except OSError as exc:
        return ProbeResult(
            name, FAIL,
            f"history tail could not be quarantined ({path}): "
            f"{type(exc).__name__}: {exc}",
        )
    records, corrupt = read_history(path)
    if moved:
        return ProbeResult(
            name, WARN,
            f"history had a {len(moved)}-byte torn tail; quarantined to "
            f"{path.with_suffix('.quarantine')}",
        )
    if corrupt:
        return ProbeResult(
            name, WARN,
            f"history has {len(corrupt)} corrupt line(s) that readers "
            "skip",
        )
    return ProbeResult(
        name, PASS,
        f"ledger dir writable, {len(records)} history record(s) parseable",
    )


def probe_service_journal() -> ProbeResult:
    """Validate the service job journal: parseable, gapless sequence,
    every per-job history legal under the job state machine.

    A missing journal is a clean PASS (the service has simply never
    run here); a torn tail is a WARN (the next server start heals it);
    schema or state-machine violations are hard failures — they mean
    replay would reconstruct the wrong job states.
    """
    from repro.ioutil import read_log
    from repro.service.journal import journal_path, validate_records

    name = "probe.service-journal"
    path = journal_path()
    if not path.is_file():
        return ProbeResult(name, PASS, f"no journal at {path} (never served)")
    records, corrupt, end = read_log(path)
    problems = validate_records(records)
    if problems:
        return ProbeResult(
            name, FAIL,
            f"{len(problems)} violation(s) in {path}: "
            + "; ".join(problems[:3]),
        )
    torn = path.stat().st_size - end
    if corrupt or torn:
        return ProbeResult(
            name, WARN,
            f"{len(corrupt)} corrupt line(s) and a {torn}-byte torn tail "
            f"in {path}; the next server start quarantines the tail",
        )
    return ProbeResult(
        name, PASS, f"{len(records)} record(s), sequence and states legal"
    )


#: The probe battery, in run order.
PROBES: Tuple[Tuple[str, Callable[[], ProbeResult]], ...] = (
    ("pool-spawn", probe_pool_spawn),
    ("disk-cache-rw", probe_disk_cache_rw),
    ("disk-cache-verify", probe_disk_cache_verify),
    ("lock", probe_lock),
    ("quarantine", probe_quarantine),
    ("telemetry", probe_telemetry),
    ("obs", probe_obs),
    ("service-journal", probe_service_journal),
)


def run_doctor() -> List[ProbeResult]:
    """Run every probe; a probe that *raises* is itself a failure."""
    results: List[ProbeResult] = []
    for short_name, probe in PROBES:
        try:
            results.append(probe())
        except Exception as exc:  # noqa: BLE001 - a probe must not kill doctor
            results.append(
                ProbeResult(
                    f"probe.{short_name}", FAIL,
                    f"probe crashed: {type(exc).__name__}: {exc}",
                )
            )
    return results


def render_doctor(results: List[ProbeResult]) -> str:
    """The pass/warn/fail table the CLI prints."""
    counts = {PASS: 0, WARN: 0, FAIL: 0}
    for result in results:
        counts[result.status] += 1
    lines = [
        f"repro doctor: {len(results)} probes — "
        f"{counts[PASS]} pass, {counts[WARN]} warn, {counts[FAIL]} fail"
    ]
    for result in results:
        lines.append("  " + result.format())
    failing = [r.name for r in results if r.status == FAIL]
    if failing:
        lines.append("verdict: UNHEALTHY (failing: " + ", ".join(failing) + ")")
    else:
        lines.append("verdict: HEALTHY")
    return "\n".join(lines)


def doctor_json(results: List[ProbeResult]) -> Dict[str, object]:
    """The machine-readable doctor record (``repro doctor --json`` and
    the service ``/healthz?full=1`` endpoint): one object per probe
    plus the overall verdict and exit code, so CI and the service can
    consume doctor results without scraping the text table."""
    return {
        "probes": [
            {"name": r.name, "status": r.status, "detail": r.detail}
            for r in results
        ],
        "healthy": all(r.status != FAIL for r in results),
        "verdict": (
            "HEALTHY"
            if all(r.status != FAIL for r in results)
            else "UNHEALTHY"
        ),
        "exit_code": exit_code(results),
    }


def exit_code(results: List[ProbeResult]) -> int:
    """0 when no probe failed (warnings allowed), else 2."""
    return 0 if all(r.status != FAIL for r in results) else 2
