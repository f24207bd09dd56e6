"""Disk-store invariants (``invariant.index.*``) for the fast tier.

The disk store (:mod:`repro.perf.index`) keeps every persisted run of a
model version in one record log; a bug there corrupts the whole store
at once instead of one entry.  These checks exercise the log's
load-bearing guarantees against a *scratch* store in a temporary
directory — hermetic, deterministic, independent of whether the
user's disk tier is enabled, and staged with
``repro.obs.ledger.recording(RESILIENCE)`` so its quarantine stays out
of the process's telemetry.  The live store's digest sweep is the
``oracle.diskcache.integrity`` row
(:func:`repro.check.oracles.disk_integrity_check`):

* ``invariant.index.roundtrip`` — ``put_many`` → ``get_many`` over a
  fresh store returns byte-equal values, the digest sweep is clean, and
  the store's census agrees with what was written;
* ``invariant.index.reopen`` — a *second* handle on the same directory
  (a fresh process, as far as the store code can tell) serves the same
  entries purely from the log;
* ``invariant.index.torn-tail`` — a log with a torn final record
  (crash mid-append) still serves every complete entry, and the next
  locked writer moves the torn bytes to quarantine;
* ``invariant.index.tombstone`` — an evicted key stays evicted across
  reopen (the append-only log's last-record-wins rule).
"""

from __future__ import annotations

from typing import List

from repro.check.report import FAIL, PASS, CheckResult

__all__ = ["index_checks"]

#: Deterministic scratch payloads: structure-bearing, pickle-stable.
_PAYLOADS = [
    (f"indexcanary{i:02d}", {"cell": i, "values": [float(i)] * 8})
    for i in range(6)
]


def _result(name: str, ok: bool, detail: str) -> CheckResult:
    return CheckResult(name, PASS if ok else FAIL, "" if ok else detail)


def index_checks() -> List[CheckResult]:
    """The ``invariant.index.*`` rows for ``repro check --fast``."""
    import tempfile

    from repro.obs.ledger import recording
    from repro.perf.index import PackedDiskCache
    from repro.resilience.stats import RESILIENCE

    results: List[CheckResult] = []
    # The scratch store's healing (the torn tail's quarantine) is
    # staged, so it is counted in the check's own scope.
    scratch = tempfile.TemporaryDirectory(prefix="repro-check-index-")
    with scratch as tmp, recording(RESILIENCE):
        store = PackedDiskCache(tmp, respect_env=False)
        written = store.put_many(_PAYLOADS)
        served = store.get_many([key for key, _ in _PAYLOADS])
        roundtrip_ok = (
            written == len(_PAYLOADS)
            and all(served.get(k) == v for k, v in _PAYLOADS)
            and not store.verify()
            and len(store) == len(_PAYLOADS)
        )
        results.append(
            _result(
                "invariant.index.roundtrip",
                roundtrip_ok,
                f"packed store round-trip broke: wrote {written}/"
                f"{len(_PAYLOADS)}, served {len(served)}, "
                f"census {len(store)}",
            )
        )

        # A second handle = a fresh process: no in-memory view to lean
        # on, everything must come back from the log.
        reopened = PackedDiskCache(tmp, respect_env=False)
        again = reopened.get_many([key for key, _ in _PAYLOADS])
        results.append(
            _result(
                "invariant.index.reopen",
                all(again.get(k) == v for k, v in _PAYLOADS),
                f"reopened store served {len(again)}/{len(_PAYLOADS)} "
                "entries from the log",
            )
        )

        # Tombstones must win over the records they shadow, including
        # across reopen (last record wins on replay).
        victim = _PAYLOADS[0][0]
        store.evict(victim)
        shadowed = PackedDiskCache(tmp, respect_env=False)
        results.append(
            _result(
                "invariant.index.tombstone",
                store.lookup(victim) is None
                and shadowed.lookup(victim) is None
                and shadowed.lookup(_PAYLOADS[1][0]) == _PAYLOADS[1][1],
                "evicted key resurfaced after log replay",
            )
        )

        # Crash mid-append: tear the log's tail, then require a reader
        # to serve every complete entry and the next locked writer to
        # move the torn bytes to quarantine.
        with open(store.log_path(), "ab") as fh:
            fh.write(b'{"d": "00", "k": "torn-entry", "n": 99}\ntorn')
        torn = PackedDiskCache(tmp, respect_env=False)
        survivors = torn.get_many([key for key, _ in _PAYLOADS[1:]])
        torn.put_many([("post-tear", {"healed": True})])
        healed = PackedDiskCache(tmp, respect_env=False)
        moved = torn.counters.get("torn_records")
        results.append(
            _result(
                "invariant.index.torn-tail",
                all(survivors.get(k) == v for k, v in _PAYLOADS[1:])
                and moved == 1
                and healed.lookup("post-tear") == {"healed": True}
                and healed.lookup("torn-entry") is None,
                f"torn log tail mishandled: {len(survivors)}/"
                f"{len(_PAYLOADS) - 1} survivors, "
                f"{moved} torn tails quarantined",
            )
        )
    return results
