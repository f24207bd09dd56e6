"""Packed-index invariants (``invariant.index.*``) for the fast tier.

The packed disk-cache layout (:mod:`repro.perf.index`) concentrates
every persisted run behind one manifest; a bug there corrupts the whole
store at once instead of one file.  These checks exercise the layout's
load-bearing guarantees against a *scratch* store in a temporary
directory — hermetic, deterministic, independent of whether the
user's disk tier is enabled, and counted in ``RESILIENCE.scoped()`` so
its staged quarantine stays out of the process's telemetry — plus one
digest sweep of the live store:

* ``invariant.index.roundtrip`` — ``put_many`` → ``get_many`` over a
  fresh store returns byte-equal values, the digest sweep is clean, and
  the index census agrees with what was written;
* ``invariant.index.reopen`` — a *second* handle on the same directory
  (a fresh process, as far as the index code can tell) serves the same
  entries purely from the manifest;
* ``invariant.index.torn-tail`` — a manifest with a torn final record
  (crash mid-append) still serves every complete entry, and the next
  locked writer truncates and quarantines the torn bytes;
* ``invariant.index.tombstone`` — an evicted key stays evicted across
  reopen (the append-only manifest's last-record-wins rule);
* ``invariant.index.live-verify`` — the user's live store passes the
  digest sweep.  When the tier is off the sweep runs against the
  scratch store's final state instead — the same fallback the
  disk-tier oracle uses — so ``repro report`` stdout stays
  byte-identical regardless of cache configuration.
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

    from repro.perf.diskcache import DISK_CACHE
    from repro.perf.index import PackedDiskCache
    from repro.resilience.stats import RESILIENCE

    results: List[CheckResult] = []
    # The scratch store's healing (the torn tail's quarantine) is
    # staged, so it is counted in a scope.  The live sweep is not: a
    # read error or retry on the user's store really happened.
    scratch = tempfile.TemporaryDirectory(prefix="repro-check-index-")
    with scratch as tmp, RESILIENCE.scoped():
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
        # on, everything must come back from manifest + segments.
        reopened = PackedDiskCache(tmp, respect_env=False)
        again = reopened.get_many([key for key, _ in _PAYLOADS])
        results.append(
            _result(
                "invariant.index.reopen",
                all(again.get(k) == v for k, v in _PAYLOADS),
                f"reopened store served {len(again)}/{len(_PAYLOADS)} "
                "entries from the manifest",
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
                "evicted key resurfaced after manifest replay",
            )
        )

        # Crash mid-append: tear the manifest tail, then require a
        # reader to serve every complete record and the next locked
        # writer to truncate + quarantine the torn bytes.
        manifest = store.stamp_dir() / "index.manifest"
        with open(manifest, "ab") as fh:
            fh.write(b'{"k": "torn-entry", "s": 0, "o": 0, "n": 99')
        torn = PackedDiskCache(tmp, respect_env=False)
        before = torn.torn_records
        survivors = torn.get_many([key for key, _ in _PAYLOADS[1:]])
        torn.put_many([("post-tear", {"healed": True})])
        healed = PackedDiskCache(tmp, respect_env=False)
        results.append(
            _result(
                "invariant.index.torn-tail",
                all(survivors.get(k) == v for k, v in _PAYLOADS[1:])
                and torn.torn_records > before
                and healed.lookup("post-tear") == {"healed": True}
                and healed.lookup("torn-entry") is None,
                f"torn manifest tail mishandled: {len(survivors)}/"
                f"{len(_PAYLOADS) - 1} survivors, "
                f"{torn.torn_records - before} torn records recovered",
            )
        )

        # Tier off → sweep the scratch store's final state through the
        # identical verify path, so the row (and the report bytes) do
        # not depend on cache configuration.
        scratch_bad = None if DISK_CACHE.enabled else healed.verify()
    bad = DISK_CACHE.verify() if scratch_bad is None else scratch_bad
    results.append(
        _result(
            "invariant.index.live-verify",
            not bad,
            f"{len(bad)} live entries failed digest verification: "
            + ", ".join(k[:12] for k in bad[:5]),
        )
    )
    return results
