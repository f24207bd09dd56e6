"""The persistent disk store: tier 2 of the run cache.

:data:`repro.perf.cache.RUN_CACHE` memoizes runs *within* one process;
:class:`PackedDiskCache` (the singleton
:data:`repro.perf.diskcache.DISK_CACHE`) persists them across process
boundaries, so a CI job, a fresh CLI invocation, or a pool worker can
serve a run that some earlier process already simulated.

Layout
------
The *root* resolves, in order, to ``$REPRO_DISK_CACHE_DIR``,
``$XDG_CACHE_HOME/repro/runs``, or ``~/.cache/repro/runs`` — re-read on
every operation so tests and subprocesses can redirect it.  Under it:

* ``<root>/<stamp>/store.log`` — one :mod:`repro.ioutil` record log per
  model-version stamp (:func:`repro.perf.cache.model_version_stamp`).
  An entry is a header ``{"d": sha256, "k": key, "n": length}``
  followed by the pickled run; a tombstone is ``{"k": key, "x": 1}``.
  The last record for a key wins.  No record carries a time, a pid or
  a generation, so the same writes leave the same bytes;
* ``<root>/.lock`` — an empty file whose advisory ``flock`` every
  append, tombstone and compaction takes;
* ``<root>/<stamp>/store.quarantine`` — the store's one quarantine
  log: each damaged entry and each torn tail is one record, a header
  naming the log, the offset and the reason, with the bytes as its
  body.

A handle parses the whole log in one read on first use, then only the
bytes appended since.  It keeps the descriptor it parsed and reads
payloads through it, so a compaction that renames a new log into place
can never pair the handle's offsets with the new file's bytes; a
handle that finds a different inode at the path, or a shorter file,
parses afresh.

Self-healing
------------
Payload digests are verified before anything is unpickled.  A corrupt
entry's bytes are appended to ``store.quarantine`` and its key is
tombstoned — counted, never served, never wedging the key.  A torn tail
(a writer killed mid-append) is left unread by readers and moved to the
same ``store.quarantine`` by the next locked writer
(:func:`repro.ioutil.heal_log`); :meth:`PackedDiskCache.verify` names
its key meanwhile.  A transient read error is retried once
before degrading to a miss.  The lock needs no healing: the kernel
drops a ``flock`` when its holder exits, however it exits.  Pruning
writes the surviving entries, least recently used first, to a new log
and renames it into place under the lock.

``REPRO_DISK_CACHE=0`` disables the tier globally; the CLI's
``--no-disk-cache`` calls :meth:`PackedDiskCache.disable` for one
invocation.  Bypassed lookups are counted, so telemetry shows the tier
was skipped, not silently absent.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import pickle
import threading
import time
from collections import deque
from pathlib import Path
from typing import (
    Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple,
)

from repro.errors import ConfigError
from repro.ioutil import BODY_AT, BODY_FIELD, append_jsonl, heal_log, read_log
from repro.trace.telemetry import Counters

#: The record log under each stamp directory.
LOG_NAME = "store.log"

#: The caps :meth:`PackedDiskCache.prune` enforces by default.
MAX_ENTRIES = 4096
MAX_BYTES = 512 * 1024 * 1024

#: Writes between the opportunistic prunes inserts trigger.
PRUNE_INTERVAL = 128

#: Probe-latency reservoir size (per process, newest samples win).
_LATENCY_SAMPLES = 512

#: The store's counts: the ``perf.diskcache`` telemetry keys first,
#: then the log's own (reported under ``perf.index``).
_STATS = (
    "hits", "misses", "writes", "evictions", "corrupt", "quarantined",
    "io_retries", "bypasses",
)
_LOG_STATS = ("refreshes", "torn_records", "compactions")


def _chaos_active() -> bool:
    """Cheap gate for the chaos-injection hooks (hot paths)."""
    return bool(os.environ.get("REPRO_CHAOS"))


def _default_root() -> Path:
    env = os.environ.get("REPRO_DISK_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path("~/.cache").expanduser()
    return base / "repro" / "runs"


class _FlockGuard:
    """Context manager: ``fcntl.flock(LOCK_EX)`` on a lock file,
    best-effort.

    The kernel releases the flock when its holder exits, however it
    exits, so a dead writer never wedges the store and the file carries
    no record.  Without ``fcntl`` (or when the file cannot be opened or
    locked) the guard is a no-op and ``_fh`` stays ``None``; ``repro
    doctor``'s lock probe reports that.
    """

    def __init__(self, path: Path) -> None:
        self._path = path
        self._fh: Optional[io.IOBase] = None

    def __enter__(self) -> "_FlockGuard":
        try:
            import fcntl

            self._path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self._path, "ab")
        except (ImportError, OSError):
            return self
        try:
            fcntl.flock(self._fh.fileno(), fcntl.LOCK_EX)
        except OSError:
            self._fh.close()
            self._fh = None
        return self

    def __exit__(self, *exc_info) -> None:
        if self._fh is not None:
            try:
                import fcntl

                # Unlock explicitly: a child forked meanwhile shares
                # the open file, so closing ours would not release it.
                fcntl.flock(self._fh.fileno(), fcntl.LOCK_UN)
            except (ImportError, OSError):
                pass
            self._fh.close()


class _Entry:
    """One live entry: where its payload sits in the log, and its
    digest (kept tiny — a warm store holds many)."""

    __slots__ = ("offset", "length", "digest")

    def __init__(self, offset: int, length: int, digest: str) -> None:
        self.offset = offset
        self.length = length
        self.digest = digest


class _View:
    """This process's image of one store log.

    ``fd`` is the descriptor the image was parsed from, and every
    payload read goes through it; a replaced or shrunken log gets a new
    view, and the old descriptor closes once no caller holds the old
    view.  ``entries`` is in file order.
    """

    def __init__(self, path: Path) -> None:
        self.path = path
        self.fd: Optional[int] = None
        self.ino = 0
        self.pos = 0
        self.entries: Dict[str, _Entry] = {}
        try:
            self.fd = os.open(path, os.O_RDONLY)
            self.ino = os.fstat(self.fd).st_ino
        except OSError:
            pass

    def __del__(self) -> None:
        if self.fd is not None:
            try:
                os.close(self.fd)
            except OSError:
                pass


class PackedDiskCache:
    """Tier 2: digest-verified runs in one append-only log per stamp.

    Per-key :meth:`lookup` / :meth:`insert` plus the batched
    :meth:`get_many` / :meth:`put_many` the planner uses on the warm
    path.  Cross-process safety comes from the advisory lock.  The
    counts live in :attr:`counters`, a
    :class:`~repro.trace.telemetry.Counters` the constructor does not
    register (:mod:`repro.perf.diskcache` registers the shared one).
    Inserts trigger an opportunistic :meth:`prune` every
    :data:`PRUNE_INTERVAL` writes.
    """

    def __init__(
        self,
        directory: Optional[os.PathLike] = None,
        respect_env: bool = True,
    ) -> None:
        self._directory = Path(directory) if directory is not None else None
        self._respect_env = bool(respect_env)
        self._forced_off = False
        self._lock = threading.Lock()
        self.counters = Counters("perf.diskcache", _STATS + _LOG_STATS)
        self._unpruned = 0
        self._used: Dict[str, None] = {}
        self._probe_us: deque = deque(maxlen=_LATENCY_SAMPLES)
        self._view: Optional[_View] = None

    # -- configuration -------------------------------------------------

    @property
    def enabled(self) -> bool:
        """Whether lookups/inserts touch the disk at all (re-reads
        ``REPRO_DISK_CACHE`` on each access, so environment changes
        take effect immediately)."""
        if self._forced_off:
            return False
        if not self._respect_env:
            return True
        return os.environ.get("REPRO_DISK_CACHE", "1") != "0"

    def enable(self) -> None:
        self._forced_off = False

    def disable(self) -> None:
        self._forced_off = True

    @contextlib.contextmanager
    def disabled(self) -> Iterator[None]:
        """Force the tier off for a scope, restoring the prior state."""
        prev = self._forced_off
        self._forced_off = True
        try:
            yield
        finally:
            self._forced_off = prev

    def root(self) -> Path:
        return self._directory if self._directory is not None else _default_root()

    def stamp_dir(self) -> Path:
        from repro.perf.cache import model_version_stamp

        return self.root() / model_version_stamp()

    def log_path(self) -> Path:
        return self.stamp_dir() / LOG_NAME

    def _interprocess_lock(self):
        """The store's advisory lock (appends, tombstones and prunes
        serialise on it; degrades to a no-op without fcntl)."""
        return _FlockGuard(self.root() / ".lock")

    def note_bypass(self) -> None:
        self.counters.note("bypasses")

    def _note_quarantined(self) -> None:
        from repro.resilience.stats import RESILIENCE

        self.counters.note("quarantined")
        RESILIENCE.note("quarantined")

    # -- the in-memory view --------------------------------------------

    def _current_view(self) -> _View:
        """The view of the current ``(root, stamp)`` log, synced to its
        last complete record.  A new view replaces the old one when the
        root or stamp changed (tests redirect the env var), the path
        names another inode (a compaction elsewhere), or the log shrank
        (a heal or a fault hook).  A forked child may keep its parent's
        view: ``pread`` through the shared descriptor moves no offset."""
        path = self.log_path()
        try:
            stat = os.stat(path)
            ino, size = stat.st_ino, stat.st_size
        except OSError:
            ino = size = 0
        view = self._view
        if (
            view is None
            or view.path != path
            or view.ino != ino
            or size < view.pos
        ):
            view = self._view = _View(path)
        if view.fd is not None and size > view.pos:
            self._read_tail(view)
        return view

    def _read_tail(self, view: _View) -> None:
        """Apply the records appended since the view last read."""
        records, corrupt, view.pos = read_log(view.fd, view.pos)
        self.counters.note("refreshes")
        if corrupt:
            self.counters.note("torn_records", len(corrupt))
        for record in records:
            try:
                key = str(record["k"])
                entry = None if record.get("x") else _Entry(
                    record[BODY_AT], record[BODY_FIELD], str(record["d"])
                )
            except (KeyError, TypeError):
                self.counters.note("torn_records")
                continue
            view.entries.pop(key, None)
            if entry is not None:
                view.entries[key] = entry

    def _touch(self, key: str) -> None:
        """Rank ``key`` most recently used by this process."""
        self._used.pop(key, None)
        self._used[key] = None

    # -- low-level I/O -------------------------------------------------

    def _read_payload(
        self, view: _View, entry: _Entry
    ) -> Tuple[Optional[bytes], str]:
        """``(payload, failure-reason)`` for one entry, read through the
        view's descriptor and digest-checked; the reason is empty when
        the payload is sound.  Retries one transient I/O error."""
        from repro.resilience.stats import RESILIENCE

        for attempt in (0, 1):
            try:
                if _chaos_active():
                    from repro.resilience import chaos

                    chaos.on_disk_read(self.log_path())
                blob = os.pread(view.fd, entry.length, entry.offset)
            except OSError:
                RESILIENCE.note("io_errors")
                if attempt == 0:
                    self.counters.note("io_retries")
                    RESILIENCE.note("io_retries")
                continue
            if len(blob) < entry.length:
                return None, (
                    f"log truncated: wanted {entry.length} bytes at "
                    f"offset {entry.offset}, got {len(blob)}"
                )
            if hashlib.sha256(blob).hexdigest() != entry.digest:
                return blob, "payload digest mismatch"
            return blob, ""
        return None, "io-error"

    def _heal(self, view: _View) -> None:
        """Move a torn tail to quarantine before writing; the caller
        holds the flock and has just synced ``view``, so bytes past its
        last complete record are a tail no writer is still adding to.
        A clean log costs one ``fstat``."""
        if view.fd is None or os.fstat(view.fd).st_size <= view.pos:
            return
        if heal_log(view.path):
            self.counters.note("torn_records")
            self._note_quarantined()
            self._view = None

    def _append(self, records: Sequence[Any]) -> Optional[_View]:
        """Heal a torn tail, then append ``records`` in one write; the
        caller holds the flock.  Returns the view synced past them, or
        ``None`` when the log could not be written."""
        try:
            self._heal(self._current_view())
            append_jsonl(self.log_path(), *records)
        except OSError:
            return None
        return self._current_view()

    # -- quarantine ----------------------------------------------------

    def _quarantine(
        self, key: str, entry: _Entry, blob: Optional[bytes], reason: str
    ) -> None:
        """Preserve a damaged entry's bytes, tombstone the key, count.

        The bytes are copied out (the log holds other live entries) into
        the stamp's quarantine log, the one a torn tail heals into, as
        one record under the lock; the key heals on the next insert.
        Never raises.
        """
        header = {"at": entry.offset, "k": key, "log": LOG_NAME,
                  "reason": reason}
        with self._interprocess_lock():
            try:
                append_jsonl(
                    self.log_path().with_suffix(".quarantine"),
                    (header, blob or b""),
                )
            except OSError:
                pass
        self.evict(key)
        self._note_quarantined()

    def incidents(self) -> List[Dict[str, Any]]:
        """Every record of each stamp's quarantine log, in order: the
        damaged entries (with their ``key``) and the healed torn
        tails."""
        out: List[Dict[str, Any]] = []
        quarantine = Path(LOG_NAME).with_suffix(".quarantine").name
        for evidence in sorted(self.root().glob(f"*/{quarantine}")):
            for record in read_log(evidence)[0]:
                out.append({
                    "key": record.get("k"),
                    "reason": record.get("reason", "torn tail"),
                    "source": str(evidence.with_name(LOG_NAME)),
                    "at": record.get("at"),
                    "size": record.get(BODY_FIELD),
                    "quarantined_to": str(evidence),
                })
        return out

    # -- store operations ----------------------------------------------

    def contains(self, key: str) -> bool:
        """Whether a live entry exists (no counters, no payload I/O)."""
        return self.enabled and key in self._current_view().entries

    def _decode(self, view: _View, key: str) -> Optional[Any]:
        """Verified, unpickled payload of one entry; quarantines and
        returns ``None`` on corruption (counted corrupt + miss), or on
        an unhealable read error (counted as a plain miss)."""
        entry = view.entries.get(key)
        if entry is None:
            self.counters.note("misses")
            return None
        blob, failure = self._read_payload(view, entry)
        if failure == "io-error":
            # Transient I/O failure: a plain miss, not corruption.
            self.counters.note("misses")
            return None
        if failure:
            self.counters.note("corrupt")
            self.counters.note("misses")
            self._quarantine(key, entry, blob, failure)
            return None
        try:
            value = pickle.loads(blob)
        except Exception as exc:  # pickle raises many concrete types
            self.counters.note("corrupt")
            self.counters.note("misses")
            self._quarantine(key, entry, blob, f"unpicklable ({exc})")
            return None
        self._touch(key)
        self.counters.note("hits")
        return value

    def lookup(self, key: str) -> Optional[Any]:
        """The stored run, digest-verified, or ``None``; never raises on
        a damaged store (corruption quarantines and misses)."""
        if not self.enabled:
            self.note_bypass()
            return None
        t0 = time.perf_counter()
        value = self._decode(self._current_view(), key)
        self._note_probe(time.perf_counter() - t0)
        return value

    def get_many(self, keys: Sequence[str]) -> Dict[str, Any]:
        """Batched lookups: one sync, payload reads in file order.
        Returns ``{key: value}`` for the keys served; misses and
        corruption count exactly as per-key lookups."""
        if not keys:
            return {}
        if not self.enabled:
            for _ in keys:
                self.note_bypass()
            return {}
        t0 = time.perf_counter()
        view = self._current_view()
        out: Dict[str, Any] = {}
        missing = [key for key in keys if key not in view.entries]
        if missing:
            self.counters.note("misses", len(missing))
        found = sorted(
            (key for key in keys if key in view.entries),
            key=lambda key: view.entries[key].offset,
        )
        for key in found:
            value = self._decode(view, key)
            if value is not None:
                out[key] = value
        elapsed = time.perf_counter() - t0
        for _ in keys:
            self._note_probe(elapsed / len(keys))
        return out

    def insert(self, key: str, value: Any) -> bool:
        """Append ``value`` under ``key``; returns whether it published.

        An unpicklable value or an unwritable store degrades to a no-op
        — the disk tier is an accelerator, never a correctness
        dependency.
        """
        return self.put_many([(key, value)]) == 1

    def put_many(self, items: Sequence[Tuple[str, Any]]) -> int:
        """Append many entries in one write under one lock acquisition;
        returns how many published."""
        if not items:
            return 0
        if not self.enabled:
            for _ in items:
                self.note_bypass()
            return 0
        records = []
        for key, value in items:
            try:
                payload = pickle.dumps(
                    value, protocol=pickle.HIGHEST_PROTOCOL
                )
            except Exception:
                continue
            digest = hashlib.sha256(payload).hexdigest()
            records.append(({"d": digest, "k": key}, payload))
        if not records:
            return 0
        with self._interprocess_lock():
            view = self._append(records)
        if view is None:
            return 0
        for header, _payload in records:
            self._touch(header["k"])
        written = len(records)
        self.counters.note("writes", written)
        if _chaos_active():
            from repro.resilience import chaos

            # The hook may flip the last entry's last payload byte; the
            # digest check catches it on the next read.
            chaos.on_disk_insert(self, records[-1][0]["k"])
        self._unpruned += written
        if self._unpruned >= PRUNE_INTERVAL:
            self._unpruned = 0
            self.prune()
        return written

    def evict(self, key: str) -> bool:
        """Tombstone one entry; returns whether a live entry existed."""
        if key not in self._current_view().entries:
            return False
        with self._interprocess_lock():
            view = self._append([{"k": key, "x": 1}])
        if view is not None:
            view.entries.pop(key, None)
        self._used.pop(key, None)
        return True

    def keys(self) -> List[str]:
        """Live keys of the current stamp, least recently used first:
        file order, then the keys this process used, oldest use first."""
        entries = self._current_view().entries
        used = [key for key in self._used if key in entries]
        fresh = [key for key in entries if key not in self._used]
        return fresh + used

    def __len__(self) -> int:
        return len(self._current_view().entries)

    # -- prune / clear -------------------------------------------------

    def prune(
        self,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ) -> int:
        """Evict least-recently-used entries until within the caps
        (default :data:`MAX_ENTRIES` and :data:`MAX_BYTES`) and compact
        the log; returns the number evicted.

        Runs entirely under the inter-process lock: the survivors,
        least recently used first, are written to a new log that is
        renamed into place, and other processes re-read on their next
        operation.  A negative cap raises
        :class:`~repro.errors.ConfigError`.
        """
        caps = (("max_entries", max_entries), ("max_bytes", max_bytes))
        for name, cap in caps:
            if cap is not None and cap < 0:
                raise ConfigError(f"{name} must be >= 0, got {cap}")
        max_entries = MAX_ENTRIES if max_entries is None else max_entries
        max_bytes = MAX_BYTES if max_bytes is None else max_bytes
        with self._interprocess_lock():
            view = self._current_view()
            ordered = self.keys()
            total = sum(view.entries[key].length for key in ordered)
            doomed: List[str] = []
            while ordered and (
                len(ordered) > max_entries or total > max_bytes
            ):
                key = ordered.pop(0)
                total -= view.entries[key].length
                doomed.append(key)
            if doomed:
                self._compact(view, ordered, doomed)
        if doomed:
            self.counters.note("evictions", len(doomed))
        return len(doomed)

    def _compact(
        self, view: _View, survivors: List[str], doomed: List[str]
    ) -> None:
        """Rewrite the log holding only ``survivors``, in order; the
        caller holds the flock.  A failure leaves the old log intact and
        tombstones the doomed keys instead."""
        records = []
        for key in survivors:
            entry = view.entries[key]
            blob, failure = self._read_payload(view, entry)
            if failure:
                continue  # damaged survivor: drop, key recomputes
            records.append(({"d": entry.digest, "k": key}, blob))
        path = self.log_path()
        staging = path.with_name(f".{LOG_NAME}.compact-{os.getpid()}")
        try:
            self._heal(view)
            staging.unlink(missing_ok=True)
            append_jsonl(staging, *records)
            os.replace(staging, path)
        except OSError:
            try:
                staging.unlink(missing_ok=True)
                append_jsonl(path, *({"k": key, "x": 1} for key in doomed))
            except OSError:
                pass
            for key in doomed:
                view.entries.pop(key, None)
            return
        self.counters.note("compactions")
        self._used.clear()
        self._view = None

    def clear(self) -> int:
        """Remove every entry (all stamps, and any store left in an
        older layout) and reset the counters; returns the number of
        live entries removed."""
        import shutil

        removed = self._census()[0]
        shutil.rmtree(self.root(), ignore_errors=True)
        self._view = None
        self._used.clear()
        self.counters.reset()
        with self._lock:
            self._probe_us.clear()
        return removed

    # -- integrity and fault hooks -------------------------------------

    def verify(self) -> List[str]:
        """Digest-verify the current stamp's entries (hash only — no
        unpickling), plus a torn tail; returns the keys that failed,
        each counted under ``corrupt``."""
        view = self._current_view()
        bad: List[str] = []
        if view.fd is None:
            return bad
        for key, entry in sorted(view.entries.items()):
            if self._read_payload(view, entry)[1]:
                bad.append(key)
        if os.fstat(view.fd).st_size > view.pos:
            bad.extend(self._torn_tail())
        for _ in bad:
            self.counters.note("corrupt")
        return bad

    def _torn_tail(self) -> List[str]:
        """The key of the record torn off the log's end, read under the
        lock so a write still in flight is not mistaken for one."""
        with self._interprocess_lock():
            view = self._current_view()
            try:
                size = os.fstat(view.fd).st_size
                tail = os.pread(view.fd, min(size - view.pos, 4096), view.pos)
            except (OSError, TypeError):
                return []
        if not tail:
            return []
        try:
            key = json.loads(tail.split(b"\n", 1)[0])["k"]
        except (ValueError, KeyError, TypeError):
            key = "torn-tail"
        return [str(key)]

    def tamper(self, key: str, mutate: Callable[[Any], None]) -> bool:
        """Re-insert the entry with ``mutate`` applied and a *valid*
        digest — the stale-but-self-consistent corruption only a
        differential oracle can catch.  For :mod:`repro.check.faults`;
        returns whether the key was present."""
        value = self.lookup(key)
        if value is None:
            return False
        mutate(value)
        return self.insert(key, value)

    def corrupt_bytes(self, key: str, offset: int = -1) -> bool:
        """Flip one payload byte in place (digest left stale), modelling
        media corruption.  For fault injection only; returns whether the
        key was present."""
        view = self._current_view()
        entry = view.entries.get(key)
        if entry is None:
            return False
        position = entry.offset + (offset % entry.length)
        try:
            fd = os.open(self.log_path(), os.O_RDWR)
            try:
                current = os.pread(fd, 1, position)
                if len(current) != 1:
                    return False
                os.pwrite(fd, bytes([current[0] ^ 0xFF]), position)
            finally:
                os.close(fd)
        except OSError:
            return False
        return True

    def truncate_entry(self, key: str) -> bool:
        """Tear the entry mid-payload — the torn tail a crash mid-write
        leaves.  A copy of the entry is appended, then the log is cut
        halfway through its payload: readers keep serving the intact
        older record, :meth:`verify` names the key, and the next locked
        writer quarantines the torn bytes.  For fault injection only."""
        view = self._current_view()
        entry = view.entries.get(key)
        if entry is None:
            return False
        blob, _failure = self._read_payload(view, entry)
        if blob is None:
            blob = b"\x00" * entry.length
        digest = hashlib.sha256(blob).hexdigest()
        with self._interprocess_lock():
            view = self._append([({"d": digest, "k": key}, blob)])
            if view is None:
                return False
            fresh = view.entries[key]
            try:
                os.truncate(self.log_path(), fresh.offset + fresh.length // 2)
            except OSError:
                return False
        return True

    # -- reporting -----------------------------------------------------

    def _note_probe(self, seconds: float) -> None:
        with self._lock:
            self._probe_us.append(seconds * 1e6)

    def probe_percentiles(self) -> Dict[str, float]:
        """p50/p90/p99 of recent probe latencies, microseconds."""
        with self._lock:
            samples = sorted(self._probe_us)
        if not samples:
            return {"p50_us": 0.0, "p90_us": 0.0, "p99_us": 0.0}

        def pct(p: float) -> float:
            rank = min(len(samples) - 1, int(p * (len(samples) - 1) + 0.5))
            return samples[rank]

        return {
            "p50_us": pct(0.50), "p90_us": pct(0.90), "p99_us": pct(0.99)
        }

    def _census(self) -> Tuple[int, int, int, int]:
        """``(entries, bytes, logs, log_bytes)`` across every stamp's
        log, live entries only — parsed without touching the
        model-version stamp, so ``repro cache stats`` never imports the
        modelling stack."""
        root = self.root()
        logs = sorted(root.glob(f"*/{LOG_NAME}")) if root.is_dir() else []
        entries = total = log_bytes = 0
        for log in logs:
            live: Dict[str, int] = {}
            for record in read_log(log)[0]:
                if record.get("x"):
                    live.pop(record.get("k"), None)
                elif BODY_AT in record:
                    live[record.get("k")] = record[BODY_FIELD]
            entries += len(live)
            total += sum(live.values())
            log_bytes += log.stat().st_size
        return entries, total, len(logs), log_bytes

    def stats(self) -> Dict[str, int]:
        """The ``perf.diskcache`` telemetry source: every stamp's live
        entries and payload bytes, plus this handle's counts."""
        entries, total, _logs, _log_bytes = self._census()
        counts = self.counters.snapshot()
        out = {"entries": entries, "bytes": total}
        out.update((name, counts[name]) for name in _STATS)
        out["enabled"] = int(self.enabled)
        return out

    def index_stats(self) -> Dict[str, float]:
        """The ``perf.index`` telemetry source: the logs' shape."""
        entries, total, logs, log_bytes = self._census()
        counts = self.counters.snapshot()
        out: Dict[str, float] = {
            "entries": entries,
            "bytes": total,
            "logs": logs,
            "log_bytes": log_bytes,
            "probe_samples": len(self._probe_us),
        }
        out.update((name, counts[name]) for name in _LOG_STATS)
        out.update(self.probe_percentiles())
        return out

    def format_stats(self) -> str:
        s = self.stats()
        state = "" if s["enabled"] else " (disabled)"
        return (
            f"disk cache: {s['hits']} hits, {s['misses']} misses, "
            f"{s['writes']} writes, {s['evictions']} evictions, "
            f"{s['corrupt']} corrupt, {s['quarantined']} quarantined, "
            f"{s['bypasses']} bypasses, "
            f"{s['entries']} entries ({s['bytes'] / 1e6:.1f} MB)"
            f"{state} at {self.root()}"
        )
