"""Packed disk store: the persistent tier 2 of the run cache.

:data:`repro.perf.cache.RUN_CACHE` memoizes runs *within* one process;
:class:`PackedDiskCache` (the singleton
:data:`repro.perf.diskcache.DISK_CACHE`) persists them across process
boundaries, so a CI job, a fresh CLI invocation, or a pool worker can
serve a run that some earlier process already simulated.

Layout
------
The *root* resolves, in order, to ``$REPRO_DISK_CACHE_DIR``,
``$XDG_CACHE_HOME/repro/runs``, or ``~/.cache/repro/runs`` — re-read on
every operation so tests and subprocesses can redirect it.  Under it,
one directory per model-version stamp
(:func:`repro.perf.cache.model_version_stamp`) holds:

* ``<root>/<stamp>/index.manifest`` — an append-only JSON-lines
  manifest.  Line 1 is a header carrying the format name and a
  *generation* token; every other line is a record
  ``{"k": key, "s": segment, "o": offset, "n": length, "d": sha256,
  "t": stored_at}`` or a tombstone ``{"k": key, "x": 1}``.  Last record
  for a key wins.
* ``<root>/<stamp>/segments/seg-NNNNN.bin`` — payload segments holding
  the raw pickled runs back to back.  A segment rolls over at
  ``REPRO_INDEX_SEGMENT_MB`` (default 64).

A warm process loads the manifest **once** (a single sequential read),
then answers every probe from the in-memory map with one ``pread`` per
payload; :meth:`PackedDiskCache.get_many` batches a whole sweep's
probes, grouping by segment.  Appends — payload bytes, then the
manifest line — happen under an inter-process ``flock`` on
``<root>/.lock``, so concurrent writers serialise and readers can
incrementally consume the manifest tail from their last-read offset.

Self-healing
------------
Payload digests are verified before anything is unpickled.  A corrupt
record is quarantined (payload bytes copied to ``<root>/quarantine/``
with a structured incident JSON) and tombstoned — counted, never
served, never wedging the key.  A torn manifest tail (writer killed
mid-append) is quarantined and truncated by the next locked writer,
mirroring the flight-recorder ledger's recovery.  A transient read
error is retried once before degrading to a miss.  A stale lock file —
recorded holder dead, file old — is broken before acquisition.
Pruning rewrites manifest + segments compacted under the lock and
bumps the header generation so other processes reload; a failed read
against a stale generation re-syncs before it counts as corruption.

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
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import ConfigError
from repro.trace.tracer import active_tracer

#: Manifest header format tag (line 1 of every manifest).
INDEX_FORMAT = "repro-index-v1"

#: Default payload-segment rollover size, overridable per operation via
#: ``REPRO_INDEX_SEGMENT_MB``.
DEFAULT_SEGMENT_MB = 64

#: Probe-latency reservoir size (per process, newest samples win).
_LATENCY_SAMPLES = 512

#: A lock file whose recorded holder is dead counts as stale once it is
#: this many seconds old (age guards against breaking a lock whose
#: holder pid we simply failed to observe mid-handoff).
STALE_LOCK_AGE = 60.0


def _chaos_active() -> bool:
    """Cheap gate for the chaos-injection hooks (hot paths)."""
    return bool(os.environ.get("REPRO_CHAOS"))


def _pid_alive(pid: int) -> bool:
    """Whether ``pid`` names a live process (conservative: unknown
    errors are treated as alive — never break a lock on a guess)."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        return True
    return True


def _default_root() -> Path:
    env = os.environ.get("REPRO_DISK_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path("~/.cache").expanduser()
    return base / "repro" / "runs"


def _segment_bytes() -> int:
    try:
        mb = float(os.environ.get("REPRO_INDEX_SEGMENT_MB", ""))
    except ValueError:
        mb = 0.0
    if mb <= 0:
        mb = DEFAULT_SEGMENT_MB
    return int(mb * 1024 * 1024)


class _FlockGuard:
    """Context manager: ``fcntl.flock`` on a lock file, best-effort.

    The holder records ``{"pid", "time"}`` into the lock file once the
    flock is held.  Before acquiring, a lock file whose *recorded*
    holder is dead and whose mtime is older than :data:`STALE_LOCK_AGE`
    is broken (unlinked) — the leftover of a SIGKILLed or rebooted
    process cannot wedge the store forever.  The break is deliberately
    conservative: an empty or unparseable record is left alone (the
    kernel releases a real ``flock`` with its holder anyway), and a
    live recorded pid is never broken.
    """

    def __init__(self, path: Path) -> None:
        self._path = path
        self._fh: Optional[io.IOBase] = None

    def _break_if_stale(self) -> None:
        """Unlink the lock file iff its recorded holder is provably
        dead and the file has not been touched recently."""
        try:
            raw = self._path.read_bytes()
            age = time.time() - self._path.stat().st_mtime
        except OSError:
            return
        try:
            record = json.loads(raw)
            pid = int(record["pid"])
        except (KeyError, TypeError, ValueError):
            return  # no recorded holder: nothing provable, leave it
        if _pid_alive(pid) or age < STALE_LOCK_AGE:
            return
        try:
            self._path.unlink()
        except OSError:
            return
        from repro.resilience.stats import RESILIENCE

        RESILIENCE.note("locks_broken")
        tracer = active_tracer()
        if tracer is not None:
            tracer.count("perf.diskcache.lock_broken")

    #: Fixed width of the holder record: rewriting the same bytes in
    #: place (space-padded, JSON ignores trailing whitespace) never
    #: changes the file size, so taking the lock costs no journal
    #: commit — an ftruncate per acquisition dominated the cold path.
    _HOLDER_BYTES = 64

    def _record_holder(self) -> None:
        """Write our pid into the held lock file (flock is exclusive,
        so the in-place overwrite cannot race another holder)."""
        try:
            data = json.dumps(
                {"pid": os.getpid(), "time": time.time()}
            ).encode("ascii").ljust(self._HOLDER_BYTES)
            self._fh.seek(0, os.SEEK_END)
            size = self._fh.tell()
            self._fh.seek(0)
            self._fh.write(data)
            if size > len(data):
                # A longer legacy record: shrink once, then the fixed
                # width holds forever.
                self._fh.truncate(len(data))
            self._fh.flush()
        except OSError:
            pass

    def __enter__(self) -> "_FlockGuard":
        fd = None
        try:
            import fcntl

            self._path.parent.mkdir(parents=True, exist_ok=True)
            if _chaos_active():
                from repro.resilience import chaos

                chaos.on_lock_acquire(self._path)
            self._break_if_stale()
            # O_RDWR, not append mode: append-mode writes land at the
            # end regardless of seek position, which would grow the
            # lock file on every acquisition.
            fd = os.open(str(self._path), os.O_RDWR | os.O_CREAT, 0o644)
            self._fh = os.fdopen(fd, "r+b")
            fd = None  # owned by the file object now
            fcntl.flock(self._fh.fileno(), fcntl.LOCK_EX)
            self._record_holder()
        except (ImportError, OSError):
            if fd is not None:
                try:
                    os.close(fd)
                except OSError:
                    pass
            if self._fh is not None:
                self._fh.close()
            self._fh = None
        return self

    def __exit__(self, *exc_info) -> None:
        if self._fh is not None:
            try:
                import fcntl

                fcntl.flock(self._fh.fileno(), fcntl.LOCK_UN)
            except (ImportError, OSError):
                pass
            self._fh.close()


class _Record:
    """One live manifest record (kept tiny — a warm store holds many)."""

    __slots__ = ("segment", "offset", "length", "digest", "stored_at")

    def __init__(
        self, segment: int, offset: int, length: int, digest: str,
        stored_at: float,
    ) -> None:
        self.segment = segment
        self.offset = offset
        self.length = length
        self.digest = digest
        self.stored_at = stored_at


class _View:
    """In-memory image of one ``(root, stamp)`` store."""

    def __init__(self, key: Tuple[str, str]) -> None:
        self.key = key
        self.records: Dict[str, _Record] = {}
        self.manifest_pos = 0
        self.generation: Optional[str] = None
        self.current_segment = 0
        self.atimes: Dict[str, float] = {}
        self.verified: set = set()
        self.seg_stat: Dict[int, Tuple[int, int]] = {}
        self.fds: Dict[int, int] = {}

    def close(self) -> None:
        for fd in self.fds.values():
            try:
                os.close(fd)
            except OSError:
                pass
        self.fds.clear()


class PackedDiskCache:
    """Tier 2: digest-verified runs in a packed manifest+segments store.

    Per-key :meth:`lookup` / :meth:`insert` plus the batched
    :meth:`get_many` / :meth:`put_many` the planner uses on the warm
    path.  Cross-process safety comes from the advisory lock; the
    in-process counters are guarded by a thread lock.
    ``max_entries``/``max_bytes`` bound the store; inserts trigger an
    opportunistic :meth:`prune` every ``prune_interval`` writes.
    """

    def __init__(
        self,
        directory: Optional[os.PathLike] = None,
        max_entries: int = 4096,
        max_bytes: int = 512 * 1024 * 1024,
        prune_interval: int = 128,
        respect_env: bool = True,
    ) -> None:
        self._directory = Path(directory) if directory is not None else None
        self._respect_env = bool(respect_env)
        self._forced_off = False
        self._lock = threading.Lock()
        self._pid = os.getpid()
        self.max_entries = int(max_entries)
        self.max_bytes = int(max_bytes)
        self.prune_interval = int(prune_interval)
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.evictions = 0
        self.corrupt = 0
        self.bypasses = 0
        self.quarantined = 0
        self.io_retries = 0
        self.refreshes = 0
        self.torn_records = 0
        self.compactions = 0
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

    def quarantine_dir(self) -> Path:
        return self.root() / "quarantine"

    def _manifest_path(self, stamp_dir: Optional[Path] = None) -> Path:
        return (stamp_dir or self.stamp_dir()) / "index.manifest"

    def _segment_path(self, index: int, stamp_dir: Optional[Path] = None) -> Path:
        base = stamp_dir or self.stamp_dir()
        return base / "segments" / f"seg-{index:05d}.bin"

    def _interprocess_lock(self):
        """The store's advisory lock (appends, tombstones and prunes
        serialise on it; degrades to a no-op without fcntl)."""
        return _FlockGuard(self.root() / ".lock")

    # -- counters ------------------------------------------------------

    def _count(self, attr: str, trace_name: str, n: int = 1) -> None:
        with self._lock:
            setattr(self, attr, getattr(self, attr) + n)
        tracer = active_tracer()
        if tracer is not None:
            tracer.count(trace_name, n)

    def note_bypass(self) -> None:
        self._count("bypasses", "perf.diskcache.bypass")

    # -- in-memory view maintenance ------------------------------------

    def _current_view(self) -> _View:
        """The view for the current ``(root, stamp)``, synced to the
        manifest tail.  Detects root changes (tests redirect the env
        var), manifest rewrites (prune in another process, via the
        header generation), and a fork (stale inherited state)."""
        if self._pid != os.getpid():
            # Forked child: inherited fds/views are the parent's.
            self._view = None
            self._pid = os.getpid()
        key = (str(self.root()), str(self.stamp_dir().name))
        view = self._view
        if view is None or view.key != key:
            if view is not None:
                view.close()
            view = _View(key)
            self._view = view
        self._sync(view)
        return view

    def _sync(self, view: _View) -> None:
        """Consume manifest lines appended since the last sync; reload
        from scratch when the manifest was rewritten or truncated."""
        manifest = self._manifest_path()
        try:
            size = manifest.stat().st_size
        except OSError:
            if view.manifest_pos or view.records:
                view.close()
                self._reset_view(view)
            return
        try:
            with open(manifest, "rb") as fh:
                header = fh.readline()
                generation = self._parse_generation(header)
                if (
                    generation != view.generation
                    or size < view.manifest_pos
                ):
                    self._reset_view(view)
                    view.generation = generation
                    view.manifest_pos = fh.tell()
                elif size == view.manifest_pos:
                    return
                fh.seek(view.manifest_pos)
                tail = fh.read()
        except OSError:
            return
        with self._lock:
            self.refreshes += 1
        pos = 0
        while True:
            newline = tail.find(b"\n", pos)
            if newline == -1:
                break  # torn tail: not yet durable, re-read next sync
            line = tail[pos:newline]
            if line:
                try:
                    self._apply_line(view, json.loads(line))
                except (ValueError, KeyError, TypeError):
                    with self._lock:
                        self.torn_records += 1
            pos = newline + 1
        view.manifest_pos += pos

    @staticmethod
    def _parse_generation(header: bytes) -> Optional[str]:
        try:
            doc = json.loads(header)
            if doc.get("format") != INDEX_FORMAT:
                return None
            return str(doc.get("gen"))
        except (ValueError, TypeError):
            return None

    def _reset_view(self, view: _View) -> None:
        view.close()
        view.records.clear()
        view.manifest_pos = 0
        view.generation = None
        view.current_segment = 0
        view.seg_stat.clear()
        view.verified.clear()

    def _apply_line(self, view: _View, doc: Dict[str, Any]) -> None:
        key = doc["k"]
        if doc.get("x"):
            view.records.pop(key, None)
            view.verified.discard(key)
            return
        record = _Record(
            int(doc["s"]), int(doc["o"]), int(doc["n"]),
            str(doc["d"]), float(doc.get("t", 0.0)),
        )
        view.records[key] = record
        view.verified.discard(key)
        if record.segment >= view.current_segment:
            view.current_segment = record.segment

    def _record(self, key: str) -> Optional[_Record]:
        view = self._current_view()
        return view.records.get(key)

    # -- low-level I/O -------------------------------------------------

    def _read_payload(
        self, view: _View, record: _Record
    ) -> Tuple[Optional[bytes], str]:
        """``(payload, failure-reason)`` for one record; retries one
        transient I/O error before giving up."""
        path = self._segment_path(record.segment)
        for attempt in (0, 1):
            try:
                if _chaos_active():
                    from repro.resilience import chaos

                    chaos.on_disk_read(path)
                fd = view.fds.get(record.segment)
                if fd is None:
                    fd = os.open(path, os.O_RDONLY)
                    view.fds[record.segment] = fd
                try:
                    stat = os.fstat(fd)
                    view.seg_stat[record.segment] = (
                        stat.st_size, stat.st_mtime_ns
                    )
                except OSError:
                    pass
                blob = os.pread(fd, record.length, record.offset)
            except FileNotFoundError:
                return None, "segment file missing"
            except OSError:
                from repro.resilience.stats import RESILIENCE

                RESILIENCE.note("io_errors")
                if attempt == 0:
                    with self._lock:
                        self.io_retries += 1
                    RESILIENCE.note("io_retries")
                    # The fd (if any) may be poisoned; reopen next try.
                    fd = view.fds.pop(record.segment, None)
                    if fd is not None:
                        try:
                            os.close(fd)
                        except OSError:
                            pass
                continue
            if len(blob) < record.length:
                return None, (
                    f"segment truncated: wanted {record.length} bytes at "
                    f"offset {record.offset}, got {len(blob)}"
                )
            return blob, ""
        return None, "io-error"

    def _append(
        self,
        view: _View,
        entries: Sequence[Tuple[str, bytes, str]],
    ) -> int:
        """Append ``(key, payload, digest)`` entries (payloads first,
        then their manifest lines); caller holds the flock.  Returns the
        number of entries published."""
        stamp_dir = self.stamp_dir()
        manifest = self._manifest_path(stamp_dir)
        limit = _segment_bytes()
        written = 0
        lines: List[bytes] = []
        try:
            stamp_dir.mkdir(parents=True, exist_ok=True)
            self._segment_path(0, stamp_dir).parent.mkdir(
                parents=True, exist_ok=True
            )
            if not manifest.exists():
                self._write_header(manifest)
                view.generation = None  # forces reload on next sync
            self._recover_torn_tail(manifest)
            seg_index = view.current_segment
            seg_path = self._segment_path(seg_index, stamp_dir)
            try:
                seg_size = seg_path.stat().st_size
            except OSError:
                seg_size = 0
            last_path = seg_path
            seg = open(seg_path, "ab")
            try:
                for key, payload, digest in entries:
                    if seg_size and seg_size + len(payload) > limit:
                        seg.close()
                        seg_index += 1
                        seg_path = self._segment_path(seg_index, stamp_dir)
                        seg = open(seg_path, "ab")
                        seg_size = seg.tell()
                        last_path = seg_path
                    offset = seg_size
                    seg.write(payload)
                    seg_size += len(payload)
                    stored_at = time.time()
                    lines.append(
                        json.dumps(
                            {
                                "k": key, "s": seg_index, "o": offset,
                                "n": len(payload), "d": digest,
                                "t": stored_at,
                            },
                            sort_keys=True,
                        ).encode("ascii")
                        + b"\n"
                    )
                    record = _Record(
                        seg_index, offset, len(payload), digest, stored_at
                    )
                    view.records[key] = record
                    view.verified.discard(key)
                    view.atimes[key] = stored_at
                    written += 1
            finally:
                seg.close()
            view.current_segment = seg_index
            with open(manifest, "ab") as fh:
                fh.write(b"".join(lines))
                view.manifest_pos = fh.tell()
        except OSError:
            return 0
        if written and _chaos_active():
            from repro.resilience import chaos

            chaos.on_disk_insert(last_path)
            # The hook may have flipped the segment tail; nothing to do
            # here — the digest check catches it on the next read.
            view.verified.clear()
        return written

    def _write_header(self, manifest: Path) -> None:
        header = {
            "format": INDEX_FORMAT,
            "gen": f"{os.getpid()}-{time.time_ns()}",
        }
        with open(manifest, "xb") as fh:
            fh.write(json.dumps(header, sort_keys=True).encode("ascii") + b"\n")

    def _recover_torn_tail(self, manifest: Path) -> None:
        """Truncate a partial final manifest line (writer killed
        mid-append), preserving the torn bytes as quarantine evidence —
        the same recovery the flight-recorder ledger applies.  Caller
        holds the flock."""
        try:
            with open(manifest, "r+b") as fh:
                fh.seek(0, os.SEEK_END)
                size = fh.tell()
                if size == 0:
                    return
                fh.seek(size - 1)
                if fh.read(1) == b"\n":
                    return
                fh.seek(0)
                data = fh.read()
                cut = data.rfind(b"\n") + 1
                torn = data[cut:]
                fh.truncate(cut)
        except OSError:
            return
        with self._lock:
            self.torn_records += 1
        try:
            qdir = self.quarantine_dir()
            qdir.mkdir(parents=True, exist_ok=True)
            stamp = self.stamp_dir().name
            evidence = qdir / f"manifest-torn-{stamp}-{cut}.bin"
            evidence.write_bytes(torn)
            evidence.with_suffix(".incident.json").write_text(
                json.dumps(
                    {
                        "key": f"manifest-torn-{stamp}-{cut}",
                        "reason": "torn manifest tail (partial record)",
                        "source": str(manifest),
                        "action": "quarantined",
                        "pid": os.getpid(),
                        "detected_at": time.strftime(
                            "%Y-%m-%dT%H:%M:%S%z", time.localtime()
                        ),
                        "size": len(torn),
                        "quarantined_to": str(evidence),
                    },
                    indent=2,
                    sort_keys=True,
                )
                + "\n"
            )
        except OSError:
            pass
        from repro.resilience.stats import RESILIENCE

        RESILIENCE.note("quarantined")
        with self._lock:
            self.quarantined += 1

    # -- quarantine ----------------------------------------------------

    def _quarantine(
        self, key: str, record: _Record, blob: Optional[bytes], reason: str
    ) -> None:
        """Preserve a damaged record's bytes, tombstone the key, count.

        The evidence is copied out (the segment holds other live
        records), an incident JSON is written beside it, and the key
        heals on the next insert.  Never raises.
        """
        incident: Dict[str, Any] = {
            "key": key,
            "reason": reason,
            "source": (
                f"{self._segment_path(record.segment)}"
                f"@{record.offset}+{record.length}"
            ),
            "action": "quarantined",
            "pid": os.getpid(),
            "detected_at": time.strftime(
                "%Y-%m-%dT%H:%M:%S%z", time.localtime()
            ),
            "size": record.length,
        }
        try:
            qdir = self.quarantine_dir()
            qdir.mkdir(parents=True, exist_ok=True)
            dest = qdir / f"{key}.run"
            dest.write_bytes(blob if blob is not None else b"")
            incident["quarantined_to"] = str(dest)
            dest.with_suffix(".incident.json").write_text(
                json.dumps(incident, indent=2, sort_keys=True) + "\n"
            )
        except OSError:
            incident["action"] = "dropped"
        self.evict(key)
        with self._lock:
            self.quarantined += 1
        from repro.resilience.stats import RESILIENCE

        RESILIENCE.note("quarantined")
        tracer = active_tracer()
        if tracer is not None:
            tracer.count("perf.diskcache.quarantined")

    def incidents(self) -> List[Dict[str, Any]]:
        """Every parseable incident record in the quarantine, sorted."""
        out: List[Dict[str, Any]] = []
        qdir = self.quarantine_dir()
        if not qdir.is_dir():
            return out
        for record in sorted(qdir.glob("*.incident.json")):
            try:
                out.append(json.loads(record.read_text()))
            except (OSError, ValueError):
                continue
        return out

    # -- store operations ----------------------------------------------

    def contains(self, key: str) -> bool:
        """Whether a live record exists (no counters, no payload I/O)."""
        return self.enabled and self._record(key) is not None

    def _resync_stale(self, view: _View, key: str) -> Optional[_Record]:
        """If the manifest generation moved under us (a concurrent
        compaction replaced the segments), reload and return the key's
        fresh record — a failed read against a stale view is a race,
        not corruption.  ``None`` when the view was already current or
        the key is gone."""
        try:
            with open(self._manifest_path(), "rb") as fh:
                generation = self._parse_generation(fh.readline())
        except OSError:
            return None
        if generation == view.generation:
            return None
        view.close()
        view.seg_stat.clear()
        self._sync(view)
        return view.records.get(key)

    def _decode_record(
        self, view: _View, key: str, record: _Record, retried: bool = False
    ) -> Optional[Any]:
        """Verified, unpickled payload of one record; quarantines and
        returns ``None`` on corruption (counted corrupt + miss), or on
        an unhealable read error (counted as a plain miss)."""
        blob, failure = self._read_payload(view, record)
        if blob is None or hashlib.sha256(blob).hexdigest() != record.digest:
            if not retried:
                fresh = self._resync_stale(view, key)
                if fresh is not None:
                    return self._decode_record(
                        view, key, fresh, retried=True
                    )
            if blob is None and "truncated" not in failure and (
                "missing" not in failure
            ):
                # Transient I/O failure: a plain miss, not corruption.
                self._count("misses", "perf.diskcache.miss")
                return None
            reason = failure if blob is None else "payload digest mismatch"
            self._count("corrupt", "perf.diskcache.corrupt")
            self._count("misses", "perf.diskcache.miss")
            self._quarantine(key, record, blob, reason)
            return None
        try:
            value = pickle.loads(blob)
        except Exception as exc:  # pickle raises many concrete types
            self._count("corrupt", "perf.diskcache.corrupt")
            self._count("misses", "perf.diskcache.miss")
            self._quarantine(key, record, blob, f"unpicklable ({exc})")
            return None
        view.verified.add(key)
        view.atimes[key] = time.time()
        return value

    def lookup(self, key: str) -> Optional[Any]:
        """The stored run, digest-verified, or ``None``; never raises on
        a damaged store (corruption quarantines and misses)."""
        if not self.enabled:
            self.note_bypass()
            return None
        t0 = time.perf_counter()
        view = self._current_view()
        record = view.records.get(key)
        if record is None:
            self._count("misses", "perf.diskcache.miss")
            self._note_probe(time.perf_counter() - t0)
            return None
        value = self._decode_record(view, key, record)
        if value is not None:
            self._count("hits", "perf.diskcache.hit")
        self._note_probe(time.perf_counter() - t0)
        return value

    def get_many(self, keys: Sequence[str]) -> Dict[str, Any]:
        """Batched lookups: one manifest sync, payload reads grouped by
        segment in offset order.  Returns ``{key: value}`` for the keys
        served; misses and corruption count exactly as per-key lookups.
        """
        if not keys:
            return {}
        if not self.enabled:
            for _ in keys:
                self.note_bypass()
            return {}
        t0 = time.perf_counter()
        view = self._current_view()
        found: List[Tuple[str, _Record]] = []
        for key in keys:
            record = view.records.get(key)
            if record is None:
                self._count("misses", "perf.diskcache.miss")
            else:
                found.append((key, record))
        out: Dict[str, Any] = {}
        for key, record in sorted(
            found, key=lambda kr: (kr[1].segment, kr[1].offset)
        ):
            value = self._decode_record(view, key, record)
            if value is not None:
                self._count("hits", "perf.diskcache.hit")
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
        """Append many entries under one lock acquisition; returns how
        many published."""
        if not items:
            return 0
        if not self.enabled:
            for _ in items:
                self.note_bypass()
            return 0
        entries: List[Tuple[str, bytes, str]] = []
        for key, value in items:
            try:
                payload = pickle.dumps(
                    value, protocol=pickle.HIGHEST_PROTOCOL
                )
            except Exception:
                continue
            entries.append(
                (key, payload, hashlib.sha256(payload).hexdigest())
            )
        if not entries:
            return 0
        try:
            with self._interprocess_lock():
                view = self._current_view()
                written = self._append(view, entries)
        except OSError:
            return 0
        if written:
            self._count("writes", "perf.diskcache.write", written)
            if self.prune_interval and (
                self.writes % self.prune_interval
            ) < written:
                self.prune()
        return written

    def evict(self, key: str) -> bool:
        """Tombstone one entry; returns whether a live record existed."""
        view = self._current_view()
        if key not in view.records:
            return False
        line = json.dumps({"k": key, "x": 1}).encode("ascii") + b"\n"
        try:
            with self._interprocess_lock():
                self._sync(view)
                manifest = self._manifest_path()
                if not manifest.exists():
                    view.records.pop(key, None)
                    return True
                self._recover_torn_tail(manifest)
                with open(manifest, "ab") as fh:
                    fh.write(line)
                    view.manifest_pos = fh.tell()
        except OSError:
            pass
        view.records.pop(key, None)
        view.verified.discard(key)
        view.atimes.pop(key, None)
        return True

    def keys(self) -> List[str]:
        """Live keys of the current stamp, least recently used first."""
        view = self._current_view()
        return sorted(
            view.records,
            key=lambda k: max(
                view.atimes.get(k, 0.0), view.records[k].stored_at
            ),
        )

    def __len__(self) -> int:
        return len(self._current_view().records)

    def total_bytes(self) -> int:
        view = self._current_view()
        return sum(r.length for r in view.records.values())

    # -- prune / clear -------------------------------------------------

    def prune(
        self,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ) -> int:
        """Evict least-recently-used entries until within the caps and
        compact manifest + segments; returns the number evicted.

        Runs entirely under the inter-process lock: survivors are
        rewritten into fresh segments, the manifest is rewritten with a
        new generation token, and other processes reload on their next
        sync.  Recency is the in-process access time where known,
        falling back to each record's stored-at time.  A negative cap
        raises :class:`~repro.errors.ConfigError`.
        """
        caps = (("max_entries", max_entries), ("max_bytes", max_bytes))
        for name, cap in caps:
            if cap is not None and cap < 0:
                raise ConfigError(f"{name} must be >= 0, got {cap}")
        max_entries = self.max_entries if max_entries is None else max_entries
        max_bytes = self.max_bytes if max_bytes is None else max_bytes
        removed = 0
        with self._interprocess_lock():
            view = self._current_view()
            ordered = self.keys()
            total = sum(r.length for r in view.records.values())
            doomed: List[str] = []
            while ordered and (
                len(ordered) > max_entries or total > max_bytes
            ):
                key = ordered.pop(0)
                total -= view.records[key].length
                doomed.append(key)
            if not doomed:
                return 0
            removed = len(doomed)
            survivors = [
                (key, view.records[key]) for key in ordered
            ]
            self._compact(view, survivors, doomed)
        if removed:
            with self._lock:
                self.evictions += removed
            tracer = active_tracer()
            if tracer is not None:
                tracer.count("perf.diskcache.evict", removed)
        return removed

    def _compact(
        self,
        view: _View,
        survivors: List[Tuple[str, _Record]],
        doomed: List[str],
    ) -> None:
        """Rewrite manifest + segments holding only ``survivors``;
        caller holds the flock.  A failure leaves the old store intact
        (tombstones are appended instead as a fallback)."""
        stamp_dir = self.stamp_dir()
        limit = _segment_bytes()
        generation = f"{os.getpid()}-{time.time_ns()}"
        lines = [
            json.dumps(
                {"format": INDEX_FORMAT, "gen": generation}, sort_keys=True
            ).encode("ascii")
            + b"\n"
        ]
        try:
            seg_dir = self._segment_path(0, stamp_dir).parent
            seg_dir.mkdir(parents=True, exist_ok=True)
            seg_index = 0
            seg_size = 0
            tmp_segments: List[Tuple[Path, Path]] = []
            seg_tmp = seg_dir / f".compact-{os.getpid()}-{seg_index:05d}"
            seg = open(seg_tmp, "wb")
            tmp_segments.append(
                (seg_tmp, self._segment_path(seg_index, stamp_dir))
            )
            new_records: Dict[str, _Record] = {}
            for key, record in survivors:
                blob, _failure = self._read_payload(view, record)
                if blob is None or (
                    hashlib.sha256(blob).hexdigest() != record.digest
                ):
                    continue  # damaged survivor: drop, key recomputes
                if seg_size and seg_size + len(blob) > limit:
                    seg.close()
                    seg_index += 1
                    seg_size = 0
                    seg_tmp = (
                        seg_dir / f".compact-{os.getpid()}-{seg_index:05d}"
                    )
                    seg = open(seg_tmp, "wb")
                    tmp_segments.append(
                        (seg_tmp, self._segment_path(seg_index, stamp_dir))
                    )
                offset = seg_size
                seg.write(blob)
                seg_size += len(blob)
                lines.append(
                    json.dumps(
                        {
                            "k": key, "s": seg_index, "o": offset,
                            "n": len(blob), "d": record.digest,
                            "t": max(
                                view.atimes.get(key, 0.0), record.stored_at
                            ),
                        },
                        sort_keys=True,
                    ).encode("ascii")
                    + b"\n"
                )
                new_records[key] = _Record(
                    seg_index, offset, len(blob), record.digest,
                    record.stored_at,
                )
            seg.close()
            manifest = self._manifest_path(stamp_dir)
            manifest_tmp = manifest.with_name(
                f".compact-manifest-{os.getpid()}"
            )
            manifest_tmp.write_bytes(b"".join(lines))
            # Publish: segments first (readers of the *old* manifest keep
            # their old fds — unlinked inodes stay readable), manifest
            # last with its fresh generation.
            for tmp, final in tmp_segments:
                os.replace(tmp, final)
            stale = seg_index + 1
            while True:
                leftover = self._segment_path(stale, stamp_dir)
                if not leftover.exists():
                    break
                try:
                    leftover.unlink()
                except OSError:
                    pass
                stale += 1
            os.replace(manifest_tmp, manifest)
        except OSError:
            # Fall back to tombstoning the doomed keys in place.
            try:
                with open(self._manifest_path(stamp_dir), "ab") as fh:
                    for key in doomed:
                        fh.write(
                            json.dumps({"k": key, "x": 1}).encode("ascii")
                            + b"\n"
                        )
            except OSError:
                pass
            for key in doomed:
                view.records.pop(key, None)
                view.atimes.pop(key, None)
                view.verified.discard(key)
            return
        with self._lock:
            self.compactions += 1
        view.close()
        view.records = new_records
        view.generation = generation
        view.current_segment = seg_index
        view.manifest_pos = sum(len(line) for line in lines)
        view.verified.clear()
        view.seg_stat.clear()
        for key in doomed:
            view.atimes.pop(key, None)

    def clear(self) -> int:
        """Remove every entry (all stamps) and reset the counters;
        returns the number of live records removed."""
        import shutil

        root = self.root()
        removed = 0
        if root.is_dir():
            for manifest in root.glob("*/index.manifest"):
                removed += len(self._manifest_census(manifest)[0])
            shutil.rmtree(root, ignore_errors=True)
        if self._view is not None:
            self._view.close()
            self._view = None
        with self._lock:
            self.hits = self.misses = self.writes = 0
            self.evictions = self.corrupt = self.bypasses = 0
            self.quarantined = self.io_retries = 0
            self.refreshes = self.torn_records = self.compactions = 0
            self._probe_us.clear()
        return removed

    # -- integrity and fault hooks -------------------------------------

    def verify(self) -> List[str]:
        """Digest-verify the current stamp's records (hash only — no
        unpickling); returns the keys that failed, each counted under
        ``corrupt``.

        Keys whose bytes were already hash-verified by this process are
        skipped *unless* their segment changed on disk since we read it
        (size or mtime drift) — so an external writer's corruption is
        still caught, while a warm validation pass costs one ``stat``
        per segment instead of re-hashing the whole store.
        """
        view = self._current_view()
        for index, (size, mtime_ns) in list(view.seg_stat.items()):
            try:
                stat = self._segment_path(index).stat()
            except OSError:
                view.verified.clear()
                break
            if (stat.st_size, stat.st_mtime_ns) != (size, mtime_ns):
                view.verified.clear()
                view.seg_stat.pop(index, None)
        bad: List[str] = []
        for key, record in sorted(view.records.items()):
            if key in view.verified:
                continue
            blob, _failure = self._read_payload(view, record)
            if (
                blob is None
                or hashlib.sha256(blob).hexdigest() != record.digest
            ):
                self._count("corrupt", "perf.diskcache.corrupt")
                bad.append(key)
            else:
                view.verified.add(key)
        return bad

    def tamper(self, key: str, mutate: Callable[[Any], None]) -> bool:
        """Re-append the entry with ``mutate`` applied and a *valid*
        digest — the stale-but-self-consistent corruption only a
        differential oracle can catch.  For :mod:`repro.check.faults`;
        returns whether the key was present."""
        view = self._current_view()
        record = view.records.get(key)
        if record is None:
            return False
        blob, _failure = self._read_payload(view, record)
        if blob is None:
            return False
        try:
            value = pickle.loads(blob)
        except Exception:
            return False
        mutate(value)
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        digest = hashlib.sha256(payload).hexdigest()
        with self._interprocess_lock():
            return self._append(view, [(key, payload, digest)]) == 1

    def corrupt_bytes(self, key: str, offset: int = -1) -> bool:
        """Flip one payload byte in place (digest left stale), modelling
        media corruption.  For fault injection only; returns whether the
        key was present."""
        view = self._current_view()
        record = view.records.get(key)
        if record is None:
            return False
        position = record.offset + (offset % record.length)
        path = self._segment_path(record.segment)
        try:
            fd = os.open(path, os.O_RDWR)
            try:
                current = os.pread(fd, 1, position)
                if len(current) != 1:
                    return False
                os.pwrite(fd, bytes([current[0] ^ 0xFF]), position)
            finally:
                os.close(fd)
        except OSError:
            return False
        view.verified.discard(key)
        return True

    def truncate_entry(self, key: str) -> bool:
        """Tear the entry mid-payload — the torn tail a crash mid-write
        leaves.  The record is re-appended at the current segment tail,
        then the segment is truncated halfway through it, so only this
        key is damaged.  For fault injection only."""
        view = self._current_view()
        record = view.records.get(key)
        if record is None:
            return False
        blob, _failure = self._read_payload(view, record)
        if blob is None:
            blob = b"\x00" * record.length
        digest = hashlib.sha256(blob).hexdigest()
        with self._interprocess_lock():
            if self._append(view, [(key, blob, digest)]) != 1:
                return False
            fresh = view.records[key]
            path = self._segment_path(fresh.segment)
            try:
                with open(path, "r+b") as fh:
                    fh.truncate(fresh.offset + fresh.length // 2)
            except OSError:
                return False
        view.verified.discard(key)
        view.seg_stat.pop(fresh.segment, None)
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

    @staticmethod
    def _manifest_census(
        manifest: Path,
    ) -> Tuple[Dict[str, int], int]:
        """``({key: length}, segment_count)`` of one manifest, parsed
        without touching the model-version stamp (so ``repro cache
        stats`` never imports the modelling stack)."""
        live: Dict[str, int] = {}
        segments: set = set()
        try:
            with open(manifest, "rb") as fh:
                fh.readline()  # header
                for line in fh:
                    if not line.endswith(b"\n"):
                        break
                    try:
                        doc = json.loads(line)
                        if doc.get("x"):
                            live.pop(doc["k"], None)
                        else:
                            live[doc["k"]] = int(doc["n"])
                            segments.add(int(doc["s"]))
                    except (ValueError, KeyError, TypeError):
                        continue
        except OSError:
            return {}, 0
        return live, len(segments)

    def _census(self) -> Tuple[int, int, int, int]:
        """(entries, bytes, segments, manifest_bytes) across all stamps
        under the root — stamp-free, so the CLI fast path stays free of
        numpy imports."""
        root = self.root()
        entries = total = segments = manifest_bytes = 0
        if not root.is_dir():
            return 0, 0, 0, 0
        for manifest in sorted(root.glob("*/index.manifest")):
            live, seg_count = self._manifest_census(manifest)
            entries += len(live)
            total += sum(live.values())
            segments += seg_count
            try:
                manifest_bytes += manifest.stat().st_size
            except OSError:
                pass
        return entries, total, segments, manifest_bytes

    def stats(self) -> Dict[str, int]:
        entries, total, _segments, _manifest_bytes = self._census()
        return {
            "entries": entries,
            "bytes": total,
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "evictions": self.evictions,
            "corrupt": self.corrupt,
            "quarantined": self.quarantined,
            "io_retries": self.io_retries,
            "bypasses": self.bypasses,
            "enabled": int(self.enabled),
        }

    def index_stats(self) -> Dict[str, float]:
        """The ``perf.index`` telemetry source: packed-layout health."""
        entries, total, segments, manifest_bytes = self._census()
        out: Dict[str, float] = {
            "entries": entries,
            "bytes": total,
            "segments": segments,
            "manifest_bytes": manifest_bytes,
            "refreshes": self.refreshes,
            "torn_records": self.torn_records,
            "compactions": self.compactions,
            "probe_samples": len(self._probe_us),
        }
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
