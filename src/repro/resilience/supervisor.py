"""Supervised process-pool execution: retry, deadline, isolate, degrade.

An unsupervised pool is all-or-nothing: any infrastructure failure
abandons parallelism for the whole sweep.  The :class:`Supervisor`
turns the pool into a *supervised* resource with an explicit recovery
ladder, applied per chunk of work:

1. **retry with backoff** — a chunk whose worker crashed
   (``BrokenProcessPool``) or whose result missed the per-chunk deadline
   is re-dispatched on a fresh pool, up to
   :attr:`RetryPolicy.max_retries` times, with exponential backoff and
   deterministic jitter between rounds;
2. **isolate** — a chunk that keeps failing is *split*: its cells are
   retried one at a time, so a single poisoned cell (one that reliably
   kills its worker or hangs) cannot sink its chunk-mates, whose results
   are computed and persisted normally;
3. **mark failed** — a cell that fails even alone is reported via
   :class:`~repro.errors.WorkerCrashError` /
   :class:`~repro.errors.DeadlineExceeded` carrying a structured
   ``incident`` (cell index, attempts, last error) — after every
   healthy cell has completed and reached the cache tiers;
4. **degrade** — failures of the pool *transport* itself (spawn failure,
   unpicklable payloads, a sandbox without ``fork``) raise plain
   :class:`~repro.errors.TransientError`, which the sweep planner
   (:mod:`repro.perf.planner`) converts into a serial fallback, counted
   under ``resilience.degradations`` with the reason string recorded in
   telemetry.

Each chunk runs in its worker inside fresh scopes of the counts a
worker can make (:data:`~repro.resilience.stats.RESILIENCE` and the
disk store's); the worker returns them with the chunk's results, and
the parent adds them to its own tallies, on the isolate path too.  A
killed worker's counts die with it, which is right: its chunk re-runs.

Every transition, an isolated cell's included, is one
:meth:`~repro.resilience.stats.ResilienceStats.transition` call:
counted (``resilience.retries``, ``.worker_crashes``,
``.deadline_exceeded``, ``.pool_restarts``, ``.isolated_cells``,
``.failed_cells``, ``.degradations``), recorded as a ``supervisor.*``
ledger event (which also moves the progress line's ladder) and
mirrored onto the active tracer's ``resilience/supervisor`` track, so
a chaos run leaves a full audit trail while its *output* stays
byte-identical to an undisturbed run.  Each finished chunk is recorded
as ``sweep.progress``.

Mapping failures (:class:`~repro.errors.ReproError` raised by the work
itself) propagate unchanged — the supervisor recovers infrastructure,
never papers over model errors.
"""

from __future__ import annotations

import contextlib
import contextvars
import hashlib
import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import (
    DeadlineExceeded,
    ReproError,
    TransientError,
    WorkerCrashError,
)
from repro.obs.ledger import record
from repro.resilience.stats import RESILIENCE

__all__ = ["RetryPolicy", "Supervisor", "deadline_scope", "default_policy"]

#: A caller-scoped deadline override (seconds), taking precedence over
#: ``REPRO_CHUNK_DEADLINE``.  The service runtime sets this so a job's
#: per-request deadline is *inherited* by every supervised chunk the
#: job dispatches — backpressure reaches all the way down the stack.
_DEADLINE_OVERRIDE: contextvars.ContextVar[Optional[float]] = (
    contextvars.ContextVar("repro_deadline_override", default=None)
)


@contextlib.contextmanager
def deadline_scope(seconds: Optional[float]) -> Iterator[None]:
    """Run a block with a per-chunk deadline override.

    ``None`` is a no-op (the environment default applies); ``0`` or
    negative disables deadlines for the scope.  Context-local, so
    concurrent service jobs on different worker threads each carry
    their own deadline.
    """
    if seconds is None:
        yield
        return
    token = _DEADLINE_OVERRIDE.set(float(seconds))
    try:
        yield
    finally:
        _DEADLINE_OVERRIDE.reset(token)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded-retry policy with exponential backoff and jitter.

    ``deadline`` bounds how long the supervisor waits on one chunk's
    future, measured from when it starts waiting (``None`` disables
    deadlines).  ``jitter`` is a ±fraction applied to each backoff
    delay; it is *deterministic* — a hash of the retry token and attempt
    number, not a random draw — so supervised runs remain exactly
    reproducible.
    """

    max_retries: int = 3
    backoff: float = 0.05
    multiplier: float = 2.0
    jitter: float = 0.25
    deadline: Optional[float] = 300.0

    def delay(self, attempt: int, token: str = "") -> float:
        """Backoff before retry ``attempt`` (0-based), jittered."""
        base = self.backoff * (self.multiplier ** attempt)
        digest = hashlib.sha256(f"{token}:{attempt}".encode()).digest()
        unit = int.from_bytes(digest[:4], "big") / 0xFFFFFFFF  # [0, 1]
        return max(0.0, base * (1.0 + self.jitter * (2.0 * unit - 1.0)))


def default_policy() -> RetryPolicy:
    """The policy the sweep planner's pool uses: :class:`RetryPolicy`'s
    defaults, with the per-chunk deadline from ``REPRO_CHUNK_DEADLINE``
    (seconds, ``0`` disables; the chaos harness shrinks it).  An active
    :func:`deadline_scope` (a service job's per-request deadline) takes
    precedence over the environment.
    """
    override = _DEADLINE_OVERRIDE.get()
    deadline: Optional[float] = (
        override
        if override is not None
        else float(os.environ.get("REPRO_CHUNK_DEADLINE", "300"))
    )
    if deadline is not None and deadline <= 0:
        deadline = None
    return RetryPolicy(deadline=deadline)


def _classify_infra(exc: BaseException) -> Optional[str]:
    """Reason string if ``exc`` is a pool-transport failure the serial
    path would not suffer, else ``None`` (the error should propagate).

    ``AttributeError``/``TypeError`` are included because payload
    pickling failures surface as them; a genuine work error caught by
    this net still surfaces correctly — the serial fallback re-executes
    the work and raises it there.
    """
    import pickle

    if isinstance(
        exc,
        (OSError, pickle.PicklingError, AttributeError, TypeError,
         ImportError, ValueError, RuntimeError, MemoryError),
    ):
        return f"{type(exc).__name__}: {exc}"
    return None


def _carried_counters() -> Tuple[Any, ...]:
    """The tallies a pool worker's chunk can move, in hand-back order."""
    from repro.perf.diskcache import DISK_CACHE

    return RESILIENCE, DISK_CACHE.counters


def _counted(task: Callable[[Sequence[Any]], List[Any]], chunk):
    """Worker side of one submission: ``task(chunk)`` with the worker's
    counts in fresh scopes; returns the results and those counts."""
    owners = _carried_counters()
    with contextlib.ExitStack() as stack:
        for owner in owners:
            stack.enter_context(owner.scoped())
        results = task(chunk)
        return results, [owner.tally() for owner in owners]


def _deliver(output) -> List[Any]:
    """Parent side: add a chunk's worker counts to this process's
    tallies and return its results."""
    results, tallies = output
    for owner, counts in zip(_carried_counters(), tallies):
        owner.add(counts)
    return results


class Supervisor:
    """Run chunks of work on a supervised process pool.

    ``task`` is the picklable chunk function, run in the workers under
    :func:`_counted`; ``sleep`` is injectable for tests.  One supervisor
    instance drives one sweep: :meth:`run` takes the ordered chunk list
    and returns one result list per chunk.
    """

    def __init__(
        self,
        n_jobs: int,
        policy: Optional[RetryPolicy] = None,
        *,
        task: Callable[[Sequence[Any]], List[Any]],
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self._n_jobs = max(1, int(n_jobs))
        self._policy = policy if policy is not None else default_policy()
        self._task = task
        self._sleep = sleep
        self._pool = None
        self._dispatched_at = 0.0

    # -- pool lifecycle -------------------------------------------------

    def _ensure_pool(self):
        """The live pool, leasing the process-wide persistent pool (or
        spawning, when persistence is off or the held pool is too
        narrow); raises :class:`TransientError` when the environment
        cannot host one."""
        if self._pool is None:
            from repro.perf import poold

            try:
                self._pool = poold.acquire(self._n_jobs)
            except Exception as exc:
                reason = _classify_infra(exc)
                if reason is None:
                    raise
                raise TransientError(
                    f"process pool unavailable ({reason})"
                ) from exc
        return self._pool

    def _release_pool(self) -> None:
        """Return a healthy pool at the end of a run.  A persistent
        pool stays warm for the next sweep; otherwise it shuts down."""
        pool = self._pool
        self._pool = None
        if pool is not None:
            from repro.perf import poold

            poold.release(pool)

    def _discard_pool(self, wait: bool = False) -> None:
        """Drop the current pool for good — broken transport, crashed
        or hung workers.  The shared persistent pool (if this was it)
        is retired too, so the next lease spawns fresh workers."""
        pool = self._pool
        self._pool = None
        if pool is not None:
            from repro.perf import poold

            poold.discard(pool, wait=wait)

    def _restart_pool(self) -> None:
        self._discard_pool(wait=False)
        RESILIENCE.transition("pool_restart")
        if os.environ.get("REPRO_CHAOS"):
            from repro.resilience import chaos

            # The lost chunks re-run; the store faults they met must
            # meet the re-run, whose counts are the ones that arrive.
            chaos.return_tokens(self._dispatched_at)

    @staticmethod
    def _progress(chunk: Sequence[Any]) -> None:
        """Record one finished chunk as ``sweep.progress``: its dispatch
        units, and their cells (an item without ``positions`` is one
        cell)."""
        cells = sum(len(getattr(item, "positions", (item,))) for item in chunk)
        record("sweep.progress", cells=cells, units=len(chunk))

    # -- supervised execution -------------------------------------------

    def run(self, chunks: Sequence[Sequence[Any]]) -> List[List[Any]]:
        """Evaluate every chunk, in order, surviving worker failures.

        Returns one result list per chunk.  Raises
        :class:`WorkerCrashError` / :class:`DeadlineExceeded` when a
        cell failed even in isolation (after completing every healthy
        cell), :class:`TransientError` when the pool transport itself is
        unusable (callers degrade to serial), and propagates
        :class:`ReproError` from the work unchanged.
        """
        if not chunks:
            return []
        results: Dict[int, List[Any]] = {}
        attempts: Dict[int, int] = {i: 0 for i in range(len(chunks))}
        poisoned: Dict[int, BaseException] = {}
        todo = list(range(len(chunks)))
        round_no = 0
        try:
            while todo:
                failed = self._dispatch_round(chunks, todo, results)
                todo = []
                retryable: List[int] = []
                for ci, exc in failed.items():
                    attempts[ci] += 1
                    if attempts[ci] > self._policy.max_retries:
                        poisoned[ci] = exc
                    else:
                        retryable.append(ci)
                if retryable:
                    RESILIENCE.transition(
                        "retry", len(retryable),
                        chunks=len(retryable), round=round_no,
                    )
                    self._restart_pool()
                    self._sleep(
                        self._policy.delay(round_no, token="round")
                    )
                    todo = sorted(retryable)
                    round_no += 1
                elif failed:
                    # Everything that failed is out of chunk-level
                    # retries; fall through to isolation.
                    self._restart_pool()
            if poisoned:
                self._isolate(chunks, poisoned, results)
            return [results[i] for i in range(len(chunks))]
        except BaseException:
            # Any failure that escapes the ladder may have left the
            # transport suspect — retire it rather than reuse it warm.
            self._discard_pool(wait=False)
            raise
        finally:
            self._release_pool()

    def _dispatch_round(
        self,
        chunks: Sequence[Sequence[Any]],
        todo: List[int],
        results: Dict[int, List[Any]],
    ) -> Dict[int, BaseException]:
        """Submit every chunk in ``todo`` and wait for each in order.

        Fills ``results``; returns the chunks that failed with a
        *recoverable* failure (crash or deadline).  Transport failures
        raise :class:`TransientError`; work failures propagate.
        """
        import concurrent.futures as cf
        from concurrent.futures.process import BrokenProcessPool

        pool = self._ensure_pool()
        self._dispatched_at = time.time()
        futures: Dict[int, "cf.Future"] = {}
        submit_error: Optional[BaseException] = None
        for ci in todo:
            try:
                futures[ci] = pool.submit(_counted, self._task, chunks[ci])
            except BrokenProcessPool as exc:
                submit_error = exc
                break
            except Exception as exc:
                self._cancel(futures)
                reason = _classify_infra(exc)
                if reason is None:
                    raise
                raise TransientError(
                    f"pool submit failed ({reason})"
                ) from exc

        failed: Dict[int, BaseException] = {}
        pool_broken = submit_error is not None
        if pool_broken:
            RESILIENCE.transition("worker_crash", phase="submit")
        for ci, fut in futures.items():
            if pool_broken:
                # The pool is gone; every unresolved sibling retries.
                if self._harvest(fut, ci, results):
                    self._progress(chunks[ci])
                else:
                    failed[ci] = submit_error or WorkerCrashError(
                        "worker crashed"
                    )
                continue
            try:
                results[ci] = _deliver(
                    fut.result(timeout=self._policy.deadline)
                )
                self._progress(chunks[ci])
            except cf.TimeoutError:
                RESILIENCE.transition(
                    "deadline_exceeded",
                    chunk=ci,
                    deadline=self._policy.deadline,
                )
                failed[ci] = DeadlineExceeded(
                    f"chunk {ci} exceeded its "
                    f"{self._policy.deadline:.3g}s deadline"
                )
            except BrokenProcessPool as exc:
                RESILIENCE.transition("worker_crash", chunk=ci)
                submit_error = exc
                pool_broken = True
                failed[ci] = exc
            except ReproError:
                self._cancel(futures)
                raise
            except Exception as exc:
                self._cancel(futures)
                reason = _classify_infra(exc)
                if reason is None:
                    raise
                raise TransientError(
                    f"pool execution failed ({reason})"
                ) from exc
        # Chunks that never got submitted after a mid-submit break.
        for ci in todo:
            if ci not in results and ci not in failed:
                failed[ci] = submit_error or WorkerCrashError(
                    "worker crashed before dispatch"
                )
        if pool_broken:
            # The executor fails a broken pool's futures first and then
            # terminates its workers; waiting for that teardown means no
            # worker of the old pool is still running when the lost
            # chunks are re-dispatched.
            self._discard_pool(wait=True)
        return failed

    @staticmethod
    def _harvest(fut, ci: int, results: Dict[int, List[Any]]) -> bool:
        """Salvage an already-completed future from a broken pool."""
        if fut.done() and not fut.cancelled():
            try:
                exc = fut.exception(timeout=0)
            except Exception:
                return False
            if exc is None:
                results[ci] = _deliver(fut.result(timeout=0))
                return True
        return False

    @staticmethod
    def _cancel(futures: Dict[int, Any]) -> None:
        for fut in futures.values():
            fut.cancel()

    def _isolate(
        self,
        chunks: Sequence[Sequence[Any]],
        poisoned: Dict[int, BaseException],
        results: Dict[int, List[Any]],
    ) -> None:
        """Retry each poisoned chunk cell-by-cell; healthy cells
        complete, persistently failing cells are marked and reported
        *after* every sibling has run."""
        failures: List[Tuple[int, int, int, BaseException]] = []
        for ci in sorted(poisoned):
            chunk = chunks[ci]
            RESILIENCE.transition(
                "isolate", len(chunk), chunk=ci, cells=len(chunk)
            )
            out: List[Any] = []
            for j, cell in enumerate(chunk):
                value, n_attempts, err = self._run_cell_alone(ci, j, cell)
                if err is None:
                    out.append(value)
                    self._progress([cell])
                else:
                    RESILIENCE.transition("cell_failed", chunk=ci, cell=j)
                    failures.append((ci, j, n_attempts, err))
                    out.append(None)
            results[ci] = out
        if failures:
            incident = {
                "failed_cells": [
                    {
                        "chunk": ci,
                        "cell": j,
                        "attempts": n,
                        "error": f"{type(err).__name__}: {err}",
                    }
                    for ci, j, n, err in failures
                ],
            }
            RESILIENCE.transition("incident", **incident)
            _, _, _, first = failures[0]
            cls = (
                DeadlineExceeded
                if isinstance(first, DeadlineExceeded)
                else WorkerCrashError
            )
            raise cls(
                f"{len(failures)} cell(s) failed even in isolation "
                f"(first: chunk {failures[0][0]} cell {failures[0][1]}: "
                f"{type(first).__name__}: {first})",
                incident=incident,
            )

    def _run_cell_alone(
        self, ci: int, j: int, cell: Any
    ) -> Tuple[Any, int, Optional[BaseException]]:
        """One cell on its own pool submission, with its own retry
        budget; returns ``(value, attempts, last_error)``."""
        import concurrent.futures as cf
        from concurrent.futures.process import BrokenProcessPool

        last: Optional[BaseException] = None
        for attempt in range(self._policy.max_retries + 1):
            if attempt:
                # ``chunks=1``: the progress line adds up retried chunks.
                RESILIENCE.transition("retry", chunks=1, chunk=ci, cell=j)
                self._restart_pool()
                self._sleep(
                    self._policy.delay(attempt - 1, token=f"cell{ci}.{j}")
                )
            try:
                pool = self._ensure_pool()
                self._dispatched_at = time.time()
                fut = pool.submit(_counted, self._task, [cell])
                value = _deliver(fut.result(timeout=self._policy.deadline))
                return value[0], attempt + 1, None
            except cf.TimeoutError:
                RESILIENCE.transition(
                    "deadline_exceeded",
                    chunk=ci,
                    cell=j,
                    deadline=self._policy.deadline,
                )
                last = DeadlineExceeded(
                    f"cell {j} of chunk {ci} exceeded its "
                    f"{self._policy.deadline:.3g}s deadline in isolation"
                )
            except BrokenProcessPool as exc:
                RESILIENCE.transition("worker_crash", chunk=ci, cell=j)
                last = exc
            except ReproError:
                raise
            except Exception as exc:
                reason = _classify_infra(exc)
                if reason is None:
                    raise
                raise TransientError(
                    f"pool execution failed ({reason})"
                ) from exc
        self._discard_pool(wait=False)
        return None, self._policy.max_retries + 1, last
