"""Resilient execution runtime: supervise, inject, heal, diagnose.

The perf layer (PRs 1–4) made the reproduction *fast*; this package
makes it *survivable*.  Four pieces, layered over the existing
executor and disk cache without touching modelled numbers:

* :mod:`repro.resilience.supervisor` — a :class:`Supervisor` around the
  process pool: per-chunk deadlines, bounded retries with exponential
  backoff and deterministic jitter, worker-crash isolation (a poisoned
  cell is retried alone, then marked failed without sinking its
  chunk-mates), pool resurrection after ``BrokenProcessPool``, and an
  explicit degradation ladder (parallel → fresh pool → serial) with
  every transition counted under ``resilience.*`` telemetry;
* :mod:`repro.resilience.chaos` — deterministic fault injection for the
  live runtime (``REPRO_CHAOS=<spec>`` / ``repro check --chaos``):
  worker SIGKILL, task hangs, disk I/O errors, stale locks, entry
  corruption, with the bar that report output stays byte-identical;
* disk-cache self-healing (in :mod:`repro.perf.index`): a corrupt
  entry's bytes are *quarantined* with a structured incident record and
  the key tombstoned, a torn manifest tail is truncated, stale
  interprocess locks are broken by pid+age, and ``lookup`` never
  raises on a damaged store;
* :mod:`repro.resilience.doctor` — the ``repro doctor`` health probes
  (pool spawn, store round-trip, digest sweep, lock, telemetry).

Import discipline: this ``__init__`` pulls in only the cycle-free core
(stats, supervisor).  :mod:`.chaos` and :mod:`.doctor` import the disk
cache, which itself reports into :data:`RESILIENCE` — import them as
submodules (``from repro.resilience import chaos``) at use sites.
"""

from repro.resilience.stats import RESILIENCE, ResilienceStats
from repro.resilience.supervisor import (
    RetryPolicy,
    Supervisor,
    default_policy,
)

__all__ = [
    "RESILIENCE",
    "ResilienceStats",
    "RetryPolicy",
    "Supervisor",
    "default_policy",
]
