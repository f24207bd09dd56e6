"""Runtime chaos harness: deterministic fault injection mid-sweep.

``repro check --inject`` proves the *oracles* can see corruption; this
module proves the *runtime* can survive it.  Activated by the
``REPRO_CHAOS`` environment variable (or ``repro check --chaos``), it
injects a budgeted number of real failures into a live sweep — worker
SIGKILL, task hangs, disk I/O errors, cache-entry corruption — and the
acceptance bar is strict: the sweep completes and its report output is
**byte-identical** to an undisturbed run, with the recoveries visible
only in the ``resilience.*`` telemetry.

Spec grammar (comma-separated ``name=value`` tokens)::

    REPRO_CHAOS="kill=1,disk=1"            # one worker kill, one read error
    REPRO_CHAOS="hang=1,hang_s=2.5"        # one 2.5 s task hang
    REPRO_CHAOS="corrupt=1"                # one bit-flipped entry
    REPRO_CHAOS="kill=1,service=0"         # skip the service scenarios

Faults (each value is an *injection budget* for the whole sweep):

``kill``
    A pool worker SIGKILLs itself at the start of a chunk; the
    supervisor sees ``BrokenProcessPool``, resurrects the pool, and
    retries the lost chunks.
``hang``
    A worker sleeps ``hang_s`` seconds (parameter, default 2.0) at the
    start of a chunk; with ``REPRO_CHUNK_DEADLINE`` below ``hang_s``
    this exercises the deadline/retry path, otherwise it is pure delay.
``disk``
    One disk-cache read attempt raises ``OSError``.  The cache retries
    a failed read once, so ``disk=1`` is a *transient* error (healed by
    the retry) while ``disk=2`` can make both attempts of one read fail
    (*persistent* for that lookup, degrading to a recomputed miss).
``corrupt``
    A just-published cache entry has one payload byte flipped on disk
    (digest left stale); the next reader must quarantine it and
    recompute.

``repro check --chaos`` additionally runs the *service* scenario
battery (:mod:`repro.resilience.servicechaos`) — SIGKILL'd servers,
torn journals, vanished clients — unless the spec carries
``service=0``.  Every failing chaos row embeds the exact replay command
(spec included), so a red CI check is one paste away from a local
reproduction.

Determinism comes from *budget tokens*, not randomness: each potential
injection site claims a token file (``O_CREAT|O_EXCL``, atomic across
processes) from the shared state directory — the first ``N`` sites to
reach a fault fire, every later site is a no-op.  The state directory
defaults to ``<disk-cache root>/.chaos`` so pool workers (which inherit
the environment) share the budget with their parent; ``dir=`` in the
spec overrides it.
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import time
from pathlib import Path
from typing import Dict, Mapping, Optional

from repro.errors import ConfigError

__all__ = [
    "FAULTS",
    "ChaosSpec",
    "parse_spec",
    "active_spec",
    "claim",
    "reset_tokens",
    "return_tokens",
    "tokens_claimed",
    "on_worker_chunk",
    "on_disk_read",
    "on_disk_insert",
    "run_chaos_check",
]

#: Recognised fault names (values are injection budgets).
FAULTS = ("kill", "hang", "disk", "corrupt")

#: The faults that land on the shared disk store, recovered (and
#: counted) by the process that meets them.
STORE_FAULTS = ("disk", "corrupt")

#: Recognised parameter names (values are floats/strings).
PARAMS = ("hang_s", "dir", "service")

#: The spec ``repro check --chaos`` uses when none is given — matches
#: the acceptance scenario: one worker kill plus one transient disk
#: error per sweep.
DEFAULT_SPEC = "kill=1,disk=1"


@dataclasses.dataclass(frozen=True)
class ChaosSpec:
    """A parsed chaos specification: fault budgets plus parameters."""

    counts: Mapping[str, int]
    hang_s: float = 2.0
    state_dir: Optional[str] = None
    service: int = 1

    def budget(self, fault: str) -> int:
        return int(self.counts.get(fault, 0))

    def describe(self) -> str:
        parts = [
            f"{name}={self.counts[name]}"
            for name in FAULTS
            if self.counts.get(name)
        ]
        return ",".join(parts) or "(empty)"


def parse_spec(text: str) -> ChaosSpec:
    """Parse a ``REPRO_CHAOS`` spec string; raises
    :class:`~repro.errors.ConfigError` on malformed input."""
    counts: Dict[str, int] = {}
    hang_s = 2.0
    state_dir: Optional[str] = None
    service = 1
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        name, sep, value = token.partition("=")
        name = name.strip()
        if not sep:
            raise ConfigError(
                f"chaos spec token {token!r} must look like name=value"
            )
        if name in FAULTS:
            try:
                counts[name] = counts.get(name, 0) + int(value)
            except ValueError:
                raise ConfigError(
                    f"chaos fault {name!r} needs an integer budget, "
                    f"got {value!r}"
                ) from None
        elif name == "hang_s":
            try:
                hang_s = float(value)
            except ValueError:
                raise ConfigError(
                    f"chaos parameter hang_s needs a float, got {value!r}"
                ) from None
        elif name == "dir":
            state_dir = value
        elif name == "service":
            try:
                service = int(value)
            except ValueError:
                raise ConfigError(
                    f"chaos parameter service needs 0 or 1, got {value!r}"
                ) from None
        else:
            raise ConfigError(
                f"unknown chaos fault {name!r}; expected one of "
                f"{FAULTS + PARAMS}"
            )
    if any(n < 0 for n in counts.values()):
        raise ConfigError("chaos budgets must be >= 0")
    return ChaosSpec(
        counts=counts, hang_s=hang_s, state_dir=state_dir, service=service
    )


#: Parse cache keyed by the raw spec text (hot-path hooks re-read the
#: environment on every call; parsing must not be the cost).
_PARSED: Dict[str, ChaosSpec] = {}


def active_spec() -> Optional[ChaosSpec]:
    """The spec from ``REPRO_CHAOS``, or ``None`` when chaos is off."""
    text = os.environ.get("REPRO_CHAOS")
    if not text:
        return None
    spec = _PARSED.get(text)
    if spec is None:
        spec = parse_spec(text)
        _PARSED[text] = spec
    return spec


def state_dir(spec: ChaosSpec) -> Path:
    """The token directory shared by every process of the sweep."""
    if spec.state_dir:
        return Path(spec.state_dir)
    from repro.perf.diskcache import DISK_CACHE

    return DISK_CACHE.root() / ".chaos"


def claim(fault: str, spec: Optional[ChaosSpec] = None) -> bool:
    """Atomically claim one injection token for ``fault``.

    Returns ``True`` when this call should inject (a token was free);
    once the fault's budget is exhausted every later call returns
    ``False`` — in this process or any sibling sharing the state dir.
    """
    if spec is None:
        spec = active_spec()
    if spec is None:
        return False
    budget = spec.budget(fault)
    if budget <= 0:
        return False
    directory = state_dir(spec)
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError:
        return False
    for i in range(budget):
        token = directory / f"{fault}-{i}.token"
        try:
            fd = os.open(str(token), os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            continue
        except OSError:
            return False
        with os.fdopen(fd, "w") as fh:
            fh.write(f'{{"pid": {os.getpid()}, "time": {time.time()}}}\n')
        return True
    return False


def return_tokens(since: float) -> None:
    """Return to the budget the store-fault tokens (``disk``,
    ``corrupt``) other processes claimed at or after ``since``.

    The supervisor calls this after a pool crash, before the lost
    chunks re-run.  A chunk that was still running when a sibling
    worker died is lost with the pool, and its counts with it; the
    re-run is what the parent counts, so it must meet the fault too.
    A chunk of the same round that had already delivered may meet the
    fault a second time, which every chaos assertion allows.
    """
    spec = active_spec()
    if spec is None:
        return
    directory = state_dir(spec)
    for fault in STORE_FAULTS:
        for token in directory.glob(f"{fault}-*.token"):
            try:
                holder = json.loads(token.read_text())
                kept = holder["pid"] == os.getpid() or holder["time"] < since
            except OSError:
                continue
            except (ValueError, KeyError, TypeError):
                kept = False  # its claimer was killed mid-claim
            if not kept:
                token.unlink(missing_ok=True)


def reset_tokens(spec: ChaosSpec) -> None:
    """Return every token to the budget (start of a fresh chaos run)."""
    directory = state_dir(spec)
    if directory.is_dir():
        for token in directory.glob("*.token"):
            try:
                token.unlink()
            except OSError:
                pass


def tokens_claimed(spec: ChaosSpec) -> Dict[str, int]:
    """How many tokens of each fault have fired so far."""
    directory = state_dir(spec)
    out = {fault: 0 for fault in FAULTS}
    if directory.is_dir():
        for token in directory.glob("*.token"):
            fault = token.name.rsplit("-", 1)[0]
            if fault in out:
                out[fault] += 1
    return out


def _note(name: str, fault: str = "") -> None:
    from repro.resilience.stats import RESILIENCE

    RESILIENCE.note(name)
    if fault:
        # Mirror the injection into the flight recorder.  Worker
        # processes have no recorder installed, so only parent-side
        # injections appear in the session ledger; a worker's count
        # reaches the parent with its chunk's results.
        from repro.obs.ledger import record

        record("chaos.injection", fault=fault)


# -- injection hooks --------------------------------------------------
#
# Each hook is called from an instrumentation site and is a no-op
# unless REPRO_CHAOS is set *and* the matching budget has a free token.


def on_worker_chunk() -> None:
    """Worker-side hook at the start of every chunk: may SIGKILL the
    worker or hang the task, per the active spec."""
    spec = active_spec()
    if spec is None:
        return
    if claim("kill", spec):
        os.kill(os.getpid(), signal.SIGKILL)
    if claim("hang", spec):
        _note("chaos_injections", fault="hang")
        time.sleep(spec.hang_s)


def on_disk_read(path: os.PathLike) -> None:
    """Disk-cache read hook: may raise an injected ``OSError``."""
    if claim("disk"):
        _note("chaos_injections", fault="disk")
        raise OSError(f"chaos: injected disk read error for {path}")


def on_disk_insert(store, key: str) -> None:
    """Disk-cache publish hook: may flip the last payload byte of the
    entry ``key`` just written to ``store`` (a
    :class:`~repro.perf.index.PackedDiskCache`), digest left stale — the
    read path must quarantine it."""
    if claim("corrupt"):
        _note("chaos_injections", fault="corrupt")
        store.corrupt_bytes(key)


# -- the chaos convergence check --------------------------------------


def run_chaos_check(
    spec_text: Optional[str] = None,
    jobs: int = 2,
    fast: bool = True,
):
    """Run the full report twice — undisturbed, then under chaos — and
    assert the supervised runtime converged.

    Returns a :class:`~repro.check.report.CheckReport` with one row per
    assertion: the chaotic report must be byte-identical to the clean
    one, injected faults must actually have fired, recoveries must show
    in ``resilience.*`` telemetry, and the runtime must not have
    degraded to serial.  Both runs use an ephemeral disk-cache root so
    the user's store is never touched.  A spec with a ``disk`` or
    ``corrupt`` budget adds a third, serial report replayed from the
    chaotic store (still under chaos for ``disk``, whose read error
    only a payload read can meet), which must match too.

    The reports are generated with ``validate=False``: the subject here
    is the *runtime* (supervisor, cache tiers, locks), and the rendered
    experiment sections are the convergence bar.  Running the embedded
    fast-tier validation mid-chaos would — correctly — flag an injected
    ``corrupt`` entry that no reader has healed yet, turning detection
    into divergence; proving the *oracles* see corruption is ``repro
    check --inject``'s job.
    """
    import tempfile

    from repro.check.report import FAIL, PASS, WARN, CheckReport
    from repro.eval.report import full_report
    from repro.perf.cache import RUN_CACHE
    from repro.resilience.stats import RESILIENCE

    spec_text = spec_text or DEFAULT_SPEC
    spec = parse_spec(spec_text)
    from repro.obs.ledger import record as ledger_record

    ledger_record("chaos.check", spec=spec_text, jobs=int(jobs))
    report = CheckReport(tier="chaos")
    workloads = None
    if fast:
        from repro.kernels.workloads import (
            small_beam_steering,
            small_corner_turn,
            small_cslc,
        )

        workloads = {
            "corner_turn": small_corner_turn(),
            "cslc": small_cslc(),
            "beam_steering": small_beam_steering(),
        }

    saved = {
        name: os.environ.get(name)
        for name in (
            "REPRO_CHAOS", "REPRO_DISK_CACHE_DIR", "REPRO_CHUNK_DEADLINE",
        )
    }
    os.environ.pop("REPRO_CHAOS", None)
    reread = None
    try:
        with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
            os.environ["REPRO_DISK_CACHE_DIR"] = tmp
            RUN_CACHE.clear()
            baseline = full_report(
                workloads=workloads, jobs=1, validate=False
            )

            # Fresh tiers so the chaotic run re-dispatches everything.
            RUN_CACHE.clear()
            os.environ["REPRO_DISK_CACHE_DIR"] = os.path.join(tmp, "chaos")
            if spec.budget("hang") and saved["REPRO_CHUNK_DEADLINE"] is None:
                # Make hangs observable: deadline below the hang time.
                os.environ["REPRO_CHUNK_DEADLINE"] = str(
                    max(0.5, spec.hang_s / 4.0)
                )
            reset_tokens(spec)
            RESILIENCE.reset()
            os.environ["REPRO_CHAOS"] = spec_text
            chaotic = full_report(
                workloads=workloads, jobs=max(2, jobs), validate=False
            )
            if spec.budget("disk") or spec.budget("corrupt"):
                # Replay the report from the chaotic store and require
                # it to still match.  The chaotic run starts from an
                # empty store and answers repeats from memory, so no
                # payload is read there: this replay is the first read.
                # Under ``disk`` it runs still armed, so the injected
                # read error meets the retry; under ``corrupt`` the
                # reader must quarantine the damaged entry and
                # recompute.
                if not spec.budget("disk"):
                    os.environ.pop("REPRO_CHAOS", None)
                RUN_CACHE.clear()
                reread = full_report(
                    workloads=workloads, jobs=1, validate=False
                )
            os.environ.pop("REPRO_CHAOS", None)

            snap = RESILIENCE.snapshot()
            claimed = tokens_claimed(spec)
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
        RUN_CACHE.clear()

    if reread is not None and reread != baseline:
        report.add(
            "chaos.report.reread-identical", FAIL,
            "replay from the damaged store diverged from the clean run",
        )
    elif reread is not None:
        report.add("chaos.report.reread-identical", PASS)

    if chaotic == baseline:
        report.add(
            "chaos.report.identical", PASS,
            f"byte-identical under {spec.describe()}",
        )
    else:
        import difflib

        diff = "".join(
            difflib.unified_diff(
                baseline.splitlines(keepends=True)[:2000],
                chaotic.splitlines(keepends=True)[:2000],
                fromfile="clean", tofile="chaos",
            )
        )
        report.add(
            "chaos.report.identical", FAIL,
            "chaotic report diverged from clean run: "
            + " | ".join(diff.splitlines()[:8]),
        )

    requested = {f: spec.budget(f) for f in FAULTS if spec.budget(f)}
    unfired = {
        f: n - claimed.get(f, 0)
        for f, n in requested.items()
        if claimed.get(f, 0) < n
    }
    if not requested:
        report.add("chaos.injections.fired", WARN, "empty chaos spec")
    elif unfired:
        report.add(
            "chaos.injections.fired", WARN,
            "budget not exhausted (site never reached): "
            + ", ".join(f"{f} {n} left" for f, n in unfired.items()),
        )
    else:
        report.add("chaos.injections.fired", PASS)

    if spec.budget("kill") or spec.budget("hang"):
        recovered = int(snap.get("retries", 0)) >= 1
        report.add(
            "chaos.supervisor.recovered",
            PASS if recovered else FAIL,
            f"resilience.retries={snap.get('retries', 0)}"
            + ("" if recovered else " — expected >= 1 under kill/hang"),
        )
    report.add(
        "chaos.supervisor.no-degradation",
        PASS if int(snap.get("degradations", 0)) == 0 else FAIL,
        f"resilience.degradations={snap.get('degradations', 0)}"
        + (
            f" (last: {snap.get('last_degradation_reason', '')})"
            if int(snap.get("degradations", 0)) else ""
        ),
    )
    if spec.budget("corrupt"):
        quarantined = int(snap.get("quarantined", 0))
        report.add(
            "chaos.diskcache.self-healed",
            PASS if quarantined >= 1 else FAIL,
            f"resilience.quarantined={quarantined}"
            + ("" if quarantined else " — corrupt entry never quarantined"),
        )
    if spec.budget("disk"):
        retried = int(snap.get("io_retries", 0))
        report.add(
            "chaos.diskcache.read-retried",
            PASS if retried >= 1 else FAIL,
            f"resilience.io_retries={retried}"
            + ("" if retried else " — injected read error never retried"),
        )

    if spec.service:
        # The service scenarios run real server subprocesses (SIGKILL
        # mid-job, torn journal, vanished client, corrupted cache entry)
        # against temp state roots; ``service=0`` in the spec skips them.
        from repro.resilience.servicechaos import service_chaos_checks

        report.extend(service_chaos_checks(fast=fast))

    _embed_replay_command(report, spec_text, fast)
    return report


def _embed_replay_command(report, spec_text: str, fast: bool) -> None:
    """Suffix every failure with the one command that replays it.

    The chaos run's determinism token is the spec itself (budget tokens,
    not RNG), so embedding the active spec in each failure detail makes
    any red row locally reproducible without spelunking CI environment
    variables.
    """
    from repro.check.report import FAIL, CheckResult

    command = f"python -m repro check --chaos '{spec_text}'" + (
        "" if fast else " --full"
    )
    for n, result in enumerate(report.results):
        if result.status != FAIL or "replay:" in result.detail:
            continue
        detail = (result.detail + " | " if result.detail else "")
        report.results[n] = CheckResult(
            result.name, result.status, detail + f"replay: {command}"
        )
