"""The benchmark's four workloads.

Each workload is a loop of *rounds*.  A round creates fresh state under
the run's work directory (disk store, obs ledger, service journal,
temp files), times its set-up, runs a batch of ops against it in fresh
processes, and checks every output.  Rounds repeat until the run's time
budget is spent, so set-up is timed several times per run and the state
a round measures never depends on how many rounds came before.

===========  ======================================================
report-cold  ``repro report`` against an empty store (1 op/round)
report-warm  ``repro report`` against a store one cold report filled
             during set-up (3 rounds, each as many ops as fit its
             third of the run)
sweep-dense  ``repro sensitivity --points 8 --delta D`` against an
             empty store; D is drawn from the seed (1 op/round)
serve-jobs   50 distinct seeded jobs, 5 of them posted twice, against
             ``repro serve --workers 1`` from one closed-loop client
             (55 ops/round)
===========  ======================================================
"""

from __future__ import annotations

import contextlib
import csv
import http.client
import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

import layers

BENCH_DIR = Path(__file__).resolve().parent
TRACER = BENCH_DIR / "tracer.py"

KERNELS = ("corner_turn", "cslc", "beam_steering")
MACHINES = ("ppc", "altivec", "viram", "imagine", "raw")

#: Rounds of a ``report-warm`` run: three fills give ``setup_s`` a
#: median, and each is a cold report of 2.6-5 s, so more rounds would
#: leave less of the run to warm ops.
WARM_ROUNDS = 3
#: Units of 25 distinct service jobs in one round (see :func:`job_mix`),
#: full run and ``--smoke``.
SERVE_UNITS = (2, 1)
POLL_S = 0.005
#: Longest any single child may run before it is killed.
CHILD_TIMEOUT_S = 150.0


class BenchError(RuntimeError):
    """The benchmark itself cannot run (missing sources, dead server)."""


# -- seeded inputs ---------------------------------------------------------


def sweep_delta(seed: int) -> float:
    """The sweep's perturbation magnitude, in [0.15, 0.35]."""
    rng = random.Random(f"sweep-dense:{seed}")
    return round(0.15 + rng.randrange(2001) / 10000, 4)


#: Share of the distinct jobs that are posted a second time.
REPEAT_SHARE = 0.1


def job_mix(seed: int, units: int) -> List[Dict[str, Any]]:
    """One serve round's jobs, in order.

    The mix is synthetic: the repository holds no record of how the
    service is used.  Each unit of 25 distinct jobs covers the program
    once per job kind that works on kernels: a ``run`` of every kernel x
    machine pair (share 15/25), five ``sweep`` jobs of three cells that
    together cover every pair (5/25), and a ``pipeline`` on every
    machine (5/25).  ``report`` jobs are left to the report workloads.
    A tenth of the distinct jobs is posted a second time at a later
    point, as ``scripts/serve_smoke.py`` posts its job twice: 1 request
    in 11 is an exact repeat and takes the service's dedup path.  A
    deduplicated request answers in about 2 ms, faster than any distinct
    job, so the repeats stay few enough that the median falls among the
    distinct jobs.

    The seed draws the functional seeds (1..10^6), the data each job
    simulates; they make every job distinct, so no two jobs share work
    except a job and its repeat.  The order, the sweeps' groups of cells
    and which jobs repeat are one fixed draw for every seed: the server's
    peak memory depends on which job runs when, and varied by 6-12%
    across seeds when the seed drew them too.  Every round of a run
    posts the same list."""
    rng = random.Random(f"serve:{seed}")
    layout = random.Random("serve-layout")
    pairs = [(k, m) for k in KERNELS for m in MACHINES]

    def cell(kernel: str, machine: str) -> Dict[str, Any]:
        return {"kernel": kernel, "machine": machine,
                "seed": rng.randint(1, 10**6)}

    jobs: List[Dict[str, Any]] = []
    for _ in range(units):
        jobs += [{"kind": "run", "params": cell(*pair)} for pair in pairs]
        deck = layout.sample(pairs, len(pairs))
        jobs += [{"kind": "sweep",
                  "params": {"cells": [cell(*pair) for pair in deck[i:i + 3]]}}
                 for i in range(0, len(deck), 3)]
        jobs += [{"kind": "pipeline",
                  "params": {"machine": machine,
                             "seed": rng.randint(1, 10**6)}}
                 for machine in MACHINES]
    # After the shuffle, a job's first post is the original and its
    # second the repeat.
    repeats = max(1, round(len(jobs) * REPEAT_SHARE))
    jobs += [dict(job) for job in layout.sample(jobs, repeats)]
    layout.shuffle(jobs)
    return jobs


def job_key(job: Dict[str, Any]) -> str:
    return json.dumps(job, sort_keys=True)


# -- run context and per-round state ---------------------------------------


@dataclass
class Context:
    """One benchmark run: where the checkout is, the seed and budget."""

    root: Path
    work: Path
    seed: int
    seconds: float
    trace: bool = False
    smoke: bool = False

    def golden(self, name: str) -> Path:
        return self.root / "tests" / "data" / "golden" / name


@dataclass
class State:
    """Fresh program state for one round."""

    dir: Path

    @property
    def cache(self) -> Path:
        return self.dir / "cache"

    @property
    def obs(self) -> Path:
        return self.dir / "obs"

    @property
    def service(self) -> Path:
        return self.dir / "service"

    def create(self) -> None:
        for sub in (self.cache, self.obs, self.service, self.dir / "tmp"):
            sub.mkdir(parents=True)

    def env(self, root: Path) -> Dict[str, str]:
        # Inherited REPRO_* settings (chaos, cache switches) would change
        # what is measured, so none pass through.
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        src = str(root / "src")
        env["PYTHONPATH"] = (
            src + os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH") else src
        )
        env.update(
            REPRO_DISK_CACHE_DIR=str(self.cache),
            REPRO_OBS_DIR=str(self.obs),
            REPRO_SERVICE_DIR=str(self.service),
            TMPDIR=str(self.dir / "tmp"),
        )
        return env

    def store_mb(self) -> float:
        total = 0
        for base, _dirs, files in os.walk(self.cache):
            for name in files:
                try:
                    total += os.lstat(os.path.join(base, name)).st_size
                except OSError:
                    pass
        return total / 1e6

    def last_telemetry(self) -> Dict[str, Any]:
        """Counters of the newest session in the program's metrics
        history (one record per successful CLI session)."""
        try:
            lines = (self.obs / "history.jsonl").read_bytes().splitlines()
            return json.loads(lines[-1]).get("telemetry", {})
        except (OSError, IndexError, ValueError):
            return {}

    def remove(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


# -- child processes -------------------------------------------------------


@dataclass
class Child:
    """A finished program process."""

    code: int
    wall: float
    rss_mb: float
    stdout: bytes
    stderr: bytes
    t_launch: float
    t_end: float
    spans: Optional[Dict[str, Any]] = None


class Launch:
    """A running program process: ``python -m repro ARGS``, or the same
    under :mod:`tracer` when ``spans`` names a file to write spans to."""

    def __init__(self, ctx: Context, state: State, args: List[str],
                 name: str, spans: Optional[str] = None,
                 op: str = "") -> None:
        self.out = state.dir / f"{name}.out"
        self.err = state.dir / f"{name}.err"
        self.spans = spans
        if spans is None:
            cmd = [sys.executable, "-m", "repro", *args]
        else:
            cmd = [sys.executable, str(TRACER), spans, op, *args]
        env = state.env(ctx.root)
        with open(self.out, "wb") as out, open(self.err, "wb") as err:
            self.t_launch = time.perf_counter()
            self.proc = subprocess.Popen(
                cmd, stdout=out, stderr=err, cwd=state.dir, env=env,
            )

    def signal(self, signum: int) -> None:
        if self.proc.returncode is None:
            self.proc.send_signal(signum)

    def wait(self, timeout: float = CHILD_TIMEOUT_S) -> Child:
        """Reap the process with its resource usage (``wait4``), killing
        it after ``timeout`` seconds."""
        killer = threading.Timer(timeout, self.proc.kill)
        killer.start()
        try:
            _pid, status, usage = os.wait4(self.proc.pid, 0)
        finally:
            killer.cancel()
        t_end = time.perf_counter()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        spans = None
        if self.spans is not None:
            try:
                spans = json.loads(Path(self.spans).read_text())
            except (OSError, ValueError):
                spans = None
        return Child(
            code=self.proc.returncode,
            wall=t_end - self.t_launch,
            rss_mb=usage.ru_maxrss / 1024,  # Linux reports KiB
            stdout=self.out.read_bytes(),
            stderr=self.err.read_bytes(),
            t_launch=self.t_launch,
            t_end=t_end,
            spans=spans,
        )

    def kill(self) -> None:
        """Stop the process if it still runs (error paths)."""
        if self.proc.returncode is None:
            self.proc.kill()
            try:
                self.wait(timeout=30)
            except ChildProcessError:
                pass


def run_cli(ctx: Context, state: State, args: List[str], name: str,
            traced: bool = False, op: str = "") -> Child:
    spans = str(state.dir / f"{name}.spans.json") if traced else None
    launch = Launch(ctx, state, args, name, spans=spans, op=op)
    try:
        return launch.wait()
    finally:
        launch.kill()


# -- ops and rounds --------------------------------------------------------


@dataclass
class Op:
    """One measured operation."""

    wall: float
    ok: bool
    traced: bool = False
    key: str = ""  # identifies the output, for checks made after the run


@dataclass
class Round:
    setup_s: float
    ops: List[Op] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    store_mb: float = 0.0


@dataclass
class Outcome:
    """Everything a workload run produced."""

    rounds: List[Round]
    #: Model/paper ratios stated by, or computed from, verified outputs.
    paper_ratios: List[float]
    problems: List[str]


def golden_table3(ctx: Context) -> Dict[Tuple[str, str], Dict[str, str]]:
    with open(ctx.golden("table3.csv"), newline="") as fh:
        return {(r["kernel"], r["machine"]): r for r in csv.DictReader(fh)}


#: The ratio column of a report's ``checks (model vs paper)`` lines.
_CHECK_RATIO = re.compile(rb"^  \S+ +model= .* ratio= *([0-9.]+)x$", re.M)


def table3_ratios(report: bytes) -> List[float]:
    """Model/paper ratios the report states for Table 3's cycle counts.
    Other sections also check model numbers against bounds written as
    ``paper=1``, which are not the paper's measurements."""
    section = report.split(b"\n== Table 3:", 1)[-1].split(b"\n== ", 1)[0]
    return [float(r) for r in _CHECK_RATIO.findall(section)]


def _clear_store(ctx: Context, state: State) -> float:
    """Set-up shared by the empty-store workloads: fresh state plus a
    fresh-process ``repro cache clear`` against it."""
    t0 = time.perf_counter()
    state.create()
    child = run_cli(ctx, state, ["cache", "clear"], "setup")
    if child.code != 0:
        raise BenchError(
            f"`repro cache clear` exited {child.code}: "
            f"{child.stderr.decode(errors='replace')[-400:]}"
        )
    return time.perf_counter() - t0


class Workload:
    name = ""
    why = ""
    #: Percentile reported as ``op_p95_s``.  A run of a single-command
    #: workload holds 4-38 ops, too few for any percentile above the
    #: median to have ten samples beyond it, so those report the median
    #: and mark ``op_p95_s`` as a copy of ``op_p50_s``.
    tail_pct = 50

    def run(self, ctx: Context) -> Outcome:
        self.start(ctx)
        rounds: List[Round] = []
        self.t_start = time.perf_counter()
        while True:
            state = State(ctx.work / f"{self.name}-{len(rounds)}")
            try:
                rounds.append(self.round(ctx, state, len(rounds)))
            finally:
                state.remove()
            if ctx.smoke or not self.more(ctx, rounds):
                break
        outcome = Outcome(rounds=rounds, paper_ratios=[], problems=[])
        self.verify(ctx, outcome)
        return outcome

    def more(self, ctx: Context, rounds: List[Round]) -> bool:
        """Whether another round of the average length fits the budget."""
        spent = time.perf_counter() - self.t_start
        return spent + spent / len(rounds) <= ctx.seconds

    def start(self, ctx: Context) -> None:
        self.layers = layers.LayerTotals() if ctx.trace else None
        self.span_docs: List[Dict[str, Any]] = []

    def round(self, ctx: Context, state: State, index: int) -> Round:
        raise NotImplementedError

    def verify(self, ctx: Context, outcome: Outcome) -> None:
        """Checks made once per run, outside every timing."""

    def traced_cli(self, ctx, state, args, name, traced, op) -> Child:
        child = run_cli(ctx, state, args, name, traced=traced, op=op)
        if traced:
            self.layers.add_cli_op(child, state.last_telemetry())
            self.span_docs.append(child.spans or {})
        return child


class ReportCold(Workload):
    name = "report-cold"
    why = ("fresh-process report on an empty store: mapping simulation "
           "dominates and the disk index is only written. Too few ops for "
           "a tail: op_p95_s is a copy of op_p50_s")

    def start(self, ctx: Context) -> None:
        super().start(ctx)
        self.golden = ctx.golden("report.txt").read_bytes()
        self.output: Optional[bytes] = None

    def report_op(self, ctx: Context, state: State, name: str,
                  traced: bool, op: str) -> Tuple[Child, bool]:
        """One ``repro report``, and whether it printed the golden bytes."""
        child = self.traced_cli(ctx, state, ["report"], name, traced, op)
        ok = child.code == 0 and child.stdout == self.golden
        if ok:
            self.output = child.stdout
        return child, ok

    def round(self, ctx: Context, state: State, index: int) -> Round:
        rnd = Round(setup_s=_clear_store(ctx, state))
        traced = ctx.trace and index % 2 == 0
        child, ok = self.report_op(ctx, state, "op", traced,
                                   f"{self.name}-{index}")
        rnd.ops.append(Op(child.wall, ok, traced))
        rnd.peak_rss_mb = child.rss_mb
        rnd.store_mb = state.store_mb()
        return rnd

    def verify(self, ctx: Context, outcome: Outcome) -> None:
        """The paper error is the one the verified report states."""
        if self.output is not None:
            outcome.paper_ratios = table3_ratios(self.output)


class ReportWarm(ReportCold):
    name = "report-warm"
    why = ("the same report against a store filled during set-up: "
           "imports, index reads and the validation section dominate. "
           "op_p95_s is a copy of op_p50_s")

    def more(self, ctx: Context, rounds: List[Round]) -> bool:
        return len(rounds) < WARM_ROUNDS

    def round(self, ctx: Context, state: State, index: int) -> Round:
        # Each round owns an equal share of the run: its fill, then warm
        # ops until the share is spent.
        end = self.t_start + ctx.seconds * (index + 1) / WARM_ROUNDS
        t0 = time.perf_counter()
        state.create()
        fill = run_cli(ctx, state, ["report"], "fill")
        rnd = Round(setup_s=time.perf_counter() - t0)
        if fill.code != 0 or fill.stdout != self.golden:
            rnd.ops.append(Op(fill.wall, False))
            return rnd
        n = 0
        while True:
            traced = ctx.trace and n % 2 == 0
            child, ok = self.report_op(ctx, state, f"op{n}", traced,
                                       f"{self.name}-{index}-{n}")
            rnd.ops.append(Op(child.wall, ok, traced))
            rnd.peak_rss_mb = max(rnd.peak_rss_mb, child.rss_mb)
            n += 1
            if ctx.smoke or time.perf_counter() + child.wall > end:
                break
        rnd.store_mb = state.store_mb()
        return rnd


class SweepDense(Workload):
    name = "sweep-dense"
    why = ("dense sensitivity grid on an empty store: every cell is "
           "batched and the store outgrows its cap, so writes and prunes "
           "dominate. op_p95_s is a copy of op_p50_s")
    points = 8

    def start(self, ctx: Context) -> None:
        super().start(ctx)
        self.delta = sweep_delta(ctx.seed)
        self.reference: Optional[bytes] = None

    def round(self, ctx: Context, state: State, index: int) -> Round:
        rnd = Round(setup_s=_clear_store(ctx, state))
        traced = ctx.trace and index % 2 == 0
        args = ["sensitivity", "--points", str(self.points),
                "--delta", repr(self.delta)]
        child = self.traced_cli(ctx, state, args, "op", traced,
                                f"{self.name}-{index}")
        if child.code == 0 and self.reference is None:
            self.reference = child.stdout
        rnd.ops.append(Op(child.wall, child.code == 0
                          and child.stdout == self.reference, traced,
                          key="stdout"))
        rnd.peak_rss_mb = child.rss_mb
        rnd.store_mb = state.store_mb()
        return rnd

    def verify(self, ctx: Context, outcome: Outcome) -> None:
        """Recompute the sweep in this process with both cache tiers off and
        require the CLI's stdout; hold each row's baseline to the golden
        Table 3 and re-run three seeded rows' perturbed cells uncached."""
        if self.reference is None:
            return
        with in_process(ctx):
            from repro.eval import sensitivity
            from repro.mappings.registry import run

            rows = sensitivity.sweep(delta=self.delta, points=self.points)
            problems = []
            if (sensitivity.render(rows) + "\n").encode() != self.reference:
                problems.append("sweep stdout differs from an in-process "
                                "recomputation with both cache tiers off")
            golden = golden_table3(ctx)
            baselines = {}
            for row in rows:
                cell = (row.kernel, row.cell_machine)
                baselines[cell] = row.baseline_cycles
                if row.baseline_cycles != float(golden[cell]["cycles"]):
                    problems.append(f"baseline of {cell} is "
                                    f"{row.baseline_cycles}, golden "
                                    f"{golden[cell]['cycles']}")
            rng = random.Random(f"sweep-check:{ctx.seed}")
            for row in rng.sample(rows, 3):
                for factor, cycles in ((1 + row.delta, row.up_cycles),
                                       (1 - row.delta, row.down_cycles)):
                    cal = sensitivity.perturbed_calibration(
                        row.machine, row.constant, factor)
                    again = run(row.kernel, row.cell_machine,
                                calibration=cal, cache=False).cycles
                    if again != cycles:
                        problems.append(
                            f"{row.machine}.{row.constant} on "
                            f"{row.kernel}/{row.cell_machine} x{factor}: "
                            f"{again} uncached vs {cycles} in the sweep")
        if problems:
            outcome.problems.extend(problems)
            _fail_key(outcome, "stdout")
        else:
            # The rows rendered the sweep's stdout byte for byte, so
            # their baselines are the ones the sweep printed.
            outcome.paper_ratios = [
                cycles / 1000 / float(golden[cell]["paper_kilocycles"])
                for cell, cycles in baselines.items()
            ]


class ServeJobs(Workload):
    name = "serve-jobs"
    why = ("synthetic mix over HTTP: each 25 jobs run every kernel x "
           "machine pair, sweep every pair in 3-cell jobs and pipeline "
           "every machine; 1 request in 11 repeats one (dedup path)")
    tail_pct = 95

    def start(self, ctx: Context) -> None:
        super().start(ctx)
        self.results: Dict[str, bytes] = {}
        self.jobs = job_mix(ctx.seed, SERVE_UNITS[ctx.smoke])
        self.poll_phase = random.Random(f"serve-poll:{ctx.seed}")

    def round(self, ctx: Context, state: State, index: int) -> Round:
        jobs = self.jobs
        traced = ctx.trace and index % 2 == 0
        t0 = time.perf_counter()
        state.create()
        ready = state.dir / "ready.json"
        spans = str(state.dir / "server.spans.json") if traced else None
        server = Launch(
            ctx, state,
            ["serve", "--port", "0", "--workers", "1",
             "--ready-file", str(ready)],
            "server", spans=spans, op="",
        )
        try:
            port = _await_ready(server, ready)
            rnd = Round(setup_s=time.perf_counter() - t0)
            outcomes = _post_jobs(port, jobs, self.poll_phase)
            server.signal(signal.SIGTERM)
            child = server.wait(timeout=60)
        finally:
            server.kill()
        rnd.peak_rss_mb = child.rss_mb
        rnd.store_mb = state.store_mb()
        for job, res in zip(jobs, outcomes):
            key = job_key(job)
            ok = res.ok and self.results.setdefault(key, res.body) == res.body
            rnd.ops.append(Op(res.latency, ok, traced, key=key))
        if traced:
            self.layers.add_serve_round(
                child, state.last_telemetry(), outcomes,
                state.service / "journal.jsonl",
            )
            self.span_docs.append(child.spans or {})
        return rnd

    def verify(self, ctx: Context, outcome: Outcome) -> None:
        """Re-execute a seeded tenth of the distinct jobs in this process
        with both cache tiers off and require the served bytes."""
        keys = sorted(self.results)
        rng = random.Random(f"serve-check:{ctx.seed}")
        sample = rng.sample(keys, max(1, len(keys) // 10)) if keys else []
        bad = set()
        with in_process(ctx):
            from repro.service.execute import execute_job, result_text

            for key in sample:
                job = json.loads(key)
                text = result_text(execute_job(job["kind"], job["params"]))
                if text.encode() != self.results[key]:
                    outcome.problems.append(f"served result differs: {key}")
                    _fail_key(outcome, key)
                    bad.add(key)
        golden = golden_table3(ctx)
        for key, body in self.results.items():
            if key in bad or json.loads(key)["kind"] not in ("run", "sweep"):
                continue
            records = json.loads(body)
            for rec in records if isinstance(records, list) else [records]:
                paper = golden[(rec["kernel"], rec["machine"])]
                outcome.paper_ratios.append(
                    rec["kilocycles"] / float(paper["paper_kilocycles"]))


@dataclass
class JobResult:
    ok: bool
    latency: float
    job: str = ""
    deduped: bool = False
    record: Dict[str, Any] = field(default_factory=dict)
    body: bytes = b""


def _await_ready(server: Launch, ready: Path, timeout: float = 60.0) -> int:
    deadline = time.perf_counter() + timeout
    while time.perf_counter() < deadline:
        if server.proc.poll() is not None:
            raise BenchError(
                f"server exited {server.proc.returncode} before ready: "
                f"{server.err.read_bytes().decode(errors='replace')[-400:]}"
            )
        try:
            return int(json.loads(ready.read_text())["port"])
        except (OSError, ValueError, KeyError):
            time.sleep(POLL_S)
    raise BenchError(f"server not ready after {timeout}s")


def _post_jobs(port: int, jobs: List[Dict[str, Any]],
               poll_phase: random.Random) -> List[JobResult]:
    """Closed loop with one client: each job is posted only after the
    previous one's result is fetched.  The server executes jobs on one
    thread, so a second client adds no throughput; it only queues behind
    the first and competes with the server for the cores."""
    results = []
    for job in jobs:
        t0 = time.perf_counter()
        try:
            res = _one_job(port, job, poll_phase.random() * POLL_S)
        except (OSError, http.client.HTTPException, ValueError, KeyError):
            res = JobResult(False, 0.0)
        res.latency = time.perf_counter() - t0
        results.append(res)
    return results


def _request(port: int, method: str, path: str,
             body: Optional[bytes] = None) -> Tuple[int, bytes]:
    # One connection per request, as curl or urllib make them.  On a
    # reused connection the server's separate header and body writes
    # meet the client's delayed ACK, and every response waits ~40 ms.
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        headers = {"Content-Type": "application/json"} if body else {}
        conn.request(method, path, body=body, headers=headers)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def _one_job(port: int, job: Dict[str, Any], first_poll_s: float,
             ) -> JobResult:
    """POST the job, poll its record until it ends, fetch the result.

    The first poll comes ``first_poll_s`` after the POST, the rest every
    ``POLL_S``.  Polls locked to the POST would find a job of a given
    length always at the same poll, so every latency would sit on a step
    of one poll period (~6 ms with the GET, a quarter of the median job)
    and the median would jump a whole step when the host slowed by a few
    percent.  A random phase spreads each job's latency over the period
    and lets the median move with the job's length."""
    status, data = _request(port, "POST", "/v1/jobs",
                            json.dumps(job).encode())
    if status not in (200, 202):
        return JobResult(False, 0.0)
    record = json.loads(data)
    jid = record["job"]
    deduped = record.get("outcome") == "deduped"
    pause = first_poll_s
    while record["state"] not in ("DONE", "FAILED", "CANCELLED"):
        time.sleep(pause)
        pause = POLL_S
        status, data = _request(port, "GET", f"/v1/jobs/{jid}")
        if status != 200:
            return JobResult(False, 0.0, jid)
        record = json.loads(data)
    if record["state"] != "DONE":
        return JobResult(False, 0.0, jid, deduped, record)
    status, body = _request(port, "GET", f"/v1/jobs/{jid}/result")
    return JobResult(status == 200, 0.0, jid, deduped, record, body)


def _fail_key(outcome: Outcome, key: str) -> None:
    for rnd in outcome.rounds:
        for op in rnd.ops:
            if op.key == key:
                op.ok = False


@contextlib.contextmanager
def in_process(ctx: Context) -> Iterator[None]:
    """Import the program into this process for a check: sources from
    the checkout, no obs records, and neither cache tier, so every
    result is computed afresh."""
    src = str(ctx.root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    settings = {"REPRO_OBS": "0", "REPRO_DISK_CACHE": "0",
                "REPRO_RUN_CACHE": "0", "TMPDIR": str(ctx.work)}
    saved = {key: os.environ.get(key) for key in settings}
    os.environ.update(settings)
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


WORKLOADS = {w.name: w for w in (ReportCold, ReportWarm, SweepDense,
                                  ServeJobs)}
