"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run KERNEL MACHINE``
    Run one mapping and print its summary and cycle breakdown.
    ``--json`` prints a machine-readable record (cycles, breakdown,
    config hash) instead; ``--trace PATH`` additionally writes a Chrome
    ``trace_event`` JSON of the run.
``trace KERNEL MACHINE``
    Run one mapping with tracing on and emit the event stream:
    ``--format chrome`` (default, Perfetto-loadable JSON), ``svg``
    (per-resource utilization timeline), or ``jsonl`` (one metrics-
    manifest record).  ``-o PATH`` writes to a file instead of stdout.
``table N`` / ``figure N``
    Regenerate one table (1-4) or figure (8-9) with model-vs-paper
    columns.
``report``
    Run every registered experiment (the EXPERIMENTS.md content).
    ``--jobs N`` spreads the kernel runs over N worker processes;
    ``--perf`` prints timer, run-cache, and tensor-engine statistics to
    stderr; ``--metrics PATH`` writes the JSON-lines metrics manifest;
    ``--density N`` appends a calibration-sensitivity section with N
    grid points per constant side.
``sensitivity``
    Calibration sensitivity sweep (elasticity per constant).
    ``--delta D`` sets the maximum perturbation, ``--points N`` (alias
    ``--density``) densifies the grid — dense grids collapse into
    tensor batches (docs/performance.md), so N=100 stays cheap.
``check``
    Validate the model against its machine-checkable invariants and
    differential oracles.  ``--fast`` (default) checks every registered
    (kernel, machine) pair; ``--full`` adds the cache and executor
    oracles; ``--inject`` corrupts each redundant path on purpose and
    proves the matching oracle notices (always exits non-zero: 1 when
    every injected corruption was detected, 3 when an oracle missed
    its fault); ``--chaos [SPEC]`` runs the report clean and then under
    injected runtime faults (worker kills, disk errors — see
    docs/robustness.md) and requires byte-identical output with the
    recoveries visible in ``resilience.*`` telemetry.
``doctor``
    Probe the execution runtime's health — pool spawn, disk-cache
    round-trip and digest sweep, interprocess lock, telemetry registry,
    service journal — and print a pass/warn/fail table.  Exits 0 when
    healthy (warnings allowed), 2 naming the failing probe otherwise.
    ``--json`` prints a machine-readable record instead (what the
    service ``/healthz?full=1`` endpoint serves).
``serve``
    Run the simulation HTTP service (docs/service.md): JSON
    run/sweep/report/pipeline jobs, deduplicated by content digest,
    journalled to a write-ahead log under ``.repro/service/``, admitted
    through a bounded queue with load shedding, drained gracefully on
    SIGTERM.  ``--port 0 --ready-file PATH`` supports raceless scripted
    startup.
``cache ACTION``
    Manage the persistent disk tier of the run cache (see
    docs/performance.md).  ``stats`` prints counters and footprint
    (``--json`` adds the store log's shape — log count and bytes,
    probe-latency percentiles), ``clear`` removes every
    persisted entry, ``prune`` evicts oldest entries beyond
    ``--max-entries`` / ``--max-bytes``.
    ``stats`` (and ``metrics regress``) never import numpy or the
    modelling stack — the warm fast-start path.
``metrics ACTION``
    The metrics history and its regression gate (docs/observability.md).
    ``history`` lists the records in ``.repro/obs/history.jsonl``
    (``--heal`` quarantines corrupt lines); ``regress`` compares the
    latest record against prior history with per-metric tolerance
    bands, exiting non-zero on regression.
``analyze ACTION``
    Derived analyses.  ``roofline`` prints per kernel×machine
    arithmetic intensity and memory-bound fraction (``--json`` for
    records, ``--html PATH`` writes the self-contained observability
    dashboard, ``--traced`` adds the trace-track cross-check).
``experiments``
    List the experiment registry.
``list``
    List kernels, machines, and mapping options.

``run``, ``report``, and ``sensitivity`` accept ``--no-disk-cache`` to
skip the disk tier for one invocation; setting ``REPRO_DISK_CACHE=0``
disables it globally.

Model-running commands open a *flight-recorder session* (an append-only
event ledger under ``.repro/obs/ledger/``) and append one record to the
metrics history on success; ``REPRO_OBS=0`` disables the whole layer.
``report``, ``sensitivity``, and ``pipeline`` accept ``--progress
{auto,tty,jsonl,off}`` for live sweep progress on stderr (default
``auto``: a status line when stderr is a terminal, silence otherwise —
stdout is never touched).

Examples
--------
::

    python -m repro run corner_turn viram
    python -m repro run cslc raw --option balanced=false
    python -m repro run corner_turn viram --json
    python -m repro trace corner_turn viram --format chrome -o trace.json
    python -m repro trace corner_turn viram --format svg -o timeline.svg
    python -m repro table 3
    python -m repro figure 8
    python -m repro report
    python -m repro report --jobs 4 --perf
    python -m repro report --no-disk-cache
    python -m repro report --density 10
    python -m repro sensitivity --points 50 --perf
    python -m repro check --fast
    python -m repro check --full --jobs 4
    python -m repro check --inject
    python -m repro check --chaos --fast
    python -m repro check --chaos kill=1,corrupt=1
    python -m repro doctor
    python -m repro doctor --json
    python -m repro serve --port 8642
    python -m repro cache stats
    python -m repro cache prune --max-entries 1024
    python -m repro report --progress jsonl
    python -m repro metrics history
    python -m repro metrics regress
    python -m repro analyze roofline
    python -m repro analyze roofline --html dashboard.html
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.errors import ReproError


def _parse_option(text: str):
    """Parse ``key=value`` mapping options with simple literal coercion."""
    if "=" not in text:
        raise argparse.ArgumentTypeError(
            f"option {text!r} must look like key=value"
        )
    key, value = text.split("=", 1)
    lowered = value.lower()
    if lowered in ("true", "false"):
        return key, lowered == "true"
    try:
        return key, int(value)
    except ValueError:
        pass
    try:
        return key, float(value)
    except ValueError:
        pass
    return key, value


def _add_progress(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--progress",
        choices=("auto", "tty", "jsonl", "off"),
        default="auto",
        metavar="MODE",
        help=(
            "live sweep progress on stderr: tty (status line), jsonl "
            "(machine-readable lines), off, or auto (the default: tty "
            "iff stderr is a terminal)"
        ),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'A Performance Analysis of PIM, Stream "
            "Processing, and Tiled Processing on Memory-Intensive Signal "
            "Processing Kernels' (ISCA 2003)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one kernel on one machine")
    run_p.add_argument("kernel")
    run_p.add_argument("machine")
    run_p.add_argument(
        "--option",
        "-o",
        action="append",
        default=[],
        type=_parse_option,
        help="mapping option, e.g. -o balanced=false -o tables_in_srf=true",
    )
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument(
        "--json",
        action="store_true",
        help="print a machine-readable run record instead of the summary",
    )
    run_p.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="run under tracing and write a Chrome trace_event JSON here",
    )
    run_p.add_argument(
        "--no-disk-cache",
        action="store_true",
        help="skip the persistent disk tier for this invocation",
    )

    trace_p = sub.add_parser(
        "trace",
        help="run one mapping with tracing on and export the events",
        description=(
            "Run KERNEL on MACHINE under the simulation tracer and emit "
            "the structured event stream: spans and instants on named "
            "per-resource tracks, timestamped in simulated cycles."
        ),
    )
    trace_p.add_argument("kernel")
    trace_p.add_argument("machine")
    trace_p.add_argument(
        "--format",
        choices=("chrome", "svg", "jsonl"),
        default="chrome",
        help=(
            "chrome: trace_event JSON (load at ui.perfetto.dev); "
            "svg: utilization timeline; jsonl: metrics-manifest record"
        ),
    )
    trace_p.add_argument(
        "--output",
        "-o",
        metavar="PATH",
        default=None,
        help="write here instead of stdout",
    )
    trace_p.add_argument(
        "--option",
        action="append",
        default=[],
        type=_parse_option,
        help="mapping option, e.g. --option balanced=false",
    )
    trace_p.add_argument("--seed", type=int, default=0)

    table_p = sub.add_parser("table", help="regenerate a paper table")
    table_p.add_argument("number", type=int, choices=(1, 2, 3, 4))

    figure_p = sub.add_parser("figure", help="regenerate a paper figure")
    figure_p.add_argument("number", type=int, choices=(8, 9))

    report_p = sub.add_parser(
        "report", help="run every experiment (EXPERIMENTS.md)"
    )
    report_p.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=None,
        metavar="N",
        help=(
            "evaluate the suite's kernel runs on N worker processes "
            "(output is identical to serial; default serial)"
        ),
    )
    report_p.add_argument(
        "--perf",
        action="store_true",
        help="print timer and run-cache statistics to stderr afterwards",
    )
    report_p.add_argument(
        "--metrics",
        metavar="PATH",
        default=None,
        help="write the JSON-lines metrics manifest of the sweep here",
    )
    report_p.add_argument(
        "--no-disk-cache",
        action="store_true",
        help="skip the persistent disk tier for this invocation",
    )
    report_p.add_argument(
        "--density",
        type=int,
        default=None,
        metavar="N",
        help=(
            "append a calibration-sensitivity section with N grid "
            "points per constant side (dense grids evaluate as tensor "
            "batches; default: no sensitivity section)"
        ),
    )
    _add_progress(report_p)

    sens_p = sub.add_parser(
        "sensitivity",
        help="calibration sensitivity sweep (elasticity per constant)",
        description=(
            "Perturb every calibrated constant around its DESIGN.md "
            "anchor and report elasticities.  --points/--density "
            "densifies the perturbation grid; the dense cells differ "
            "only in calibration constants, so the planner evaluates "
            "each column as one tensor batch."
        ),
    )
    sens_p.add_argument(
        "--delta",
        type=float,
        default=0.25,
        metavar="D",
        help="maximum relative perturbation (default 0.25)",
    )
    sens_p.add_argument(
        "--points",
        "--density",
        dest="points",
        type=int,
        default=1,
        metavar="N",
        help=(
            "grid points per constant side: magnitudes delta*k/N for "
            "k=1..N (default 1, the classic ±delta sweep)"
        ),
    )
    sens_p.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=None,
        metavar="N",
        help="evaluate on N worker processes (default serial)",
    )
    sens_p.add_argument(
        "--perf",
        action="store_true",
        help="print timer and tensor-engine statistics to stderr afterwards",
    )
    sens_p.add_argument(
        "--no-disk-cache",
        action="store_true",
        help="skip the persistent disk tier for this invocation",
    )
    _add_progress(sens_p)

    check_p = sub.add_parser(
        "check",
        help="validate invariants and differential oracles",
        description=(
            "Machine-check the model: §2.5 lower bounds, traffic "
            "footprints, cycle accounting, and the redundant-path "
            "differential oracles (cache, executor, DRAM batch)."
        ),
    )
    tier_group = check_p.add_mutually_exclusive_group()
    tier_group.add_argument(
        "--fast",
        dest="tier",
        action="store_const",
        const="fast",
        help="invariants on every pair + synthetic oracles (default)",
    )
    tier_group.add_argument(
        "--full",
        dest="tier",
        action="store_const",
        const="full",
        help="fast tier plus the cache and serial-vs-parallel oracles",
    )
    tier_group.add_argument(
        "--inject",
        dest="tier",
        action="store_const",
        const="inject",
        help=(
            "fault injection: corrupt each redundant path and prove its "
            "oracle detects it (exits 1 = all detected, 3 = oracle blind)"
        ),
    )
    check_p.set_defaults(tier="fast")
    check_p.add_argument(
        "--chaos",
        nargs="?",
        const="",
        default=None,
        metavar="SPEC",
        help=(
            "run the report clean and under injected runtime faults "
            "(default spec: kill=1,disk=1) and require byte-identical "
            "output; combine with --fast for the small workloads"
        ),
    )
    check_p.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=2,
        metavar="N",
        help="worker processes for the executor oracle (default 2)",
    )
    check_p.add_argument(
        "--verbose",
        "-v",
        action="store_true",
        help="print every passing check, not just failures and skips",
    )
    cache_p = sub.add_parser(
        "cache",
        help="inspect or manage the persistent run-cache disk tier",
        description=(
            "The disk tier persists simulated runs across processes "
            "(docs/performance.md).  stats prints counters and footprint "
            "(--json adds the store log's shape: log count and bytes, "
            "probe latency percentiles); clear removes every "
            "persisted entry; prune evicts oldest entries beyond the "
            "caps."
        ),
    )
    cache_p.add_argument("action", choices=("stats", "clear", "prune"))
    cache_p.add_argument(
        "--json",
        action="store_true",
        help="stats: print a JSON record (counters + index internals)",
    )
    cache_p.add_argument(
        "--max-entries",
        type=int,
        default=None,
        metavar="N",
        help="prune: keep at most N entries (default: cache's own cap)",
    )
    cache_p.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        metavar="B",
        help="prune: keep at most B bytes (default: cache's own cap)",
    )
    pipe_p = sub.add_parser(
        "pipeline",
        help="compose kernels into radar-chain scenarios (run | fuzz)",
        description=(
            "Multi-stage radar pipelines (corner turn -> CSLC -> beam "
            "steering) with per-machine inter-stage handoff costs "
            "(docs/scenarios.md).  'run' executes the canonical chain; "
            "'fuzz' sweeps a seeded deterministic scenario population "
            "through the pipeline invariants."
        ),
    )
    pipe_sub = pipe_p.add_subparsers(dest="action", required=True)
    prun_p = pipe_sub.add_parser(
        "run", help="run the three-stage chain and print the report"
    )
    prun_p.add_argument(
        "--machine",
        default="all",
        help="machine to run on, or 'all' (default) for every machine",
    )
    prun_p.add_argument(
        "--small",
        action="store_true",
        help="use the test-size workloads instead of the paper sizes",
    )
    prun_p.add_argument("--seed", type=int, default=0)
    prun_p.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for the stage sweep (default serial)",
    )
    prun_p.add_argument(
        "--json",
        action="store_true",
        help="print machine-readable pipeline records instead of reports",
    )
    prun_p.add_argument("--perf", action="store_true")
    prun_p.add_argument("--no-disk-cache", action="store_true")
    _add_progress(prun_p)
    fuzz_p = pipe_sub.add_parser(
        "fuzz",
        help="generate, execute, and invariant-check a scenario sweep",
    )
    fuzz_p.add_argument("--seed", type=int, default=0)
    fuzz_p.add_argument("--count", type=int, default=100, metavar="N")
    fuzz_p.add_argument(
        "--machines",
        default=None,
        metavar="M1,M2",
        help="comma-separated machine subset (default: all machines)",
    )
    fuzz_p.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for the scenario sweep (default serial)",
    )
    fuzz_p.add_argument(
        "--manifest",
        metavar="PATH",
        default=None,
        help="write the deterministic scenario manifest (JSON) here",
    )
    fuzz_p.add_argument(
        "--json",
        action="store_true",
        help="print the manifest to stdout instead of the summary line",
    )
    fuzz_p.add_argument("--perf", action="store_true")
    fuzz_p.add_argument("--no-disk-cache", action="store_true")
    _add_progress(fuzz_p)

    metrics_p = sub.add_parser(
        "metrics",
        help="metrics history and the perf-regression gate",
        description=(
            "Model-running commands append one record per invocation to "
            ".repro/obs/history.jsonl (docs/observability.md).  "
            "'history' lists those records; 'regress' holds the newest "
            "one against prior history with per-metric tolerance "
            "bands, exiting non-zero on regression."
        ),
    )
    metrics_sub = metrics_p.add_subparsers(dest="action", required=True)
    regress_p = metrics_sub.add_parser(
        "regress",
        help="compare the latest history record against prior history",
    )
    regress_p.add_argument(
        "--command",
        dest="only_command",
        default=None,
        metavar="CMD",
        help=(
            "compare the newest record of this command (default: the "
            "newest record); either way only with prior records of its "
            "command"
        ),
    )
    regress_p.add_argument(
        "--json",
        action="store_true",
        help="print the comparison records as JSON instead of the table",
    )
    mhist_p = metrics_sub.add_parser(
        "history", help="list the recorded metrics-history entries"
    )
    mhist_p.add_argument(
        "--limit",
        type=int,
        default=10,
        metavar="N",
        help="show the newest N records (default 10; 0 = all)",
    )
    mhist_p.add_argument(
        "--json",
        action="store_true",
        help="print the raw records as JSON lines",
    )
    mhist_p.add_argument(
        "--heal",
        action="store_true",
        help="quarantine corrupt history lines before listing",
    )

    analyze_p = sub.add_parser(
        "analyze",
        help="derived analyses (roofline attribution)",
        description=(
            "Derived analyses over the model.  'roofline' computes "
            "per kernel x machine arithmetic intensity, the Table 1/2 "
            "roofs, and the memory-bound cycle fraction of each run's "
            "ledger (docs/observability.md)."
        ),
    )
    analyze_sub = analyze_p.add_subparsers(dest="action", required=True)
    roof_p = analyze_sub.add_parser(
        "roofline",
        help="arithmetic intensity + memory-bound fraction per pair",
    )
    roof_p.add_argument(
        "--json",
        action="store_true",
        help="print JSON records instead of the text table",
    )
    roof_p.add_argument(
        "--html",
        metavar="PATH",
        default=None,
        help=(
            "also write the self-contained observability dashboard "
            "(roofline chart, metric-history sparklines, cache hit "
            "rates, utilization timeline) here"
        ),
    )
    roof_p.add_argument(
        "--traced",
        action="store_true",
        help=(
            "re-run each pair under the tracer and add the event-level "
            "memory-busy cross-check column (slower)"
        ),
    )
    roof_p.add_argument(
        "--small",
        action="store_true",
        help="use the test-size workloads instead of the paper sizes",
    )

    doctor_p = sub.add_parser(
        "doctor",
        help="probe the execution runtime's health",
        description=(
            "Run the health-probe battery (process-pool spawn, disk-cache "
            "write/read/verify, interprocess lock, quarantine census, "
            "telemetry registry, observability ledger/history, service "
            "journal) and print a pass/warn/fail table.  "
            "Exits 0 when healthy, 2 naming the failing probe otherwise."
        ),
    )
    doctor_p.add_argument(
        "--json",
        action="store_true",
        help=(
            "print a machine-readable record (one object per probe plus "
            "the verdict) instead of the text table"
        ),
    )

    serve_p = sub.add_parser(
        "serve",
        help="run the simulation HTTP service",
        description=(
            "Serve run/sweep/report/pipeline jobs over a stdlib HTTP API "
            "with a durable write-ahead job journal, content-addressed "
            "deduplication, bounded-queue admission control, and graceful "
            "SIGTERM drain (see docs/service.md)."
        ),
    )
    serve_p.add_argument(
        "--host", default="127.0.0.1", help="bind address (default local)"
    )
    serve_p.add_argument(
        "--port", type=int, default=8642,
        help="bind port (0 = ephemeral; see --ready-file)",
    )
    serve_p.add_argument(
        "--max-queue", type=int, default=8, metavar="N",
        help=(
            "admission bound: queued jobs beyond N are rejected with 429; "
            "heavy kinds are shed from N//2 (default 8)"
        ),
    )
    serve_p.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="executor threads (default 1; jobs are CPU-bound)",
    )
    serve_p.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="process-pool width each sweep-shaped job may use",
    )
    serve_p.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help=(
            "default per-job deadline, inherited by the supervised "
            "executor's chunk deadline (requests may override per job)"
        ),
    )
    serve_p.add_argument(
        "--ready-file", default=None, metavar="PATH",
        help=(
            "write a JSON handshake (pid, host, port, url) here once the "
            "socket is listening — lets scripts use --port 0 racelessly"
        ),
    )
    sub.add_parser("experiments", help="list the experiment registry")
    sub.add_parser("list", help="list kernels and machines")
    return parser


def _cmd_run(args) -> int:
    from repro.mappings.registry import run

    if args.no_disk_cache:
        from repro.perf.diskcache import DISK_CACHE

        DISK_CACHE.disable()
    options = dict(args.option)
    kwargs = dict(options, seed=args.seed)
    if args.trace:
        from repro.trace import trace_run, write_chrome

        result, tracer = trace_run(args.kernel, args.machine, **kwargs)
        write_chrome(args.trace, tracer)
        print(
            f"trace: {tracer.n_events} events -> {args.trace}",
            file=sys.stderr,
        )
    else:
        result = run(args.kernel, args.machine, **kwargs)
    if args.json:
        import json

        from repro.eval.export import kernel_run_record
        from repro.perf.cache import cache_key

        record = {
            "config_hash": cache_key(args.kernel, args.machine, kwargs),
            **kernel_run_record(result),
        }
        print(json.dumps(record, indent=2, sort_keys=True))
    else:
        print(result.summary())
    return 0


def _cmd_trace(args) -> int:
    import json
    from pathlib import Path

    from repro.trace import timeline_svg, to_chrome, trace_run
    from repro.trace.export import manifest_record

    options = dict(args.option)
    kwargs = dict(options, seed=args.seed)
    result, tracer = trace_run(args.kernel, args.machine, **kwargs)
    if args.format == "chrome":
        text = json.dumps(to_chrome(tracer), indent=1) + "\n"
    elif args.format == "svg":
        text = timeline_svg(tracer) + "\n"
    else:
        from repro.perf.cache import cache_key

        record = manifest_record(
            result,
            config_hash=cache_key(args.kernel, args.machine, kwargs),
            counters=tracer.counters,
        )
        text = json.dumps(record, sort_keys=True) + "\n"
    if args.output:
        Path(args.output).write_text(text)
        print(
            f"trace: {tracer.n_events} events "
            f"({args.format}) -> {args.output}",
            file=sys.stderr,
        )
    else:
        sys.stdout.write(text)
    return 0


def _cmd_table(args) -> int:
    from repro.eval.experiments import run_experiment

    outcome = run_experiment(f"table{args.number}")
    print(outcome.rendered)
    return 0


def _cmd_figure(args) -> int:
    from repro.eval.experiments import run_experiment

    outcome = run_experiment(f"figure{args.number}")
    print(outcome.rendered)
    return 0


def _cmd_report(args) -> int:
    from repro.eval.report import full_report
    from repro.obs.progress import progress_reporting

    if args.no_disk_cache:
        from repro.perf.diskcache import DISK_CACHE

        DISK_CACHE.disable()
    # Perf and progress output go to stderr so the report on stdout
    # stays byte-identical whether or not instrumentation is requested.
    with progress_reporting(args.progress):
        text = full_report(
            jobs=args.jobs,
            metrics_path=args.metrics,
            sensitivity_points=args.density,
        )
    print(text)
    if args.perf:
        _print_perf_stats()
    return 0


def _print_perf_stats() -> None:
    from repro.perf import DISK_CACHE, RUN_CACHE, timers
    from repro.perf.cache import TIMING_PASSES
    from repro.perf.planner import PLANNER_STATS
    from repro.perf.tensorsweep import TENSOR_STATS
    from repro.resilience.stats import RESILIENCE
    from repro.scenarios.stats import SCENARIO_STATS

    print(timers.render(), file=sys.stderr)
    print(RUN_CACHE.format_stats(), file=sys.stderr)
    print(TIMING_PASSES.format_stats(), file=sys.stderr)
    print(DISK_CACHE.format_stats(), file=sys.stderr)
    for tally in (PLANNER_STATS, TENSOR_STATS, SCENARIO_STATS, RESILIENCE):
        print(tally.render(), file=sys.stderr)


def _cmd_sensitivity(args) -> int:
    from repro.eval import sensitivity
    from repro.obs.progress import progress_reporting

    if args.no_disk_cache:
        from repro.perf.diskcache import DISK_CACHE

        DISK_CACHE.disable()
    with progress_reporting(args.progress):
        rows = sensitivity.sweep(
            delta=args.delta, jobs=args.jobs, points=args.points
        )
    print(sensitivity.render(rows))
    if args.perf:
        _print_perf_stats()
    return 0


def _cmd_check(args) -> int:
    if args.chaos is not None:
        from repro.resilience import chaos

        report = chaos.run_chaos_check(
            spec_text=args.chaos or None,
            jobs=args.jobs,
            fast=(args.tier != "full"),
        )
        print(report.render(verbose=args.verbose))
        return report.exit_code
    if args.tier == "inject":
        from repro.check.faults import render_injection, run_injection

        outcomes = run_injection()
        print(render_injection(outcomes))
        if all(o.detected for o in outcomes):
            print(
                "corruption was injected and detected on every oracle; "
                "exiting non-zero to demonstrate failure propagation"
            )
            return 1
        print("error: at least one oracle missed its injected fault",
              file=sys.stderr)
        return 3
    from repro.check import run_checks

    report = run_checks(args.tier, jobs=args.jobs)
    print(report.render(verbose=args.verbose))
    return report.exit_code


def _cmd_cache(args) -> int:
    from repro.perf.diskcache import DISK_CACHE

    if args.action == "stats":
        if args.json:
            import json

            record = {
                f"diskcache.{k}": v for k, v in DISK_CACHE.stats().items()
            }
            record.update(
                {f"index.{k}": v for k, v in DISK_CACHE.index_stats().items()}
            )
            record["root"] = str(DISK_CACHE.root())
            record["enabled"] = DISK_CACHE.enabled
            print(json.dumps(record, indent=2, sort_keys=True))
        else:
            print(DISK_CACHE.format_stats())
    elif args.action == "clear":
        removed = DISK_CACHE.clear()
        print(f"disk cache: cleared {removed} entries at {DISK_CACHE.root()}")
    else:  # prune
        removed = DISK_CACHE.prune(
            max_entries=args.max_entries, max_bytes=args.max_bytes
        )
        print(f"disk cache: pruned {removed} entries")
        print(DISK_CACHE.format_stats())
    return 0


def _cmd_pipeline(args) -> int:
    from repro.obs.progress import progress_reporting

    if args.no_disk_cache:
        from repro.perf.diskcache import DISK_CACHE

        DISK_CACHE.disable()
    with progress_reporting(args.progress):
        if args.action == "run":
            return _pipeline_run(args)
        return _pipeline_fuzz(args)


def _pipeline_run(args) -> int:
    import json

    from repro.mappings.registry import MACHINES
    from repro.scenarios import (
        canonical_scenario,
        pipeline_record,
        render_pipeline,
        run_scenarios,
        small_scenario,
    )

    if args.machine == "all":
        machines = list(MACHINES)
    elif args.machine in MACHINES:
        machines = [args.machine]
    else:
        raise ReproError(
            f"unknown machine {args.machine!r}; "
            f"expected one of {MACHINES} or 'all'"
        )
    build = small_scenario if args.small else canonical_scenario
    scenarios = [build(machine) for machine in machines]
    if args.seed:
        import dataclasses

        scenarios = [
            dataclasses.replace(s, seed=args.seed) for s in scenarios
        ]
    pruns = run_scenarios(scenarios, jobs=args.jobs)
    if args.json:
        records = [pipeline_record(prun) for prun in pruns]
        print(json.dumps(records, indent=2, sort_keys=True))
    else:
        print("\n\n".join(render_pipeline(prun) for prun in pruns))
    if args.perf:
        _print_perf_stats()
    return 0


def _pipeline_fuzz(args) -> int:
    from repro.scenarios import (
        fuzz_manifest,
        generate_scenarios,
        manifest_json,
        run_scenarios,
        validate_pipelines,
    )

    machines = (
        tuple(m.strip() for m in args.machines.split(",") if m.strip())
        if args.machines
        else None
    )
    scenarios = generate_scenarios(args.seed, args.count, machines)
    pruns = run_scenarios(scenarios, jobs=args.jobs)
    violations = validate_pipelines(pruns)
    from repro.mappings.registry import MACHINES

    manifest = fuzz_manifest(
        args.seed,
        args.count,
        machines or tuple(MACHINES),
        pruns,
        violations,
    )
    text = manifest_json(manifest)
    if args.manifest:
        from repro.ioutil import atomic_write_text

        atomic_write_text(args.manifest, text)
        print(f"manifest -> {args.manifest}", file=sys.stderr)
    if args.json:
        print(text, end="")
    else:
        n_violating = len(violations)
        print(
            f"pipeline fuzz: {len(pruns)} scenarios (seed {args.seed}), "
            f"{manifest['violation_count']} invariant violations in "
            f"{n_violating} scenarios"
        )
        for scenario_id in sorted(violations):
            for failure in violations[scenario_id]:
                print(f"  {scenario_id}: {failure}")
    if args.perf:
        _print_perf_stats()
    return 1 if violations else 0


def _cmd_metrics(args) -> int:
    import dataclasses
    import json

    from repro.obs import history as obs_history

    if args.action == "regress":
        from repro.obs.regress import render_regress, run_regress

        report = run_regress(command=args.only_command)
        if args.json:
            payload = {
                "current_session": report.current_session,
                "current_command": report.current_command,
                "notes": report.notes,
                "ok": report.ok,
                "comparisons": [
                    dataclasses.asdict(c) for c in report.comparisons
                ],
            }
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            print(render_regress(report))
        return report.exit_code

    # metrics history
    if args.heal:
        from repro.ioutil import heal_log

        try:
            moved = heal_log(obs_history.history_path())
        except OSError:
            moved = b""
        if moved:
            print(
                f"history: quarantined a {len(moved)}-byte torn tail",
                file=sys.stderr,
            )
    records, corrupt = obs_history.read_history()
    if args.limit and args.limit > 0:
        records = records[-args.limit:]
    if args.json:
        for record in records:
            print(json.dumps(record, sort_keys=True))
        return 0
    path = obs_history.history_path()
    print(f"metrics history: {path}")
    if corrupt:
        print(
            f"  ({len(corrupt)} corrupt line(s); "
            "heal with `repro metrics history --heal`)"
        )
    if not records:
        print("  (no records; model-running commands append one each)")
        return 0
    for record in records:
        metrics = record.get("metrics") or {}
        print(
            f"  {record.get('session', '?'):>12s}  "
            f"{record.get('command', '?'):<12s} "
            f"exit={record.get('exit_code', '?')} "
            f"wall={record.get('wall_seconds', 0.0):.3f}s "
            f"metrics={len(metrics)} "
            f"model={record.get('model_version', '?')}"
        )
    return 0


def _cmd_analyze(args) -> int:
    from repro.obs.roofline import (
        analyze_roofline,
        render_roofline,
        roofline_json,
        roofline_records,
    )

    workloads = None
    if args.small:
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
    points = analyze_roofline(workloads, traced=args.traced)
    if args.json:
        print(roofline_json(points))
    else:
        print(render_roofline(points))
    if args.html:
        from repro.obs.dashboard import write_dashboard
        from repro.obs.history import read_history

        history_records, _ = read_history()
        timeline = None
        try:
            from repro.trace import timeline_svg, trace_run

            kwargs = (
                {"workload": workloads["corner_turn"]} if workloads else {}
            )
            _, tracer = trace_run("corner_turn", "viram", **kwargs)
            timeline = timeline_svg(tracer)
        except Exception:  # noqa: BLE001 - dashboard extra, never fatal
            timeline = None
        write_dashboard(
            args.html, history_records, roofline_records(points),
            timeline=timeline,
        )
        print(f"dashboard -> {args.html}", file=sys.stderr)
    return 0


def _cmd_doctor(args) -> int:
    from repro.resilience import doctor

    results = doctor.run_doctor()
    if args.json:
        import json

        print(json.dumps(doctor.doctor_json(results), indent=2,
                         sort_keys=True))
    else:
        print(doctor.render_doctor(results))
    return doctor.exit_code(results)


def _cmd_serve(args) -> int:
    from repro.service.runtime import ServiceConfig
    from repro.service.server import serve

    config = ServiceConfig(
        max_queue=args.max_queue,
        workers=args.workers,
        jobs=args.jobs,
        default_deadline_s=args.deadline,
    )
    census = serve(
        host=args.host,
        port=args.port,
        config=config,
        ready_file=args.ready_file,
    )
    print(
        "serve: drained — "
        + ", ".join(f"{k}={v}" for k, v in sorted(census.items())),
        file=sys.stderr,
    )
    return 0


def _cmd_experiments(_args) -> int:
    from repro.eval.experiments import EXPERIMENTS

    for experiment_id in EXPERIMENTS:
        print(experiment_id)
    return 0


def _cmd_list(_args) -> int:
    from repro.mappings.registry import KERNELS, MACHINES, OPTIONS

    print("kernels: " + ", ".join(KERNELS))
    print("machines:", ", ".join(MACHINES))
    print(
        "options:  "
        + "; ".join(
            f"{kernel}/{machine}: " + ", ".join(f"{name}=" for name in names)
            for (kernel, machine), names in OPTIONS.items()
        )
    )
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "trace": _cmd_trace,
    "table": _cmd_table,
    "figure": _cmd_figure,
    "report": _cmd_report,
    "sensitivity": _cmd_sensitivity,
    "check": _cmd_check,
    "cache": _cmd_cache,
    "pipeline": _cmd_pipeline,
    "metrics": _cmd_metrics,
    "analyze": _cmd_analyze,
    "doctor": _cmd_doctor,
    "serve": _cmd_serve,
    "experiments": _cmd_experiments,
    "list": _cmd_list,
}

#: Commands that run the model (or its checks): these open a
#: flight-recorder session and append a metrics-history record.
#: Read-only browsers (table/figure/list/experiments/cache) and the obs
#: layer's own commands (metrics/analyze/doctor) stay out so the gate's
#: "current" record is always real model-running evidence.
_SESSION_COMMANDS = (
    "run", "trace", "report", "sensitivity", "check", "pipeline", "serve",
)

#: Session commands whose sweep leaves every registered pair in the run
#: cache, making the deterministic per-pair metrics free to read back.
_METRIC_COMMANDS = ("report",)


def _warm_report_seconds(wall: float) -> Optional[float]:
    """``wall`` iff the report that just finished ran fully *warm* —
    every simulated cell answered by the cache tiers (no disk misses, no
    fresh writes, at least one hit).  Cold and partially-cold reports
    return ``None`` so the warm-latency history metric only ever
    aggregates like-for-like runs — mixing a cold wall-clock into the
    ``run.warm_report_seconds`` baseline would blow the gate's band."""
    try:
        from repro.perf.diskcache import DISK_CACHE

        stats = DISK_CACHE.stats()
        if (
            stats.get("misses", 1) == 0
            and stats.get("writes", 1) == 0
            and stats.get("hits", 0) > 0
        ):
            return float(wall)
    except Exception:  # noqa: BLE001 - observation only
        pass
    return None


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code.

    Commands in :data:`_SESSION_COMMANDS` run inside a flight-recorder
    session (an append-only event ledger, see docs/observability.md)
    and, on success, append one record to the metrics history.  The obs
    layer is observation-only: any failure inside it is swallowed and
    the command's stdout and exit code are exactly what they would have
    been with ``REPRO_OBS=0``.
    """
    import time as _time

    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _COMMANDS[args.command]
    if args.command not in _SESSION_COMMANDS:
        try:
            return handler(args)
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    raw_argv = list(sys.argv[1:]) if argv is None else list(argv)
    started = _time.monotonic()
    recorder = None
    try:
        from repro.obs.ledger import end_session, start_session

        recorder = start_session(args.command, raw_argv)
    except Exception:  # noqa: BLE001 - observation only
        recorder = None
    code = 1
    try:
        try:
            code = handler(args)
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            code = 1
        return code
    finally:
        if recorder is not None:
            wall = _time.monotonic() - started
            try:
                end_session(code)
            except Exception:  # noqa: BLE001 - observation only
                pass
            if code == 0:
                try:
                    from repro.obs.history import (
                        append_history,
                        build_record,
                        deterministic_run_metrics,
                    )

                    metrics = (
                        deterministic_run_metrics()
                        if args.command in _METRIC_COMMANDS
                        else None
                    )
                    if metrics is not None:
                        warm = _warm_report_seconds(wall)
                        if warm is not None:
                            metrics["run.warm_report_seconds"] = warm
                    append_history(
                        build_record(
                            args.command,
                            raw_argv,
                            session=recorder.session,
                            exit_code=code,
                            wall_seconds=wall,
                            metrics=metrics,
                        )
                    )
                except Exception:  # noqa: BLE001 - observation only
                    pass


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
