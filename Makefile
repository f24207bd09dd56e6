# Convenience targets for the reproduction workflow.

PYTHON ?= python3
GOLDEN_DIR ?= tests/data/golden

.PHONY: install test bench bench-cache bench-tensor bench-warm \
	bench-harness report check check-inject check-chaos doctor serve \
	serve-smoke refresh-golden figures export metrics trace fuzz clean

install:
	pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-verbose:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

# Cold-vs-warm guard for the two-tier run cache; writes BENCH_PR4.json
# (see docs/performance.md).
bench-cache:
	$(PYTHON) -m pytest benchmarks/test_cache_cold_warm.py --benchmark-only

# Tensor-engine guard: cold-report wall-clock and batch-vs-per-cell
# speedup + equivalence on a dense sensitivity grid; writes
# BENCH_PR6.json (see docs/performance.md).
bench-tensor:
	$(PYTHON) -m pytest benchmarks/test_tensor_sweep.py --benchmark-only

# Warm-path latency guard: two cold + two warm fresh-process reports
# through the packed index, byte-compared against the golden; writes
# BENCH_PR9.json (see docs/performance.md, "Warm path").
bench-warm:
	$(PYTHON) -m pytest benchmarks/test_warm_latency.py --benchmark-only

# The repository benchmark's own tests (bench/), including a --smoke
# run of every workload; ~20 s (see bench/README.md).
bench-harness:
	$(PYTHON) -m pytest bench/tests

report:
	$(PYTHON) -m repro report

check:
	$(PYTHON) -m repro check --full

check-inject:
	$(PYTHON) -m repro check --inject; test $$? -eq 1

# Inject real faults (worker kill, disk error) into a live sweep and
# require byte-identical output (see docs/robustness.md).
check-chaos:
	$(PYTHON) -m repro check --chaos --fast

# Runtime health probes: pool spawn, disk-cache RW + verify, locking,
# quarantine history, telemetry registry, service journal.
doctor:
	$(PYTHON) -m repro doctor

# Foreground simulation service on the default port (Ctrl-C drains).
serve:
	$(PYTHON) -m repro serve

# End-to-end service gate: boot a real server, POST a run job, require
# the result byte-identical to the CLI, dedup a duplicate, drain on
# SIGTERM (see docs/service.md).
serve-smoke:
	$(PYTHON) scripts/serve_smoke.py

# Regenerate the golden snapshot fixtures.  Deliberate act: review the
# fixture diff before committing (see docs/modeling.md, "Validation").
refresh-golden:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} \
	  $(PYTHON) -m repro.check.golden $(GOLDEN_DIR)

figures:
	$(PYTHON) -c "from repro.eval.svg import write_figures; \
	  print(*write_figures('figures'), sep='\n')"

export:
	$(PYTHON) -c "from repro.eval.export import write_json; \
	  print(write_json('results.json'))"

# Per-run metrics manifest of the Table 3 sweep (JSON lines, one record
# per kernel/machine with config hash) — the cross-PR bench trajectory.
metrics:
	$(PYTHON) -c "from repro.eval.tables import run_table3; \
	  from repro.trace.export import write_metrics_manifest; \
	  print(write_metrics_manifest('BENCH_PR3.json', run_table3()))"

# Seeded scenario fuzz sweep through the pipeline invariants; writes
# the deterministic manifest (see docs/scenarios.md).
fuzz:
	$(PYTHON) -m repro pipeline fuzz --seed 0 --count 200 --jobs 2 \
	  --manifest fuzz_manifest.json

# Chrome trace + utilization timeline of the canonical VIRAM corner turn.
trace:
	$(PYTHON) -m repro trace corner_turn viram --format chrome -o trace.json
	$(PYTHON) -m repro trace corner_turn viram --format svg -o timeline.svg

clean:
	rm -rf figures results.json trace.json timeline.svg \
	  fuzz_manifest.json .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
