# Convenience targets for the reproduction workflow.

PYTHON ?= python3
GOLDEN_DIR ?= tests/data/golden

.PHONY: install test bench-harness report check check-inject check-chaos \
	doctor serve serve-smoke refresh-golden figures export trace fuzz clean

install:
	pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

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
	  fuzz_manifest.json .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
