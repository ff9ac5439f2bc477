# Convenience wrappers around the verify/bench recipes in ROADMAP.md.
#
#   make test           tier-1 verification suite
#   make test-fast      tier-1 minus slow-marked paper-scale tests
#   make test-both      tier-1 on both polynomial backends
#   make lint           static invariant analysis (repro.lint) over src/
#   make loc            src/ line counts, total and per package (a report)
#   make loc-check      the src/ line ratchet: fails when src/ exceeds loc-baseline.json's ceiling
#                       (a PR that deletes code lowers the ceiling in the same commit; raising
#                       it requires a "`src/` +N: why" line in the CHANGES headline)
#   make bench          every paper table/figure benchmark (writes benchmarks/results/)
#   make bench-all      the repo benchmark of BENCHMARK.json: five workloads end to end + traced (writes bench/results/)
#   make bench-backend  polynomial-backend speedup gate (numpy vs reference)
#   make bench-batch    lane cost gate (relinearize ms per ciphertext at widths 1 and 8; the batch-8/batch-1 ratio is reported)
#   make bench-serving  serving-layer gate (dynamic batching vs sequential service)
#   make bench-serving-scale  sharded front-door gate (1 worker vs 4-worker pool)
#   make bench-hoisting hoisted-rotation gate (decompose-once vs per-rotation keyswitch)
#   make bench-residency data-residency gate (resident storage vs list interchange)
#   make bench-wire     wire-format-v2 gate (bit-packed residues vs 8-byte words)
#   make bench-reliability  reliability gates (steady-state overhead + recovery time)
#   make bench-planner  workload-planner gate (sweep fusion + batch packing vs naive sequential)
#   make chaos          deterministic chaos suite (kills, corruption, retries) on both backends
#   make vectors        regenerate the golden fixtures under tests/vectors/

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH),)

BENCHES := $(wildcard benchmarks/bench_*.py)

.PHONY: test test-fast test-both lint loc loc-check bench bench-all bench-backend bench-batch bench-serving bench-serving-scale bench-hoisting bench-residency bench-wire bench-reliability bench-planner chaos vectors

test:
	$(PYTHON) -m pytest -x -q

lint:
	$(PYTHON) -m repro.lint src --json benchmarks/results/LINT_report.json

# the figures every CHANGES.md entry quotes: find | xargs cat | wc -l
loc:
	@for d in $$(find src/repro -mindepth 1 -maxdepth 1 -type d ! -name __pycache__ | sort) src; do \
		printf '%7d  %s\n' "$$(find $$d -name '*.py' | xargs cat | wc -l)" "$$d"; \
	done

loc-check:
	@total=$$(find src -name '*.py' | xargs cat | wc -l); \
	ceiling=$$($(PYTHON) -c "import json; print(json.load(open('loc-baseline.json'))['src'])"); \
	echo "src/ $$total lines, ceiling $$ceiling (loc-baseline.json)"; \
	test $$total -le $$ceiling || { echo "src/ grew past its ceiling: delete code, or raise it with a 'src/ +N: why' line in CHANGES"; exit 1; }

test-fast:
	$(PYTHON) -m pytest -x -q -m "not slow"

test-both:
	REPRO_BACKEND=reference $(PYTHON) -m pytest -x -q
	REPRO_BACKEND=numpy $(PYTHON) -m pytest -x -q

bench:
	$(PYTHON) -m pytest $(BENCHES) -q

bench-all:
	python3 bench/run.py

bench-backend:
	$(PYTHON) -m pytest benchmarks/bench_backend_speedup.py -q -s

bench-batch:
	$(PYTHON) -m pytest benchmarks/bench_batch_throughput.py -q -s

bench-serving:
	$(PYTHON) -m pytest benchmarks/bench_serving_throughput.py -q -s

bench-serving-scale:
	$(PYTHON) -m pytest benchmarks/bench_serving_scale.py -q -s

bench-hoisting:
	REPRO_BACKEND=reference $(PYTHON) -m pytest benchmarks/bench_keyswitch_hoisting.py -q -s
	REPRO_BACKEND=numpy $(PYTHON) -m pytest benchmarks/bench_keyswitch_hoisting.py -q -s

bench-residency:
	REPRO_BACKEND=reference $(PYTHON) -m pytest benchmarks/bench_residency.py -q -s
	REPRO_BACKEND=numpy $(PYTHON) -m pytest benchmarks/bench_residency.py -q -s

bench-wire:
	REPRO_BACKEND=reference $(PYTHON) -m pytest benchmarks/bench_wire_bytes.py -q -s
	REPRO_BACKEND=numpy $(PYTHON) -m pytest benchmarks/bench_wire_bytes.py -q -s

bench-reliability:
	$(PYTHON) -m pytest benchmarks/bench_reliability.py -q -s

bench-planner:
	REPRO_BACKEND=reference $(PYTHON) -m pytest benchmarks/bench_planner.py -q -s
	REPRO_BACKEND=numpy $(PYTHON) -m pytest benchmarks/bench_planner.py -q -s

chaos:
	REPRO_BACKEND=reference $(PYTHON) -m pytest tests/serving/test_reliability.py tests/serving/test_supervisor.py -q
	REPRO_BACKEND=numpy $(PYTHON) -m pytest tests/serving/test_reliability.py tests/serving/test_supervisor.py -q

vectors:
	$(PYTHON) tests/vectors/regenerate.py
