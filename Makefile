PYTHON ?= python
PYTHONPATH := src

.PHONY: test coverage bench bench-baseline bench-gated bench-e2e bench-e2e-compare bench-pairs docs-check

test:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -x -q

## Tier-1 tests with a line-coverage floor on src/repro (what the CI
## coverage leg runs).  pytest-cov is not part of the baked-in toolchain, so
## the target skips cleanly where it is absent instead of failing.
coverage:
	@if PYTHONPATH=$(PYTHONPATH) $(PYTHON) -c "import pytest_cov" 2>/dev/null; then \
		mkdir -p bench-out; \
		PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -x -q --cov=repro \
			--cov-report=term --cov-report=xml:bench-out/coverage.xml \
			--cov-fail-under=85; \
	else \
		echo "pytest-cov not installed; skipping coverage run (pip install pytest-cov)"; \
	fi

## Check intra-repo markdown links, run every experiment of the CLI's table
## (`all`) at the minimal smoke scale and every example (what the CI docs
## job runs).  Exiting 0 is all that is asked of `all` here: the wire
## commands (serve, fig_chaos) print wall-clock numbers, and tier-1 replays
## the simulated figures against tests/golden/figures.json.  The two
## examples that read a decision ledger assert on it (serve_demo: replayed
## ledgers are bit-identical; chaos_demo: a crash entry is recorded), the
## others run the library end to end (quickstart: store put / get_object,
## codec, Agar configuration).
EXAMPLES := $(sort $(wildcard examples/*.py))
docs-check:
	$(PYTHON) tools/check_markdown_links.py
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.experiments.cli all --smoke
	for example in $(EXAMPLES); do \
		echo "== $$example"; \
		PYTHONPATH=$(PYTHONPATH) $(PYTHON) $$example || exit 1; \
	done

## Run the guarded hot-path benchmarks, write BENCH_<date>.json and fail on
## a >20% regression vs benchmarks/baseline.json.
bench:
	$(PYTHON) benchmarks/run_bench.py

## Re-measure and rewrite the committed baseline (use after intentional
## performance changes, and commit the result).
bench-baseline:
	$(PYTHON) benchmarks/run_bench.py --update

## The gated comparison CI runs (`make bench-gated
## BENCH_OUTPUT=bench-out/BENCH_gated.json`): the knapsack solver and one full
## reconfiguration (ISSUE 15), its catalogue-scaling axis (ISSUE 18), codec
## (batched, the one-row rebuild at 16 KiB and 1 MiB, ISSUE 16/20), engine
## (scale, faulted, hedged+faulted, million-lane, and the Agar read alone
## with no scheduler around it, plain and resilient, ISSUE 23/24), sharded execution through the §VI round protocol (ISSUE 19),
## the serving tier's wire path (over sockets, and its per-request dispatch
## cost without them, ISSUE 17) and the Fig. 6 end-to-end run against
## benchmarks/ci_baseline.json with per-benchmark tolerance bands.  This
## recipe is the one list of gated names: CI calls the target and
## tests/benchguard reads the names out of it.  BENCH_OUTPUT is the result
## path (default: BENCH_<date>.json at the repo root).
BENCH_OUTPUT ?=
bench-gated:
	$(PYTHON) benchmarks/run_bench.py $(if $(BENCH_OUTPUT),--output $(BENCH_OUTPUT)) \
		--compare benchmarks/ci_baseline.json \
		--only test_bench_knapsack_solver,test_bench_reconfiguration,test_bench_reconfiguration_catalogue_scaling,test_bench_codec_encode_many,test_bench_codec_decode_small,test_bench_codec_rebuild_row_large,test_bench_engine_scale_closed_loop,test_bench_engine_faulted,test_bench_engine_hedged_faulted,test_bench_engine_million_lane,test_bench_agar_read_indexed,test_bench_resilient_read_indexed,test_bench_collab_sharded_rounds,test_bench_serve_wire,test_bench_gateway_dispatch,test_bench_serve_wire_degraded,test_bench_fig6_frankfurt

## The end-to-end benchmark (BENCHMARK.json): six workloads over the three
## vertical paths, drift-corrected, written to bench-out/e2e.json.
bench-e2e:
	mkdir -p bench-out
	python3 bench/run.py --out bench-out/e2e.json

## Verdict per workload x metric between two bench-e2e result files:
##   make bench-e2e-compare BASE=before.json NEW=after.json
bench-e2e-compare:
	python3 bench/compare.py $(BASE) $(NEW)

## Alternating parent/change pairs of end-to-end workloads, the protocol
## every performance claim is made with (one fresh seed per pair, both
## medians and quartiles, pairs won, the nine-of-ten rule), written to
## docs/results/<date>-issue<N>-pairs-<workload>.json:
##   make bench-pairs PARENT=/root/scratch/parent WORKLOAD=engine_clean PAIRS=10 SECONDS=10
##   make bench-pairs PARENT=/root/scratch/parent WORKLOAD=all CLAIM=engine_faulted:ops_per_ref_s
## WORKLOAD is one workload, a comma list or `all` (every workload of
## BENCHMARK.json, one file each and one closing table of verdicts).  CLAIM
## names the metric a gain is claimed on, as METRIC (every listed workload)
## or WORKLOAD:METRIC (that one only); empty: every metric is only held to
## its BENCHMARK.json bound.
WORKLOAD ?= engine_clean
PAIRS ?= 10
SECONDS ?= 10
CLAIM ?=
bench-pairs:
	$(PYTHON) tools/bench_pairs.py --parent $(PARENT) --workload $(WORKLOAD) \
		--pairs $(PAIRS) --seconds $(SECONDS) $(if $(CLAIM),--claim $(CLAIM))
