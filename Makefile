PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test test-fast test-faults test-planner test-reliable lint lint-py perfbench-selftest perf-ab bench bench-full check-pythonpath

test:
	$(PYTHON) -m pytest -x -q

# The fault-injection and monitor suite on its own (includes the slow
# partition/heal acceptance runs even when iterating with test-fast).
test-faults:
	$(PYTHON) -m pytest -x -q tests/test_faults.py

# The reliable-delivery suite on its own: ack/retransmit/dedup unit tests,
# the accrual failure detector, the cross-shard bit-identity regression, and
# the slow chord loss-sweep acceptance (reliable=True dominates under loss).
test-reliable:
	$(PYTHON) -m pytest -x -q tests/test_reliable.py

# The cost-based planner suite on its own: the optimize×fused differential
# grid, plan unit tests, golden plan snapshots, and the slow full-run
# bit-identity acceptance (chord static + churn, optimized vs naive).
test-planner:
	$(PYTHON) -m pytest -x -q tests/test_planner_opt.py tests/test_golden_plans.py

# Static analysis over the bundled overlays and every example program;
# --strict makes warnings (dead rules, unread tables, ...) fail the build.
lint: check-pythonpath
	$(PYTHON) -m repro.overlog.check --strict \
	  --overlay chord --overlay narada --overlay gossip --overlay pingpong \
	  $(wildcard examples/*.olg)

# Determinism lint over the engine's own Python (DET0xx codes): wall-clock
# reads, PYTHONHASHSEED-dependent hash()/seeds, global-RNG draws, unsorted
# set iteration on emit paths, out-of-control-plane fault mutation.
# --strict makes stale-pragma warnings fail too; the tree must stay clean.
lint-py: check-pythonpath
	$(PYTHON) -m repro.detlint --strict src/repro benchmarks

# The repo benchmark's own self-test (perfbench/): runs every workload at a
# tiny size through the engine's construction signatures, so a refactor that
# breaks a workload's set-up fails here rather than in a benchmark run.
perfbench-selftest: check-pythonpath
	$(PYTHON) perfbench/selftest.py

# Interleaved A/B of the repo benchmark: this checkout against the committed
# files of BASE, alternating which side runs first each round; prints each
# end-to-end metric's per-side median and quartiles and the change's wins.
BASE ?= HEAD
WORKLOAD ?= chord_churn
ROUNDS ?= 10
SEED ?= 1
perf-ab: check-pythonpath
	$(PYTHON) benchmarks/perf_ab.py --base $(BASE) --workload $(WORKLOAD) --rounds $(ROUNDS) --seed $(SEED)

# The quick loop: everything except the multi-second Figure 3/4 experiment
# sweeps (marked `slow`); stays well under 30 seconds.
test-fast:
	$(PYTHON) -m pytest -x -q -m "not slow"

# A command-line PYTHONPATH override (`make bench PYTHONPATH=...`) silently
# replaces the export above; fail loudly instead of benchmarking a stale or
# missing package.  A path component ending in 'src' (relative or absolute)
# counts as included.
check-pythonpath:
	@case ":$(PYTHONPATH):" in \
	  *:src:*|*/src:*) ;; \
	  *) echo "error: PYTHONPATH ('$(PYTHONPATH)') does not include 'src';" \
	     "benchmarks would not import the in-tree package" >&2; exit 1 ;; \
	esac

# The newest committed benchmark baseline, e.g. BENCH_PR4.json (version sort
# so BENCH_PR10 orders after BENCH_PR9).
LATEST_BENCH := $(shell ls BENCH_PR*.json 2>/dev/null | sort -V | tail -1)

# Tier-1 suite plus the quick benchmark sweep — the one-command CI target.
# The regression gate re-runs the (full-mode, seconds-cheap) micro benches
# and fails on any >25% slowdown against the newest committed baseline; the
# multi-second fig3/fig4 rows are gated when producing a full BENCH_PR file.
bench: check-pythonpath test-faults test-planner test-reliable test lint lint-py perfbench-selftest
	$(PYTHON) -m benchmarks --quick
ifneq ($(LATEST_BENCH),)
	$(PYTHON) -m benchmarks --only micro --compare $(LATEST_BENCH)
else
	@echo "no BENCH_PR*.json baseline committed; skipping regression gate"
endif

# The full sweep used to produce the committed BENCH_*.json baselines,
# gated against the newest committed baseline.
bench-full: check-pythonpath
	$(PYTHON) -m benchmarks --output BENCH_CURRENT.json $(if $(LATEST_BENCH),--compare $(LATEST_BENCH))
