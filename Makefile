# Developer/CI entry points.
#
#   make test             -- the tier-1 verification suite (tests/ only; slow-marked
#                            suites are deselected via pytest.ini)
#   make check            -- tier-1 tests + every example scenario via the CLI
#                            + experiments smoke
#                            + benchmark trajectory gate + example scripts
#                            (CI gate)
#   make check-parallel   -- tier-1 + the slow parity/stress suites + a smoke run
#                            of the campaign-throughput benchmark
#   make check-procs      -- the multi-process tier: procpool unit tests plus the
#                            slow cross-backend (virtual vs process) parity sweep
#   make check-bench      -- smoke-regenerate benchmarks/results/, then diff
#                            against the baseline; any flip or numeric move fails
#   make check-keyed      -- the keyed-scheme/attacker-model tier: both unit
#                            suites, the round fast-path, round-plan and
#                            checkpoint suites, plus an entropy-experiment
#                            smoke via the CLI
#   make check-corpus     -- the scenario-corpus tier: corpus/seed unit suites
#                            and the host-image/filesystem suites, then
#                            generate a small corpus and run the corpus
#                            experiment over it (scorecard must be all-pass)
#   make check-load       -- the open-loop load tier: arrivals/admission and
#                            checkpoint/migration unit suites, a seeded loadtest
#                            smoke via the CLI, the migration round-trip
#                            scenario, and the committed-figure freshness check
#   make check-gc         -- the reference-cycle tier: every example scenario,
#                            run warm and then again with the garbage collector
#                            off, must leave no cyclic garbage
#   make round-budget     -- the interpreter work of one lockstep round (Python
#                            calls and object.__new__ per round on three fixed
#                            shapes) and of one corpus cell against their pinned
#                            budgets, and the memory
#                            reading every response of the fleet shape adds
#                            (at most 5% of its bytes), figures printed
#   make figures          -- re-render benchmarks/figures/ from the committed
#                            benchmark results
#   make experiments-smoke -- every registered experiment at its smallest spec,
#                            via the CLI (claims gate the exit code)
#   make bench            -- every benchmark, with timing; each writes
#                            benchmarks/results/BENCH_<name>.json
#   make bench-smoke      -- every benchmark once, no timing (fast CI exercise;
#                            the procpool bench runs its tiny smoke matrix)
#   make bench-procpool-smoke -- just the process-tier benchmark's smoke matrix
#   make bench-diff       -- per-metric deltas of benchmarks/results/ against
#                            the committed benchmarks/baseline/ snapshot
#   make bench-wall       -- the wall-clock benchmark's own tests, then 3 s of
#                            each workload; fails only on a wrong output, never
#                            on a timing (not part of `make check`)
#   make examples         -- run each example script end to end
#   make size             -- the line count of src/ (the ROADMAP's size figure);
#                            printed, never gated

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

# bench_diff.py is the trajectory-diff tool, not a pytest benchmark.
BENCHES := $(filter-out benchmarks/bench_diff.py,$(wildcard benchmarks/bench_*.py))
EXAMPLES := $(wildcard examples/*.py)
SCENARIOS := $(wildcard examples/scenarios/*.json)

.PHONY: test check check-parallel check-procs check-bench check-keyed \
	check-corpus check-apps check-load check-gc round-budget experiments-smoke bench bench-smoke \
	bench-procpool-smoke bench-diff bench-wall figures examples size

test:
	$(PYTHON) -m pytest -x -q

check: test experiments-smoke check-keyed check-corpus check-apps check-load check-gc check-bench examples
	@set -e; for scenario in $(SCENARIOS); do \
		echo "== scenario $$scenario"; \
		$(PYTHON) -m repro run $$scenario > /dev/null; \
	done
	$(PYTHON) -m repro run examples/scenarios/campaign.json --workers 8 > /dev/null
	$(PYTHON) -m repro run examples/scenarios/campaign.json --backend process --workers 2 > /dev/null
	@echo "check ok: tier-1 tests + experiments smoke + bench gate + CLI scenario smoke + examples"

# Every registered experiment at its smallest meaningful parameters, through
# the same CLI path users take; a failed claim fails the target, and so does
# a broken (or empty) registry listing.
experiments-smoke:
	@set -e; names=$$($(PYTHON) -m repro experiments --names); \
	test -n "$$names" || { echo "experiments-smoke: no experiments listed" >&2; exit 1; }; \
	for name in $$names; do \
		echo "== experiment $$name (smoke)"; \
		$(PYTHON) -m repro experiment $$name --smoke > /dev/null; \
	done; echo "experiments-smoke ok: every registered experiment ran clean"

# The engine-parallel gate: the serial-parity property suite and the
# scheduler stress tests (both marked `slow`, deselected from tier-1), then
# one assertion-only pass of the campaign-throughput benchmark.
check-parallel: test
	$(PYTHON) -m pytest -q -m slow tests/test_campaign_parallel.py tests/test_engine_concurrency.py
	$(PYTHON) -m pytest benchmarks/bench_campaign_throughput.py -q --benchmark-disable
	@echo "check-parallel ok: tier-1 + parity/stress suites + campaign bench smoke"

# The multi-process tier gate: the procpool unit suite (real forked workers),
# the slow cross-backend parity sweep (virtual vs process at 1/2/4 workers),
# and the wall-clock benchmark's smoke matrix.
check-procs:
	$(PYTHON) -m pytest -q tests/test_procpool.py
	$(PYTHON) -m pytest -q -m slow tests/test_campaign_parallel.py
	BENCH_PROCPOOL_SMOKE=1 $(PYTHON) -m pytest benchmarks/bench_procpool.py -q --benchmark-disable
	@echo "check-procs ok: procpool unit suite + cross-backend parity + bench smoke"

# The keyed tier gate: keyed-scheme determinism/rotation, the attacker-model
# suite (including the process-backend parity and WorkerError CLI checks),
# the round fast-path suite (a UID decode must follow a key rotation), the
# round-plan suite (every session's per-name plan equals the
# layered definition, and a key-rotating restart leaves no stale plan), the
# checkpoint suite (restore installs each recorded secret through
# Variation.rekey, and refuses secrets at any but the keyed positions), and
# one seeded entropy-experiment smoke through the CLI.
check-keyed:
	$(PYTHON) -m pytest -q tests/test_keyed_schemes.py tests/test_security_attacker.py \
		tests/test_round_fast_path.py tests/test_round_plan.py tests/test_load_checkpoint.py
	$(PYTHON) -m repro experiment entropy --smoke --seed 20080625 > /dev/null
	@echo "check-keyed ok: keyed schemes + attacker suite + fast-path, round-plan and checkpoint suites + entropy smoke"

# The scenario-corpus gate: the corpus/oracle/scorecard unit suite, the
# seed/boundary properties, and the host-image suites every cell's host rests
# on (the copy-on-write image, the filesystem, the account databases and open
# files), then a generate -> run round trip through the CLI (a written smoke
# corpus, graded end to end on the process backend; any scorecard miss fails
# the experiment's claims and with them the target).
check-corpus:
	$(PYTHON) -m pytest -q tests/test_corpus.py tests/test_seed_and_boundaries.py tests/test_host_image.py \
		tests/test_kernel_filesystem.py tests/test_kernel_passwd_and_filetable.py
	@set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(PYTHON) -m repro corpus generate --seed 20080625 --records 60 --out "$$dir" > /dev/null; \
	$(PYTHON) -m repro experiment corpus --corpus-dir "$$dir" --set backend=process --set workers=4 > /dev/null
	@echo "check-corpus ok: corpus + host-image suites + generated-corpus scorecard all-pass"

# The second-workload gate: the interposition-table and fd-orbit unit suites,
# the ftpd suite, the cross-app parity matrix, the fd-orbit slice of the
# partition-scheme invariant sweep, then the apps experiment's claims (the
# virtual-backend smoke) and one ftpd campaign scenario through the CLI.
check-apps:
	$(PYTHON) -m pytest -q tests/test_interpose.py tests/test_fdspace.py \
		tests/test_apps_ftpd.py tests/test_cross_app_parity.py
	$(PYTHON) -m pytest -q tests/test_partition_schemes.py -k "fd"
	$(PYTHON) -m repro experiment apps --smoke > /dev/null
	$(PYTHON) -m repro run examples/scenarios/ftpd_campaign.json > /dev/null
	@echo "check-apps ok: interposition + fd-orbit + ftpd suites, parity, apps smoke"

# The open-loop load gate: the arrivals/admission/latency/driver unit suite
# and the checkpoint/restore/migration property suite, a seeded loadtest
# experiment smoke through the CLI (claims gate the exit code), the example
# scenario's bursty-overload + mid-run-migration round trip, and the check
# that the committed figures match the committed benchmark results.
check-load:
	$(PYTHON) -m pytest -q tests/test_load_subsystem.py tests/test_load_checkpoint.py
	$(PYTHON) -m repro experiment loadtest --smoke --seed 20080625 > /dev/null
	$(PYTHON) -m repro run examples/scenarios/loadtest.json > /dev/null
	$(PYTHON) benchmarks/render_figures.py --check
	@echo "check-load ok: load suites + loadtest smoke + migration scenario + figures"

# The reference-cycle gate: the slow-marked sweep of tests/test_reference_cycles.py
# runs every example scenario through run_scenario twice, the second time with
# the garbage collector disabled; any object only the cyclic collector could
# free fails it.  (Its tier-1 cases cover a corpus slice, an open-loop run and
# an engine fleet.)
check-gc:
	$(PYTHON) -m pytest -q -m slow tests/test_reference_cycles.py
	@echo "check-gc ok: every example scenario frees itself by reference counting"

# The round-budget gate: per lockstep round, the Python calls and object.__new__
# constructions of a 2-session httpd fleet, a three-variant ftpd session and a
# corpus slice, and the same two counts per corpus cell of that slice, must stay
# within 5% of the figures tests/test_round_budget.py pins, and reading every
# response of the fleet shape may add at most 5% of the response bytes to traced
# memory (also part of tier-1; here with the figures printed).
round-budget:
	$(PYTHON) -m pytest -q -s tests/test_round_budget.py -k "within_its_budget or corpus_cell or byte_budget"
	@echo "round-budget ok: every shape's round, a corpus cell and the response read within their budgets"

figures:
	$(PYTHON) benchmarks/render_figures.py

# The benchmark trajectory gate: regenerate results/ in smoke mode (virtual-time
# payloads are deterministic, so a clean tree reproduces the committed files),
# then diff against the committed baseline exactly: any non-numeric flip and
# any numeric move (wall_ metrics aside) fails.  A PR that changes a virtual
# figure on purpose refreshes benchmarks/baseline/ in the same commit.
check-bench: bench-smoke
	$(PYTHON) benchmarks/bench_diff.py --fail-on-flip --fail-on-move --rtol 0
	@echo "check-bench ok: benchmark trajectory matches the committed baseline"

bench:
	$(PYTHON) -m pytest $(BENCHES) -q --benchmark-only -s

# --benchmark-disable runs every benchmarked function exactly once as a plain
# test, so CI exercises each benchmark's assertions without paying for timing
# rounds.  BENCH_PROCPOOL_SMOKE shrinks the wall-clock benchmark to its tiny
# matrix and keeps it from overwriting its committed (full-run) results file.
bench-smoke:
	BENCH_PROCPOOL_SMOKE=1 $(PYTHON) -m pytest $(BENCHES) -q --benchmark-disable

bench-procpool-smoke:
	BENCH_PROCPOOL_SMOKE=1 $(PYTHON) -m pytest benchmarks/bench_procpool.py -q --benchmark-disable

# Cross-PR benchmark trajectory: compare the current results/ files against
# the committed baseline/ snapshot and print per-metric deltas.
bench-diff:
	$(PYTHON) benchmarks/bench_diff.py

# The wall-clock benchmark (wallbench/): its unit tests, then a short run of
# every workload.  run.py exits 1 only when a pass's outputs fail their check
# (a wrong byte, a scorecard miss, a lost request); timings are printed, never
# gated, because they are noisy on a small shared host.
WALL_WORKLOADS := fleet-httpd corpus-grade openloop-ftpd

bench-wall:
	$(PYTHON) -m pytest -q wallbench/
	@set -e; for workload in $(WALL_WORKLOADS); do \
		echo "== wallbench $$workload"; \
		$(PYTHON) wallbench/run.py --workload $$workload --seconds 3 --trace 0; \
	done; echo "bench-wall ok: every workload's outputs checked"

examples:
	@set -e; for example in $(EXAMPLES); do \
		echo "== $$example"; \
		$(PYTHON) $$example > /dev/null; \
	done; echo "all examples ok"

# The size figure every change reports, counted as ROADMAP.md counts it.
size:
	@find src -name '*.py' | xargs cat | wc -l
