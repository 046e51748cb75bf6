.PHONY: all build test cross-check-dpor check-parallel bench bench-faults bench-crash bench-explore bench-parallel bench-dpor bench-sampling bench-serve bench-serve-durable bench-smoke bench-figures-unchanged fuzz-smoke serve-smoke serve-crash-smoke perfbench-smoke perf-ab ci clean

all: build

build:
	dune build @all

test:
	dune runtest

# Verdict cross-check along the reduction axis: the dedicated source-DPOR
# suite re-verifies every Faulty.* and positive scenario against the
# unpruned engine (verdict and replayed witness), then the scenario /
# verify / fault / timeout suites re-run with CAL_EXPLORE_STRATEGY=dpor so
# every obligation check in them decides with the DPOR engine instead of
# the DFS. The full suite is deliberately not run under the override:
# off the Dfs strategy an obligation check ignores ?preemption_bound (the
# strategy alone defines the run set), so suites that lean on a
# preemption bound for their largest scenarios would explore the full
# unbounded space.
cross-check-dpor:
	dune exec test/test_dpor.exe
	CAL_EXPLORE_STRATEGY=dpor dune exec test/test_scenarios.exe
	CAL_EXPLORE_STRATEGY=dpor dune exec test/test_verify.exe
	CAL_EXPLORE_STRATEGY=dpor dune exec test/test_faults.exe
	CAL_EXPLORE_STRATEGY=dpor dune exec test/test_timeouts.exe

# Verdict cross-check along the domain axis: the whole suite must pass
# identically with every exploration spread over two worker domains and
# the shared verdict cache on. Oversubscription lifts the hardware cap so
# the two workers genuinely run (and steal) even on a one-core box.
check-parallel:
	CAL_EXPLORE_DOMAINS=2 CAL_EXPLORE_OVERSUBSCRIBE=1 CAL_VERDICT_CACHE=1 dune runtest --force

# Bechamel tables plus every figure at reduced fuel ("quick"); its JSON goes
# to _build/bench-smoke/, never over the committed BENCH_*.json.
bench:
	dune exec bench/main.exe -- quick

# Regenerate BENCH_faults.json, BENCH_timeouts.json, BENCH_explore.json and
# BENCH_crash.json at full fuel.
bench-faults:
	dune exec bench/main.exe -- faults

# Regenerate only BENCH_crash.json (the B13 crash-recovery sweep) at full
# fuel.
bench-crash:
	dune exec bench/main.exe -- crash

# Regenerate only BENCH_explore.json (the B12 exploration-engine cost
# figure: whole-prefix replay vs the incremental engine) at full fuel.
bench-explore:
	dune exec bench/main.exe -- explore

# Regenerate only BENCH_parallel.json (the B14 parallel-exploration +
# verdict-cache figure) at full fuel. Asserts in-process that every cell
# reports byte-identical verdicts and that every multi-worker cell stole
# work; on hardware with >= 4 cores it additionally requires the headline
# scenario cache-off at 4 domains >= 3x and cached >= 2x over the
# sequential engine (single-core boxes run the domain axis oversubscribed,
# where wall-clock asserts would only measure timesharing).
bench-parallel:
	dune exec bench/main.exe -- parallel

# Regenerate only BENCH_dpor.json (the B18 reduction figure) at full fuel:
# source-DPOR vs the unreduced incremental DFS on the treiber/exchanger
# scenarios (in-process asserts: >= 5x fewer runs, identical verdicts) and
# the smallest delay bound at which the delay-bounded DFS finds each
# Faulty.* bug (asserted <= 2).
bench-dpor:
	dune exec bench/main.exe -- dpor

# Regenerate only BENCH_sampling.json (the B15 sampled-checking figure):
# detection rate and mean shrunk-witness size vs run budget, per sampler
# kind (random walk, PCT, preemption-bounded random), fixed seeds.
bench-sampling:
	dune exec bench/main.exe -- sampling

# Regenerate only BENCH_serve.json (the B16 streaming-service figure):
# sustained ops/sec and p50/p99 verdict latency for >= 1000 concurrent
# object sessions, plus an overload cell reporting the degradation level.
bench-serve:
	dune exec bench/main.exe -- serve

# Regenerate only BENCH_serve_durable.json (the B17 durability figure):
# write-ahead journal tax against the B16 sequential cell (the default
# group-commit setting must stay within 25% of the journal-less
# baseline) and recovery time vs the replayed journal suffix across
# snapshot cadences.
bench-serve-durable:
	dune exec bench/main.exe -- serve-durable

# Low-fuel variant of the same figures, for CI. Includes the crash sweep.
# Writes its JSON to _build/bench-smoke/: the committed BENCH_*.json in the
# repo root hold the full-fuel figures and stay untouched (CI checks this
# with git diff). The reduced serve benches (bench/main.exe serve-smoke and
# serve-durable-smoke) write there too.
bench-smoke:
	dune exec bench/main.exe -- smoke

# Reduced bench runs write to _build/bench-smoke/: the committed
# BENCH_*.json figures must come out of them untouched.
bench-figures-unchanged:
	git diff --exit-code -- 'BENCH_*.json'

# Pipe the fixture stream (valid + malformed + crash-marker frames)
# through `calc serve` and assert the event transcript byte-for-byte.
serve-smoke:
	dune exec bin/calc.exe -- serve --tick-every 6 --idle-timeout 2 --summary \
	  examples/serve_fixture.txt > _build/serve_fixture.out
	diff -u examples/serve_fixture.expected _build/serve_fixture.out
	@echo "serve-smoke: transcript matches byte-for-byte"

# Fixed-seed short sampled pass over every scenario (positive and faulty,
# durable included): every verdict must match the scenario's expectation,
# and the first minimized failure report is printed as the witness-renderer
# smoke test. Deterministic — safe for CI.
fuzz-smoke:
	dune exec bench/main.exe -- fuzz

# Kill -9 the journaling daemon at fixed pseudo-random frame positions,
# resume from snapshot + journal, and assert the resumed summary and
# final snapshot are byte-identical to an uninterrupted run (latched
# violations included). Also covers the partial-stream resume path, the
# socket front-end end to end, and the one-line flag-validation errors.
serve-crash-smoke: build
	bash scripts/serve_crash_smoke.sh

# The repo benchmark (perfbench/, declared by BENCHMARK.json) in its smoke
# mode: every workload runs tiny, traced and untraced, and every named
# metric, unit and gate is checked — among them that the traced pass
# explored as many runs as the Obligations entry point. Refuses to run
# with any CAL_* variable set.
perfbench-smoke:
	python3 perfbench/run.py --smoke

# A/B of the repo benchmark: commit REV against the working tree, PAIRS
# interleaved pairs of untraced WORKLOAD runs (REV first on odd pairs).
# REV is exported with git archive to a directory outside the checkout.
# Prints each end-to-end metric's medians, quartiles, wins and verdict.
REV ?= HEAD
WORKLOAD ?= verify-modular
PAIRS ?= 10
perf-ab:
	python3 scripts/perf_ab.py --rev $(REV) --workload $(WORKLOAD) --pairs $(PAIRS)

ci: build test cross-check-dpor check-parallel bench-smoke bench-figures-unchanged fuzz-smoke serve-smoke serve-crash-smoke perfbench-smoke

# dune clean only touches _build; the committed BENCH_*.json figures in the
# repo root are regenerated by bench targets, never deleted here.
clean:
	dune clean
