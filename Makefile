# Convenience wrappers around dune; see README.md "Reproducing the paper".

.PHONY: build test lint bench bench-smoke bench-determinism chaos-smoke couple-smoke serve-smoke attack-smoke perfbench-smoke clean

build:
	dune build @all

test:
	dune runtest

# Project-specific static analysis (see DESIGN.md "Static analysis").
# slp-lint reads the .cmt files of the build (hence the @check build
# first): resolved paths, so aliases cannot hide a banned call, plus the
# interprocedural analyses (rng-flow, pool-escape, decider-purity).
# Exits 1 on any unsuppressed finding, 2 on infrastructure/usage errors.
lint:
	dune build @check
	dune exec bin/slp_lint.exe -- --sarif _build/slp-lint.sarif lib bin bench perfbench

# Full harness: every table/figure of the paper plus ablations (minutes).
bench:
	dune exec bench/main.exe

# Seconds-scale end-to-end pass: centralized path, tiny ensembles.  Useful
# as a smoke test that the whole pipeline (tables, CSV mirrors,
# BENCH_micro.json) still runs.
bench-smoke:
	BENCH_FAST=1 BENCH_RUNS=2 dune exec bench/main.exe

# Determinism check: with BENCH_MICRO=0 (no timing sections) stdout is
# seed-determined, so two full-DES passes at different domain counts must
# diff clean.
bench-determinism:
	BENCH_RUNS=2 BENCH_MICRO=0 BENCH_DOMAINS=1 dune exec bench/main.exe > _build/bench_d1.out
	BENCH_RUNS=2 BENCH_MICRO=0 BENCH_DOMAINS=2 dune exec bench/main.exe > _build/bench_d2.out
	diff -u _build/bench_d1.out _build/bench_d2.out
	@echo "bench stdout byte-identical for BENCH_DOMAINS=1 and 2"

# Seeded fault-injection grid (lib/fault churn workload) plus the
# fault-layer determinism contract: identical (seed, plan) inputs must give
# byte-identical resilience JSON for BENCH_DOMAINS=1 and 2.
chaos-smoke:
	dune exec bin/slp_das_cli.exe -- chaos -d 7 -n 4 --crashes 2
	dune exec bin/slp_das_cli.exe -- chaos -d 7 -n 2 --slp \
	  --fault-plan "crash@500:k=2;revive@625:all" \
	  --domains 1 --resilience-json _build/chaos_d1.json > /dev/null
	dune exec bin/slp_das_cli.exe -- chaos -d 7 -n 2 --slp \
	  --fault-plan "crash@500:k=2;revive@625:all" \
	  --domains 2 --resilience-json _build/chaos_d2.json > /dev/null
	diff -u _build/chaos_d1.json _build/chaos_d2.json
	@echo "chaos resilience JSON byte-identical for --domains 1 and 2"

# Coupled sharding determinism: a coupled 101x101 run's observables JSON —
# schedule facts, attacker verdict and the merged engine counters over the
# cut-edge mailbox/window machinery — must be byte-identical to the
# single-cell run whatever the decomposition (--cells 1 vs 4) and wherever
# the cells execute (--domains 1 vs 2).  timeout(1) enforces the
# wall-clock budget; the large-grid timings live in the bench
# (BENCH_COUPLE=101,317,1000 make bench).
couple-smoke:
	timeout 120 dune exec bin/slp_das_cli.exe -- scale -d 101 \
	  --cells 1 --domains 1 --json _build/couple_c1.json > /dev/null
	timeout 120 dune exec bin/slp_das_cli.exe -- scale -d 101 \
	  --cells 4 --domains 1 --json _build/couple_c4_d1.json > /dev/null
	timeout 120 dune exec bin/slp_das_cli.exe -- scale -d 101 \
	  --cells 4 --domains 2 --json _build/couple_c4_d2.json > /dev/null
	diff -u _build/couple_c1.json _build/couple_c4_d1.json
	diff -u _build/couple_c4_d1.json _build/couple_c4_d2.json
	@echo "coupled observables byte-identical across cell and domain counts"

# Verification service determinism, over two query files: plain
# exhaustive verification, and the adversary zoo (every attacker class,
# exhaustive and Monte-Carlo, one duplicate line for the MC cache).  Each
# file's answers (JSON lines on stdout) must be byte-identical across
# --domains 1 and 2 on cold caches, and a warm rerun over the first run's
# on-disk cache must reproduce the cold output exactly — answers never
# depend on where they were computed.
SERVE_QUERIES_serve = 'dim=7 seed=1\ndim=7 seed=1 slp=true sd=2\ndim=9 seed=2 r=2 h=2 m=1 decide=history-avoiding\ndim=7 seed=1\n'
SERVE_QUERIES_attack = 'dim=7 seed=1\ndim=7 seed=1 attacker=global mc=64\ndim=7 seed=2 attacker=coop:3 mc=64\ndim=9 seed=2 attacker=sector-phantom mc=128\ndim=7 seed=1 attacker=local mc=64\ndim=7 seed=1 attacker=global mc=64\n'

serve-smoke: serve-smoke-serve
attack-smoke: serve-smoke-attack

serve-smoke-%:
	printf $(SERVE_QUERIES_$*) > _build/$*_queries.txt
	rm -rf _build/$*_cache_a _build/$*_cache_b
	dune exec bin/slp_das_cli.exe -- serve _build/$*_queries.txt \
	  --domains 1 --cache-dir _build/$*_cache_a > _build/$*_d1.out
	dune exec bin/slp_das_cli.exe -- serve _build/$*_queries.txt \
	  --domains 2 --cache-dir _build/$*_cache_b > _build/$*_d2.out
	diff -u _build/$*_d1.out _build/$*_d2.out
	dune exec bin/slp_das_cli.exe -- serve _build/$*_queries.txt \
	  --domains 1 --cache-dir _build/$*_cache_a > _build/$*_warm.out
	diff -u _build/$*_d1.out _build/$*_warm.out
	@echo "$* answers byte-identical across domain counts and warm cache"

# Discrete-event drift check: one traced second of each DES workload of the
# repository benchmark at seed 1.  perfbench compares every output line
# (capture rows, schedule digests, event counters) against
# perfbench/expected/; the result line must say "correct":true with no
# failed operation.
perfbench-smoke:
	@mkdir -p _build
	@for w in fig5_des des_churn; do \
	  bash perfbench/run.sh --workload $$w --seed 1 --seconds 1 --trace 1 \
	    > _build/perfbench_$$w.out || exit 1; \
	  last=$$(tail -n 1 _build/perfbench_$$w.out); \
	  case "$$last" in *'"correct":true,'*) ;; \
	    *) echo "perfbench-smoke: $$w output differs from perfbench/expected/$$w.txt" >&2; exit 1;; esac; \
	  case "$$last" in *'"failed":0,'*) ;; \
	    *) echo "perfbench-smoke: $$w had failed operations" >&2; exit 1;; esac; \
	  echo "perfbench-smoke: $$w correct, no failed operations"; \
	done

clean:
	dune clean
