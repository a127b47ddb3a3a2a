.PHONY: all build test bench examples clean check bench-quick bench-ladder benchdiff chaos-quick keyed lint promcheck

all: build

build:
	dune build @all

test:
	dune runtest

# The tier-1 gate: formatting (dune files) + build + static analysis +
# full test suite + the seeded chaos smoke run + the enforced perf diff
# (a fresh quick ladder record over the place/* and controller/* rungs,
# compared against the previous one; noisy fits with r^2 < 0.9 are
# skipped).  The ladder appends to a copy under _build/, so `check`
# leaves the tracked BENCH_rod.json untouched; `make bench-ladder`
# appends to the tracked file.
CHECK_BENCH = _build/BENCH_rod.check.json

check:
	dune build @fmt
	dune build @all
	dune build @lint
	dune runtest
	dune build @chaos-quick
	dune build @keyed
	dune build @promcheck
	cp BENCH_rod.json $(CHECK_BENCH)
	dune exec bench/main.exe -- --quick --micro-only --only place/,controller/ --json $(CHECK_BENCH)
	dune exec tools/benchdiff/benchdiff.exe -- $(CHECK_BENCH)

# Static analysis: tools/rodcheck runs its four passes — lint
# (parse-tree rules), scan (determinism taint, pool races, hot-loop
# allocation), proto (migration-protocol typestate) and units
# (dimensional analysis of the load-model arithmetic) — over lib/ and
# bin/ against rodcheck.allow, writes _build/default/rod-analysis.sarif
# and runs the fixture self-test.  See DESIGN.md §8, §10, §13 and §15
# for the rule catalogues and escape hatches.
lint:
	dune build @lint

# Seeded fault-injection smoke suite: every chaos scenario in quick
# mode, judged by the differential oracles (fails the build on any
# oracle violation).
chaos-quick:
	dune build @chaos-quick

# Export Prometheus text from a seeded sim run and validate the
# exposition format (tools/promcheck).
promcheck:
	dune build @promcheck

# The keyed-parallelism gate alone: partitioner/sketch/split property
# suite (goldens, pool identity, tamper-negative oracle) plus the two
# keyed chaos scenarios.
keyed:
	dune build @keyed

bench:
	dune exec bench/main.exe

# Micro-benchmarks only, small quota; writes BENCH_rod.json next to the
# plain-text table so the perf trajectory across PRs stays diffable.
bench-quick:
	dune exec bench/main.exe -- --quick --micro-only

# The scale ladder only (under --micro-only, --only narrows by
# benchmark-name substring, comma-separated: `place/,controller/`
# selects every placement rung up to ROD-m10000-n256 plus the online
# replanner rung).  Appends a record to BENCH_rod.json.
bench-ladder:
	dune exec bench/main.exe -- --quick --micro-only --only place/,controller/

# Enforced perf gate (part of `check`): compares the newest
# BENCH_rod.json record against the previous one and fails on a >25%
# slowdown in any place/* or controller/* entry.  Entries with a poor
# OLS fit on either side (r^2 < 0.9) are shown but not judged — the
# estimate itself is noise, which is what keeps the gate enforceable
# on a shared box.
benchdiff:
	dune exec tools/benchdiff/benchdiff.exe -- BENCH_rod.json

examples:
	dune exec examples/quickstart.exe
	dune exec examples/network_monitoring.exe
	dune exec examples/financial_compliance.exe
	dune exec examples/join_queries.exe
	dune exec examples/clustered_deployment.exe
	dune exec examples/end_to_end.exe

clean:
	dune clean
