# Developer entry points. `make check` is the verification gate run before
# every commit: build + vet + gofmt + race-enabled tests + one run of every
# Go benchmark + the doc lints + vet and tests of perfbench (a module of
# its own, which ./... skips).

GO ?= go

.PHONY: check build vet test lint bench golden digests fuzz

check:
	./check.sh

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# lint fails if an exported identifier in internal/trace,
# internal/faults, internal/spans or internal/sim lacks a doc comment, or
# one of them lacks a package comment — the trace schema, the fault
# models, the span analysis and the simulation kernel are documented
# contracts (docs/OBSERVABILITY.md, docs/RESILIENCE.md,
# docs/ARCHITECTURE.md). The test is doclint_test.go at the root.
lint:
	$(GO) test . -run TestExportedIdentifiersHaveDocComments -count=1

# digests runs the repository benchmark for one second on each of its four
# workloads at seeds 20060815 and 4242 and fails unless every run passes
# its correctness checks and prints the digest committed in
# bench_digests.txt (about 35 s; not part of check).
digests:
	./bench_digests.sh

# fuzz fuzzes clustering against its map-based reference implementation
# for 60 s (FuzzRunMatchesReference in internal/cluster; not part of
# check). Minimizing each new input is capped at 2 s; at the default of
# 60 s the workers spend the run shrinking inputs grown from the 5 KB
# seeds and the execution count stands still.
fuzz:
	$(GO) test ./internal/cluster -run '^$$' -fuzz '^FuzzRunMatchesReference$$' -fuzztime 60s -fuzzminimizetime 2s

# bench runs the paper-exhibit benchmarks at reduced scale.
bench:
	$(GO) test -bench=. -benchmem

# golden regenerates the byte-stable JSONL trace golden files (healthy
# and degraded) after an intentional schema change (update
# docs/OBSERVABILITY.md / docs/RESILIENCE.md alongside), and the Quick
# sweep's goldens — report JSON, text tables and CSV tables — one set per
# build (the race build runs fewer requests), after an intentional exhibit
# change (record it in EXPERIMENTS.md).
golden:
	UPDATE_GOLDEN=1 $(GO) test ./internal/tapesys -run Golden -count=1
	UPDATE_GOLDEN=1 $(GO) test ./internal/experiments -run TestSweepDeterminismAcrossWorkers -count=1
	UPDATE_GOLDEN=1 $(GO) test -race ./internal/experiments -run TestSweepDeterminismAcrossWorkers -count=1
