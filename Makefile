# Developer entry points. `make check` is the verification gate run before
# every commit: build + vet + gofmt + race-enabled tests + the doc lints.

GO ?= go

.PHONY: check build vet test lint bench golden

check:
	./check.sh

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# lint fails if an exported identifier in internal/trace,
# internal/faults, or internal/spans lacks a doc comment — the trace
# schema, the fault models, and the span analysis are documented
# contracts (docs/OBSERVABILITY.md, docs/RESILIENCE.md).
lint:
	$(GO) test ./internal/trace ./internal/faults ./internal/spans -run TestExportedIdentifiersHaveDocComments -count=1

# bench runs the paper-exhibit benchmarks at reduced scale.
bench:
	$(GO) test -bench=. -benchmem

# golden regenerates the byte-stable JSONL trace golden files (healthy
# and degraded) after an intentional schema change (update
# docs/OBSERVABILITY.md / docs/RESILIENCE.md alongside).
golden:
	UPDATE_GOLDEN=1 $(GO) test ./internal/tapesys -run Golden -count=1
