#!/bin/sh
# check.sh — the repository's verification gate (same steps as `make check`):
# build everything, vet everything, fail if gofmt would reformat any .go
# file of the main module's packages or of perfbench/ (a module of its own),
# run the full test suite under the race detector, run every Go benchmark
# once (go test compiles benchmarks but never runs them, so a benchmark
# that fails at run time would otherwise pass), run the doc lint (every
# exported identifier in internal/trace, internal/faults, internal/spans,
# and the internal/sim kernel must carry a doc comment, and each package a
# package-level comment; see doclint_test.go at the root), and vet and test
# perfbench, which the root ./... patterns skip: it compiles against the
# main module's API, so a change that breaks it fails here rather than in a
# benchmark run.
set -eu

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

echo "== gofmt -l (main module packages + perfbench/)"
# Package directories are listed one level deep: the root package's
# directory also holds perfbench/ and build output.
unformatted=$(for d in $(go list -f '{{.Dir}}' ./...); do gofmt -l "$d"/*.go; done; gofmt -l perfbench)
if [ -n "$unformatted" ]; then
	echo "$unformatted"
	echo "check: gofmt would reformat the files above; run gofmt -w on them"
	exit 1
fi

echo "== go test -race ./..."
go test -race ./...

echo "== go test -bench . -benchtime 1x ./... (each benchmark once)"
go test -run '^$' -bench . -benchtime 1x ./...

echo "== doc lint (internal/trace + internal/faults + internal/spans + internal/sim exported identifiers)"
go test . -run TestExportedIdentifiersHaveDocComments -count=1

echo "== perfbench: go vet ./... && go test ./..."
(cd perfbench && go vet ./... && go test ./...)

echo "check: OK"
