# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test perfbench-test bench phase-baseline phase-gate cover fuzz examples atmbench clean

all: build test

build:
	go build ./...
	go vet ./...

test:
	go test ./...

# perfbench/ is its own Go module (the repository benchmark), so the root
# `go test ./...` skips it; this vets and tests it against the checkout.
perfbench-test:
	cd perfbench && go vet ./... && go test ./...

# Regenerates every paper table/figure plus the ablations.
bench:
	go test -bench=. -benchmem ./...

# Phase-regression gate (see docs/TRACING.md): run a small fixed traced
# corpus three times and compare each phase's best total time (>2x
# fails) and its count (>1.25x fails) against the committed
# BENCH_phases.json. phase-baseline refreshes the committed baseline from
# the same runs. The corpus runs on one worker: phase totals sum
# wall-clock spans over workers, so contention on a multi-core host
# would inflate them. Best of three because a single serial run on a
# shared host still reads a phase well past its usual time now and then.
PHASE_CORPUS = -gen 20 -gen-seed 1 -workers 1 -mk 9,10 -margin
PHASE_RUNS = 1 2 3
PHASE_REPORTS = $(foreach i,$(PHASE_RUNS),-report /tmp/phasegate_run$(i).json)
phase-gate:
	for i in $(PHASE_RUNS); do go run ./cmd/qssd $(PHASE_CORPUS) -o /tmp/phasegate_run$$i.json || exit 1; done
	go run ./cmd/phasegate $(PHASE_REPORTS) -baseline BENCH_phases.json

phase-baseline:
	for i in $(PHASE_RUNS); do go run ./cmd/qssd $(PHASE_CORPUS) -o /tmp/phasegate_run$$i.json || exit 1; done
	go run ./cmd/phasegate $(PHASE_REPORTS) -baseline BENCH_phases.json -write

cover:
	go test -coverprofile=cover.out ./...
	go tool cover -func=cover.out | tail -1

fuzz:
	go test -fuzz='FuzzParse$$' -fuzztime=30s ./internal/petri/
	go test -fuzz='FuzzParsePN$$' -fuzztime=30s ./internal/petri/
	go test -fuzz='FuzzBuilderMatchesReference$$' -fuzztime=30s ./internal/petri/
	go test -fuzz='FuzzScheduleReplay$$' -fuzztime=30s ./internal/sim/
	go test -fuzz='FuzzMarginEarlyStop$$' -fuzztime=30s ./internal/sim/
	go test -fuzz='FuzzFarkasLadder$$' -fuzztime=30s ./internal/linalg/
	go test -fuzz='FuzzRestrictTInvariants$$' -fuzztime=30s ./internal/invariant/
	go test -fuzz='FuzzCheckReductionKeptSets$$' -fuzztime=30s ./internal/core/
	go test -fuzz='FuzzWeaklyHard$$' -fuzztime=30s ./internal/timing/
	go test -fuzz='FuzzEnvelopeSplice$$' -fuzztime=30s ./internal/coord/
	go test -fuzz='FuzzSchedCodec$$' -fuzztime=30s ./internal/engine/
	go test -fuzz='FuzzExportJSON$$' -fuzztime=30s ./internal/core/

examples:
	go run ./examples/quickstart
	go run ./examples/multirate
	go run ./examples/pipeline
	go run ./examples/multitask
	go run ./examples/protocol
	go run ./examples/atmserver

atmbench:
	go run ./cmd/atmbench

clean:
	rm -f cover.out test_output.txt bench_output.txt
