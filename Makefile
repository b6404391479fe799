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

# Every fuzz target in the repository, each run for FUZZTIME (CI runs
# `make fuzz FUZZTIME=20s`). TestFuzzTargetsListed fails when a Fuzz
# function is missing here.
FUZZTIME ?= 30s
FUZZ = go test -fuzztime=$(FUZZTIME) -fuzz
fuzz:
	$(FUZZ)='FuzzParse$$' ./internal/petri/
	$(FUZZ)='FuzzParsePN$$' ./internal/petri/
# Differential fuzz of net construction: random Builder operations
# (repeated arcs, overflowing weights, markings, interleaved Build
# calls) must give the map-based reference builder's nets.
	$(FUZZ)='FuzzBuilderMatchesReference$$' ./internal/petri/
# The firing rule on random nets and firing scripts: no panic, markings
# stay non-negative, and Fire errors exactly when Enabled is false.
	$(FUZZ)='FuzzFiring$$' ./internal/petri/
	$(FUZZ)='FuzzScheduleReplay$$' ./internal/sim/
# Differential fuzz of the margin search: probes that stop at their
# first violating window must report what full-length probes report.
	$(FUZZ)='FuzzMarginEarlyStop$$' ./internal/sim/
# Differential fuzz of the exact-arithmetic ladder: the int64 tier
# must reproduce the big.Int reference or refuse.
	$(FUZZ)='FuzzFarkasLadder$$' ./internal/linalg/
# Differential fuzz of the incremental semiflow restriction: whenever
# it claims exactness it must match the from-scratch Farkas reference.
	$(FUZZ)='FuzzRestrictTInvariants$$' ./internal/invariant/
# Differential fuzz of the kept-set Definition 3.5 sweep: every
# distinct reduction of a generated net must be restriction-exact, and
# restricting the parent's semiflows must match Farkas on each subnet.
	$(FUZZ)='FuzzCheckReductionKeptSets$$' ./internal/core/
# Differential fuzz of the distinct-reduction search: on generated nets
# it must find exactly the kept-transition sets that reducing every
# T-allocation finds, each once, and CompareKept must order them.
	$(FUZZ)='FuzzDistinctReductions$$' ./internal/core/
# Differential fuzz of the weakly-hard (m,k) monitor: the O(1)
# sliding-window automaton must agree with the brute-force oracle.
	$(FUZZ)='FuzzWeaklyHard$$' ./internal/timing/
# Differential fuzz of the coordinator's byte-level replies: a backend
# envelope with the routing fields spliced in must equal the encoder's
# output for the coordinator's envelope.
	$(FUZZ)='FuzzEnvelopeSplice$$' ./internal/coord/
# Differential fuzz of the schedule export's name-sorted entries: they
# must marshal as the maps they replace, with and without HTML
# escaping, and decode any JSON exactly as the map type does.
	$(FUZZ)='FuzzExportJSON$$' ./internal/core/

# Every example program (CI runs `make examples`). TestExamplesListed
# fails when an examples/*/main.go is missing here.
examples:
	go run ./examples/quickstart
	go run ./examples/multirate
	go run ./examples/pipeline
	go run ./examples/multitask
	go run ./examples/protocol
	go run ./examples/atmserver
	go run ./examples/modem

atmbench:
	go run ./cmd/atmbench

clean:
	rm -f cover.out test_output.txt bench_output.txt
