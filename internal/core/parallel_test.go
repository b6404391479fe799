package core

import (
	"encoding/json"
	"runtime"
	"testing"

	"fcpn/internal/figures"
	"fcpn/internal/netgen"
	"fcpn/internal/petri"
)

// solveOutcome captures everything observable about a Solve call in a
// comparable form: the exported schedule (or the diagnostic) plus the
// buffer bounds.
func solveOutcome(t *testing.T, n *petri.Net, opt Options) string {
	t.Helper()
	s, err := Solve(n, opt)
	if err != nil {
		return "err: " + err.Error()
	}
	ex, jerr := json.Marshal(s.Export())
	if jerr != nil {
		t.Fatal(jerr)
	}
	bounds, berr := s.BufferBounds()
	if berr != nil {
		t.Fatal(berr)
	}
	b, jerr := json.Marshal(bounds)
	if jerr != nil {
		t.Fatal(jerr)
	}
	return string(ex) + "|" + string(b)
}

// TestSolveParallelDeterminism checks the acceptance criterion that the
// schedulability sweep is byte-identical across worker counts, on every
// figure net and a netgen corpus.
func TestSolveParallelDeterminism(t *testing.T) {
	var nets []*petri.Net
	for _, n := range figures.All() {
		nets = append(nets, n)
	}
	corpus := 50
	if testing.Short() {
		corpus = 10
	}
	for seed := uint64(0); seed < uint64(corpus); seed++ {
		nets = append(nets, netgen.RandomSchedulablePipeline(seed, netgen.DefaultConfig()))
	}
	for i, n := range nets {
		serial := solveOutcome(t, n, Options{})
		for _, opt := range []Options{
			{Workers: runtime.NumCPU()},
			{Workers: 4},
		} {
			if got := solveOutcome(t, n, opt); got != serial {
				t.Fatalf("net %q: outcome differs for %+v:\n%s\nvs\n%s", n.Name(), opt, got, serial)
			}
		}
		// The duplicate-keeping ablation path fans out over allocations;
		// spot-check it on a few nets (it is quadratically more work).
		if i%17 == 0 && CountAllocations(n) <= 64 {
			dupSerial := solveOutcome(t, n, Options{KeepDuplicateReductions: true})
			dupPar := solveOutcome(t, n, Options{KeepDuplicateReductions: true, Workers: 4})
			if dupSerial != dupPar {
				t.Fatalf("net %q: ablation outcome differs across worker counts", n.Name())
			}
		}
	}
}
