package core

import (
	"testing"

	"fcpn/internal/invariant"
	"fcpn/internal/netgen"
	"fcpn/internal/petri"
)

// FuzzCheckReductionKeptSets differentially fuzzes the kept-set
// Definition 3.5 sweep on generated nets. The fuzzer picks a netgen seed
// and generator (default pipeline, heavy pipeline, unconstrained net); for
// every net that passes Validate, every distinct reduction must be
// restriction-exact, and the sweep that restricts the parent's semiflows
// must distil exactly as the from-scratch reference that runs Farkas on
// every reduction's subnet.
func FuzzCheckReductionKeptSets(f *testing.F) {
	f.Add(uint64(1), uint8(0))
	f.Add(uint64(3), uint8(1))
	f.Add(uint64(111), uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, gen uint8) {
		var n *petri.Net
		switch gen % 3 {
		case 0:
			n = netgen.RandomSchedulablePipeline(seed, netgen.DefaultConfig())
		case 1:
			heavy := netgen.DefaultConfig()
			heavy.MaxSources, heavy.MaxDepth = 4, 5
			n = netgen.RandomSchedulablePipeline(seed, heavy)
		default:
			n = netgen.RandomNet(seed, netgen.DefaultConfig())
		}
		if n.Validate() != nil {
			return
		}
		reds, err := EnumerateDistinctReductions(n, 4096)
		if err != nil {
			return
		}
		for _, red := range reds {
			for _, t0 := range red.KeptTransitions() {
				for _, arcs := range [][]petri.ArcRef{n.Pre(t0), n.Post(t0)} {
					for _, a := range arcs {
						if !red.KeepsPlace(a.Place) {
							t.Fatalf("seed=%d gen=%d: reduction %v keeps %s but not its place %s",
								seed, gen, red.KeptTransitionNames(n), n.TransitionName(t0), n.PlaceName(a.Place))
						}
					}
				}
			}
		}
		parentTIs, err := invariant.TInvariants(n, invariant.Options{})
		if err != nil {
			return
		}
		want := distillOutcome(solveReductions(n, reds, Options{}, checkAids{}))
		got := distillOutcome(solveReductions(n, reds, Options{}, checkAids{parentTIs: parentTIs, haveParent: true}))
		if got != want {
			t.Fatalf("seed=%d gen=%d: kept-set sweep diverges from the reference:\n got: %s\nwant: %s", seed, gen, got, want)
		}
	})
}
