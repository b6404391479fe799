package core

import (
	"fmt"
	"slices"
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

// FuzzDistinctReductions holds the distinct-reduction search to the
// allocation product on RandomNet nets with at most 4,096 allocations:
// the search's reductions keep exactly the transition sets Reduce keeps
// over every allocation, each once; each keeps what Reduce keeps under
// its own allocation; and CompareKept is antisymmetric, returns 0 only
// for equal sets, and sorts first the reduction that keeps the
// lowest-indexed transition the other removes.
func FuzzDistinctReductions(f *testing.F) {
	f.Add(uint64(1))
	f.Add(uint64(46))
	f.Add(uint64(111))
	f.Fuzz(func(t *testing.T, seed uint64) {
		n := netgen.RandomNet(seed, netgen.DefaultConfig())
		if n.Validate() != nil {
			return
		}
		allocs, err := EnumerateAllocations(n, 4096)
		if err != nil {
			return
		}
		want := map[string]bool{}
		for _, a := range allocs {
			want[fmt.Sprint(Reduce(n, a).KeptTransitions())] = true
		}
		reds, err := EnumerateDistinctReductions(n, 0)
		if err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
		got := map[string]bool{}
		for _, r := range reds {
			key := fmt.Sprint(r.KeptTransitions())
			if got[key] || !want[key] {
				t.Fatalf("seed=%d: the search returns %v twice or no allocation keeps it", seed, r.KeptTransitionNames(n))
			}
			got[key] = true
			ref := Reduce(n, r.Allocation)
			if !slices.Equal(r.KeptTransitions(), ref.KeptTransitions()) || !slices.Equal(r.KeptPlaces(), ref.KeptPlaces()) ||
				r.CompareKept(ref) != 0 {
				t.Fatalf("seed=%d: the search keeps %v, Reduce under its allocation %v",
					seed, r.KeptTransitionNames(n), ref.KeptTransitionNames(n))
			}
		}
		if len(got) != len(want) {
			t.Fatalf("seed=%d: the search finds %d reductions, the allocation product %d", seed, len(got), len(want))
		}
		sorted := slices.Clone(reds)
		slices.SortFunc(sorted, (*Reduction).CompareKept)
		for i := 1; i < len(sorted); i++ {
			a, b := sorted[i-1], sorted[i]
			first := 0
			for first < n.NumTransitions() && a.KeepsTransition(petri.Transition(first)) == b.KeepsTransition(petri.Transition(first)) {
				first++
			}
			if a.CompareKept(b) != -1 || b.CompareKept(a) != 1 || !a.KeepsTransition(petri.Transition(first)) {
				t.Fatalf("seed=%d: CompareKept sorts %v before %v", seed, a.KeptTransitionNames(n), b.KeptTransitionNames(n))
			}
		}
	})
}
