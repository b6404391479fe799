package core

import (
	"fmt"
	"sort"
	"testing"

	"fcpn/internal/figures"
	"fcpn/internal/petri"
)

// referenceReduce is a direct port of the recursive rescan-until-fixpoint
// reduction algorithm this package used before the worklist kernel. It is
// the differential oracle: the kernel must compute the same kept-node sets
// and the same removal multiset on every net and allocation.
func referenceReduce(n *petri.Net, alloc *Allocation) (aliveT, aliveP []bool, steps []string) {
	aliveT = make([]bool, n.NumTransitions())
	aliveP = make([]bool, n.NumPlaces())
	for i := range aliveT {
		aliveT[i] = true
	}
	for i := range aliveP {
		aliveP[i] = true
	}
	isSourcePlace := func(p petri.Place) bool {
		for _, ta := range n.Producers(p) {
			if aliveT[ta.Transition] {
				return false
			}
		}
		return true
	}
	var removePlace func(p petri.Place)
	var removeTransition func(t petri.Transition, reason string)
	maybeRemovePlace := func(s petri.Place) {
		if !aliveP[s] || !isSourcePlace(s) {
			return
		}
		for _, ta := range n.Consumers(s) {
			if !aliveT[ta.Transition] {
				continue
			}
			for _, in := range n.Pre(ta.Transition) {
				if in.Place != s && aliveP[in.Place] && !isSourcePlace(in.Place) {
					return
				}
			}
		}
		removePlace(s)
	}
	removePlace = func(p petri.Place) {
		if !aliveP[p] {
			return
		}
		aliveP[p] = false
		steps = append(steps, "remove "+n.PlaceName(p))
		for _, ta := range n.Consumers(p) {
			tj := ta.Transition
			if !aliveT[tj] {
				continue
			}
			surviving := 0
			allSources := true
			for _, in := range n.Pre(tj) {
				if !aliveP[in.Place] {
					continue
				}
				surviving++
				if !isSourcePlace(in.Place) {
					allSources = false
				}
			}
			switch {
			case surviving == 0:
				removeTransition(tj, "no input place")
			case allSources:
				inputs := make([]petri.Place, 0, surviving)
				for _, in := range n.Pre(tj) {
					if aliveP[in.Place] {
						inputs = append(inputs, in.Place)
					}
				}
				removeTransition(tj, "all inputs are source places")
				for _, in := range inputs {
					removePlace(in)
				}
			}
		}
	}
	removeTransition = func(t petri.Transition, reason string) {
		if !aliveT[t] {
			return
		}
		aliveT[t] = false
		steps = append(steps, fmt.Sprintf("remove %s (%s)", n.TransitionName(t), reason))
		for _, out := range n.Post(t) {
			maybeRemovePlace(out.Place)
		}
	}
	for i, c := range alloc.Clusters {
		for _, t := range c.Transitions {
			if t != alloc.Chosen[i] {
				removeTransition(t, "unallocated")
			}
		}
	}
	for {
		before := len(steps)
		for p := petri.Place(0); int(p) < n.NumPlaces(); p++ {
			if aliveP[p] && len(n.Producers(p)) > 0 && isSourcePlace(p) {
				maybeRemovePlace(p)
			}
		}
		if len(steps) == before {
			break
		}
	}
	return aliveT, aliveP, steps
}

func TestReduceMatchesReferenceAlgorithm(t *testing.T) {
	// The worklist kernel's event queue must reach the same fixpoint as the
	// reference's whole-net rescan: identical kept-node sets and the same
	// removal multiset (event order may legally differ in the rule 2(d)
	// tail, so steps are compared sorted) — for every allocation of every
	// corpus net.
	for name, n := range equivalenceCorpus(t) {
		allocs, err := EnumerateAllocations(n, 0)
		if err != nil {
			continue
		}
		rd := newReducer(n)
		for ai, alloc := range allocs {
			wantT, wantP, wantSteps := referenceReduce(n, alloc)
			rd.run(alloc)
			red := rd.result(alloc, rd.keptTransitions())
			for i, alive := range wantT {
				if red.KeepsTransition(petri.Transition(i)) != alive {
					t.Fatalf("%s alloc %d: transition %s kept=%v, reference %v",
						name, ai, n.TransitionName(petri.Transition(i)), !alive, alive)
				}
			}
			for i, alive := range wantP {
				if red.KeepsPlace(petri.Place(i)) != alive {
					t.Fatalf("%s alloc %d: place %s kept=%v, reference %v",
						name, ai, n.PlaceName(petri.Place(i)), !alive, alive)
				}
			}
			gotSteps := red.Steps()
			sort.Strings(gotSteps)
			sort.Strings(wantSteps)
			if len(gotSteps) != len(wantSteps) {
				t.Fatalf("%s alloc %d: %d steps, reference %d\n got %v\nwant %v",
					name, ai, len(gotSteps), len(wantSteps), gotSteps, wantSteps)
			}
			for i := range gotSteps {
				if gotSteps[i] != wantSteps[i] {
					t.Fatalf("%s alloc %d: step multiset diverges\n got %v\nwant %v",
						name, ai, gotSteps, wantSteps)
				}
			}
		}
	}
}

func TestReductionLazyAccessorsMatchSubnet(t *testing.T) {
	// Every bitset-backed accessor must agree with the induced subnet it
	// replaces in the hot paths: subnet node i is the i-th kept node.
	for name, n := range equivalenceCorpus(t) {
		reds, err := EnumerateDistinctReductions(n, 0)
		if err != nil {
			continue
		}
		for _, red := range reds {
			sub := red.Subnet()
			if got, want := sub.Name(), red.name(); got != want {
				t.Fatalf("%s: subnet name %q, want %q", name, got, want)
			}
			kept := red.KeptTransitions()
			if len(kept) != sub.NumTransitions() {
				t.Fatalf("%s: %d kept transitions, subnet has %d", name, len(kept), sub.NumTransitions())
			}
			for i, pt := range kept {
				if got, want := sub.TransitionName(petri.Transition(i)), n.TransitionName(pt); got != want {
					t.Fatalf("%s: subnet transition %d = %s, kept transition %s", name, i, got, want)
				}
			}
			keptP := red.KeptPlaces()
			if len(keptP) != sub.NumPlaces() {
				t.Fatalf("%s: %d kept places, subnet has %d", name, len(keptP), sub.NumPlaces())
			}
			for i, pp := range keptP {
				if got, want := sub.PlaceName(petri.Place(i)), n.PlaceName(pp); got != want {
					t.Fatalf("%s: subnet place %d = %s, kept place %s", name, i, got, want)
				}
			}
			for p := petri.Place(0); int(p) < n.NumPlaces(); p++ {
				if _, ok := sub.PlaceByName(n.PlaceName(p)); ok != red.KeepsPlace(p) {
					t.Fatalf("%s: KeepsPlace(%v)=%v, subnet says %v", name, p, red.KeepsPlace(p), ok)
				}
			}
		}
	}
}

func TestReduceAllocsPerRun(t *testing.T) {
	// Regression pin for the worklist kernel: with a shared reducer, a run
	// allocates nothing once its buffers have grown — no per-call scratch,
	// no subnet, no step strings — so the distinct-reduction search pays
	// only for the reductions it returns.
	n := figures.Figure5()
	allocs, err := EnumerateAllocations(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	rd := newReducer(n)
	avg := testing.AllocsPerRun(200, func() {
		for _, a := range allocs {
			rd.run(a)
		}
	})
	if avg != 0 {
		t.Fatalf("the reducer allocates %.1f objects per sweep of %d allocations, want 0", avg, len(allocs))
	}
}
