package core_test

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"testing"

	"fcpn/internal/atm"
	"fcpn/internal/core"
	"fcpn/internal/figures"
	"fcpn/internal/modem"
	"fcpn/internal/netgen"
	"fcpn/internal/petri"
)

// supportCorpus is the figures, the ATM server, the modem and netgen
// seeds 0–499 of both generators, in a fixed order.
func supportCorpus(t *testing.T) []*petri.Net {
	t.Helper()
	var nets []*petri.Net
	all := figures.All()
	names := make([]string, 0, len(all))
	for name := range all {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		nets = append(nets, all[name])
	}
	mm, err := modem.New()
	if err != nil {
		t.Fatal(err)
	}
	nets = append(nets, atm.New().Net, mm.Net)
	for seed := uint64(0); seed < 500; seed++ {
		nets = append(nets,
			netgen.RandomSchedulablePipeline(seed, netgen.DefaultConfig()),
			netgen.RandomNet(seed, netgen.DefaultConfig()))
	}
	return nets
}

// TestCycleSupportDeterminesReduction pins the two facts that let a
// schedule be stored as its firing sequences alone, with each cycle's
// allocation and reduction read back off the sequence:
//
//   - every reduction EnumerateDistinctReductions returns keeps, at a
//     choice whose place it keeps, exactly the chosen alternative, and at
//     a choice whose place it removes, no alternative, with the choice
//     left at the cluster's first alternative;
//   - every cycle of Solve, with and without KeepDuplicateReductions,
//     fires exactly the transitions its reduction keeps.
func TestCycleSupportDeterminesReduction(t *testing.T) {
	reductions, cycles := 0, 0
	for _, n := range supportCorpus(t) {
		if n.Validate() != nil {
			continue
		}
		reds, err := core.EnumerateDistinctReductions(n, 0)
		if err != nil {
			t.Fatalf("%s: %v", n.Name(), err)
		}
		for _, red := range reds {
			if err := choicesFollowPlaces(n, red); err != nil {
				t.Fatalf("%s: reduction %v: %v", n.Name(), red.KeptTransitionNames(n), err)
			}
		}
		reductions += len(reds)
		for _, opt := range []core.Options{
			{},
			{MaxRows: 4},
			{KeepDuplicateReductions: true, MaxAllocations: 1024},
			{KeepDuplicateReductions: true, MaxAllocations: 1024, MaxRows: 4},
		} {
			s, err := core.Solve(n, opt)
			var nse *core.NotSchedulableError
			switch {
			case errors.As(err, &nse), errors.Is(err, core.ErrTooManyAllocations):
				continue
			case err != nil:
				t.Fatalf("%s: %+v: %v", n.Name(), opt, err)
			}
			for i, c := range s.Cycles {
				var fired []petri.Transition
				for tr, k := range n.FiringCount(c.Sequence) {
					if k > 0 {
						fired = append(fired, petri.Transition(tr))
					}
				}
				if kept := s.Reports[i].Reduction.KeptTransitions(); !slices.Equal(fired, kept) {
					t.Fatalf("%s: %+v: cycle %d fires %v, its reduction keeps %v",
						n.Name(), opt, i, n.SequenceNames(fired), n.SequenceNames(kept))
				}
			}
			cycles += len(s.Cycles)
		}
	}
	if reductions < 5000 || cycles < 10000 {
		t.Fatalf("only %d reductions and %d cycles checked", reductions, cycles)
	}
	t.Logf("%d reductions and %d cycles checked", reductions, cycles)
}

// choicesFollowPlaces checks red's allocation against its kept sets at
// every choice cluster.
func choicesFollowPlaces(n *petri.Net, red *core.Reduction) error {
	alloc := red.Allocation
	for i, c := range alloc.Clusters {
		placeKept := slices.ContainsFunc(c.Places, red.KeepsPlace)
		if !placeKept && alloc.Chosen[i] != c.Transitions[0] {
			return fmt.Errorf("removed choice %s is left at %s, not its first alternative %s",
				n.PlaceName(c.Places[0]), n.TransitionName(alloc.Chosen[i]), n.TransitionName(c.Transitions[0]))
		}
		for _, alt := range c.Transitions {
			want := placeKept && alt == alloc.Chosen[i]
			if red.KeepsTransition(alt) != want {
				return fmt.Errorf("choice %s (place kept: %v, chosen %s): alternative %s kept = %v",
					n.PlaceName(c.Places[0]), placeKept, n.TransitionName(alloc.Chosen[i]),
					n.TransitionName(alt), !want)
			}
		}
	}
	return nil
}
