package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"fcpn/internal/atm"
	"fcpn/internal/core"
	"fcpn/internal/figures"
	"fcpn/internal/modem"
	"fcpn/internal/netgen"
	"fcpn/internal/petri"
)

// restrictionCorpus is the corpus of the reduction property tests below:
// the paper's figures, the ATM server and modem models, the 64 default and
// 16 heavy pipelines of TestStandardNetsStayInInt64Tier, and netgen's
// RandomNet seeds 1–500 — every one that passes Validate, the premise of
// the restriction-exactness proof (docs/ALGORITHM.md §6).
func restrictionCorpus(t *testing.T) map[string]*petri.Net {
	t.Helper()
	all := map[string]*petri.Net{"atm": atm.New().Net}
	for name, n := range figures.All() {
		all[name] = n
	}
	mm, err := modem.New()
	if err != nil {
		t.Fatal(err)
	}
	all["modem"] = mm.Net
	heavy := netgen.DefaultConfig()
	heavy.MaxSources, heavy.MaxDepth = 4, 5
	for seed := uint64(1); seed <= 64; seed++ {
		all[fmt.Sprintf("pipeline-default-%d", seed)] = netgen.RandomSchedulablePipeline(seed, netgen.DefaultConfig())
	}
	for seed := uint64(1); seed <= 16; seed++ {
		all[fmt.Sprintf("pipeline-heavy-%d", seed)] = netgen.RandomSchedulablePipeline(seed, heavy)
	}
	for seed := uint64(1); seed <= 500; seed++ {
		all[fmt.Sprintf("random-%d", seed)] = netgen.RandomNet(seed, netgen.DefaultConfig())
	}
	nets := map[string]*petri.Net{}
	for name, n := range all {
		if n.Validate() == nil {
			nets[name] = n
		}
	}
	return nets
}

// restrictionGap names a place adjacent to a kept transition that the
// reduction removed, or returns "" when the reduction is
// restriction-exact.
func restrictionGap(n *petri.Net, red *core.Reduction) string {
	for _, t := range red.KeptTransitions() {
		for _, arcs := range [][]petri.ArcRef{n.Pre(t), n.Post(t)} {
			for _, a := range arcs {
				if !red.KeepsPlace(a.Place) {
					return fmt.Sprintf("kept transition %s touches removed place %s",
						n.TransitionName(t), n.PlaceName(a.Place))
				}
			}
		}
	}
	return ""
}

// TestEveryReductionRestrictionExact checks the premise of the kept-set
// Definition 3.5 check: under every T-allocation, every place a kept
// transition reads or writes is kept. Nets past 4096 allocations have
// their distinct reductions checked instead.
func TestEveryReductionRestrictionExact(t *testing.T) {
	nets, checked := 0, 0
	for name, n := range restrictionCorpus(t) {
		var reds []*core.Reduction
		allocs, err := core.EnumerateAllocations(n, 4096)
		switch {
		case err == nil:
			for _, a := range allocs {
				reds = append(reds, core.Reduce(n, a))
			}
		case errors.Is(err, core.ErrTooManyAllocations):
			if reds, err = core.EnumerateDistinctReductions(n, 0); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		default:
			t.Fatalf("%s: %v", name, err)
		}
		for _, red := range reds {
			if gap := restrictionGap(n, red); gap != "" {
				t.Fatalf("%s: reduction %v is not restriction-exact: %s", name, red.KeptTransitionNames(n), gap)
			}
		}
		nets++
		checked += len(reds)
	}
	if nets < 400 {
		t.Fatalf("only %d corpus nets pass Validate", nets)
	}
	t.Logf("%d reductions of %d nets restriction-exact", checked, nets)
}

// shuffled rebuilds n under other names, with its places, transitions
// and arcs declared in a random order: an isomorphic twin under other
// local indices.
func shuffled(n *petri.Net, rng *rand.Rand) *petri.Net {
	b := petri.NewBuilder("twin_" + n.Name())
	m := n.InitialMarking()
	ps := make([]petri.Place, n.NumPlaces())
	for _, p := range rng.Perm(n.NumPlaces()) {
		ps[p] = b.MarkedPlace("q_"+n.PlaceName(petri.Place(p)), m[p])
	}
	ts := make([]petri.Transition, n.NumTransitions())
	for _, t := range rng.Perm(n.NumTransitions()) {
		ts[t] = b.Transition("u_" + n.TransitionName(petri.Transition(t)))
	}
	arcs := n.Arcs()
	for _, i := range rng.Perm(len(arcs)) {
		a := arcs[i]
		if a.FromKind == petri.PlaceNode {
			b.WeightedArc(ps[a.From], ts[a.To], a.Weight)
		} else {
			b.WeightedArcTP(ts[a.From], ps[a.To], a.Weight)
		}
	}
	return b.Build()
}

// TestRelabelMatchesReduce holds mapReductionsToTwin, which relabels kept
// sets instead of reducing the canonical twin again, to Reduce on the twin
// under the translated allocation: every accessor must agree. The corpus
// nets run as declared and as shuffled twins, so the relabelling is
// exercised under many local orders.
func TestRelabelMatchesReduce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	compared := 0
	for name, orig := range restrictionCorpus(t) {
		for _, n := range []*petri.Net{orig, shuffled(orig, rng)} {
			reds, err := core.EnumerateDistinctReductions(n, 4096)
			if err != nil {
				continue
			}
			twin := n.CanonicalNet()
			for _, r := range mapReductionsToTwin(n.CanonicalForm(), twin, reds) {
				want := core.Reduce(twin, r.Allocation)
				if !slices.Equal(r.KeptTransitions(), want.KeptTransitions()) ||
					!slices.Equal(r.KeptPlaces(), want.KeptPlaces()) ||
					r.CompareKept(want) != 0 ||
					!slices.Equal(r.Steps(), want.Steps()) ||
					r.Subnet().Name() != want.Subnet().Name() {
					t.Fatalf("%s: relabelled reduction keeps %v/%v, Reduce on the twin keeps %v/%v",
						name, r.KeptTransitionNames(twin), r.KeptPlaceNames(twin),
						want.KeptTransitionNames(twin), want.KeptPlaceNames(twin))
				}
				compared++
			}
		}
	}
	if compared < 1000 {
		t.Fatalf("only %d relabelled reductions compared", compared)
	}
	t.Logf("%d relabelled reductions match Reduce", compared)
}
