package invariant_test

import (
	"fmt"
	"reflect"
	"testing"

	"fcpn/internal/atm"
	"fcpn/internal/figures"
	"fcpn/internal/invariant"
	"fcpn/internal/modem"
	"fcpn/internal/netgen"
	"fcpn/internal/petri"
)

// dual swaps n's places and transitions and turns each arc around, so its
// incidence matrix is the transpose of n's: its P-semiflows are n's
// T-semiflows and back.
func dual(n *petri.Net) *petri.Net {
	b := petri.NewBuilder(n.Name() + "_dual")
	ps := make([]petri.Place, n.NumTransitions())
	for t := range ps {
		ps[t] = b.Place(n.TransitionName(petri.Transition(t)))
	}
	ts := make([]petri.Transition, n.NumPlaces())
	for p := range ts {
		ts[p] = b.Transition(n.PlaceName(petri.Place(p)))
	}
	for _, a := range n.Arcs() {
		if a.FromKind == petri.PlaceNode {
			b.WeightedArc(ps[a.To], ts[a.From], a.Weight)
		} else {
			b.WeightedArcTP(ts[a.To], ps[a.From], a.Weight)
		}
	}
	return b.Build()
}

// TestRelabelMatchesCanonicalTwin pins the contract the engine's tsemi
// layer rests on: relabelling a net's minimal T-semiflows onto its
// canonical twin gives exactly what the enumeration returns on the twin,
// order included, and relabelling the twin's back gives the net's. The
// corpus is the figures, the ATM server and modem models, netgen seeds
// 0–499 of both generators, and the duals of all of them.
func TestRelabelMatchesCanonicalTwin(t *testing.T) {
	nets := map[string]*petri.Net{"atm": atm.New().Net}
	for name, n := range figures.All() {
		nets[name] = n
	}
	mm, err := modem.New()
	if err != nil {
		t.Fatal(err)
	}
	nets["modem"] = mm.Net
	for seed := uint64(0); seed < 500; seed++ {
		nets[fmt.Sprintf("pipeline-%d", seed)] = netgen.RandomSchedulablePipeline(seed, netgen.DefaultConfig())
		nets[fmt.Sprintf("random-%d", seed)] = netgen.RandomNet(seed, netgen.DefaultConfig())
	}
	reordered := 0 // nets whose T-semiflows change order
	for name, orig := range nets {
		for _, n := range []*petri.Net{orig, dual(orig)} {
			cf, twin := n.CanonicalForm(), n.CanonicalNet()
			tis, err := invariant.TInvariants(n, invariant.Options{})
			if err != nil {
				t.Fatalf("%s: %v", n.Name(), err)
			}
			twinTIs, err := invariant.TInvariants(twin, invariant.Options{})
			if err != nil {
				t.Fatalf("%s twin: %v", n.Name(), err)
			}
			if got := invariant.RelabelTInvariants(tis, cf.TransPos); !reflect.DeepEqual(got, twinTIs) {
				t.Fatalf("%s (%s): T-semiflows relabelled onto the twin\n%v\ndiffer from the twin's\n%v", n.Name(), name, got, twinTIs)
			}
			if got := invariant.RelabelTInvariants(twinTIs, cf.TransAt); !reflect.DeepEqual(got, tis) {
				t.Fatalf("%s (%s): the twin's T-semiflows relabelled back\n%v\ndiffer from the net's\n%v", n.Name(), name, got, tis)
			}
			if !sameOrder(tis, twinTIs, cf.TransPos) {
				reordered++
			}
		}
	}
	// The sort inside the relabelling must be exercised.
	if reordered < 100 {
		t.Fatalf("only %d nets reorder their T-semiflows under relabelling", reordered)
	}
	t.Logf("%d nets and their duals: %d reorder their T-semiflows", len(nets), reordered)
}

// sameOrder reports whether the i-th T-semiflow of tis, relabelled by
// pos, is the i-th of twin's for every i: whether relabelling kept the
// order.
func sameOrder(tis, twin []invariant.TInvariant, pos []int) bool {
	for i, ti := range tis {
		for k, x := range ti.Counts {
			if twin[i].Counts[pos[k]] != x {
				return false
			}
		}
	}
	return true
}

// weightedLoop builds a small multirate loop with non-trivial T- and
// P-semiflows; rename maps each node name, for renamed twins.
func weightedLoop(rename func(string) string) *petri.Net {
	if rename == nil {
		rename = func(s string) string { return s }
	}
	b := petri.NewBuilder("loop")
	p1 := b.MarkedPlace(rename("p1"), 2)
	p2 := b.Place(rename("p2"))
	t1 := b.Transition(rename("t1"))
	t2 := b.Transition(rename("t2"))
	b.WeightedArc(p1, t1, 2)
	b.ArcTP(t1, p2)
	b.Arc(p2, t2)
	b.WeightedArcTP(t2, p1, 2)
	return b.Build()
}

// TestTInvariantsCachedMatchesCold checks the T-semiflows a cache keyed
// by canonical hash hands back: a net's own, relabelled by TransPos, are
// stored, which is what TInvariants returns on the canonical twin; read
// back through TransAt they are what TInvariants returns on the net.
func TestTInvariantsCachedMatchesCold(t *testing.T) {
	n := weightedLoop(nil)
	cf := n.CanonicalForm()
	cold, err := invariant.TInvariants(n, invariant.Options{})
	if err != nil {
		t.Fatal(err)
	}
	twin, err := invariant.TInvariants(n.CanonicalNet(), invariant.Options{})
	if err != nil {
		t.Fatal(err)
	}
	stored := invariant.RelabelTInvariants(cold, cf.TransPos)
	if !reflect.DeepEqual(stored, twin) {
		t.Fatalf("stored T-semiflows %v differ from the canonical twin's %v", stored, twin)
	}
	if hit := invariant.RelabelTInvariants(stored, cf.TransAt); !reflect.DeepEqual(hit, cold) {
		t.Fatalf("T-semiflows read back %v differ from cold %v", hit, cold)
	}
	if len(cold) == 0 {
		t.Fatalf("%s has no T-semiflows to compare", n.Name())
	}
}

// TestTInvariantsCachedSharesAcrossRenamedNets checks that a renamed net
// shares its twin's cache entry: both hash alike, and the T-semiflows
// stored from one net, read back through the other's TransAt, are the
// other's own, each a T-semiflow of it.
func TestTInvariantsCachedSharesAcrossRenamedNets(t *testing.T) {
	a := weightedLoop(nil)
	b := weightedLoop(func(s string) string { return "x_" + s })
	if a.CanonicalHash() != b.CanonicalHash() {
		t.Fatalf("renamed nets hash differently: %s vs %s", a.CanonicalHash(), b.CanonicalHash())
	}
	tis, err := invariant.TInvariants(a, invariant.Options{})
	if err != nil {
		t.Fatal(err)
	}
	stored := invariant.RelabelTInvariants(tis, a.CanonicalForm().TransPos)
	got := invariant.RelabelTInvariants(stored, b.CanonicalForm().TransAt)
	want, err := invariant.TInvariants(b, invariant.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("shared entry produced wrong T-semiflows: %v vs %v", got, want)
	}
	for _, ti := range got {
		if !invariant.IsTInvariant(b, ti.Counts) {
			t.Fatalf("not a T-semiflow of the renamed net: %v", ti)
		}
	}
}
