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

// TestRelabelMatchesCanonicalTwin pins the contract the engine's semiflow
// layers rest on: relabelling a net's minimal semiflows onto its canonical
// twin gives exactly what the enumeration returns on the twin, order
// included, and relabelling the twin's back gives the net's. The corpus is
// the figures, the ATM server and modem models, and netgen seeds 0–499 of
// both generators. These nets all have source transitions and so no
// P-semiflows; their duals carry the P half of the check.
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
	reordered := [2]int{} // nets whose T- resp. P-semiflows change order
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
			pis, err := invariant.PInvariants(n, invariant.Options{})
			if err != nil {
				t.Fatalf("%s: %v", n.Name(), err)
			}
			twinPIs, err := invariant.PInvariants(twin, invariant.Options{})
			if err != nil {
				t.Fatalf("%s twin: %v", n.Name(), err)
			}
			if got := invariant.RelabelPInvariants(pis, cf.PlacePos); !reflect.DeepEqual(got, twinPIs) {
				t.Fatalf("%s (%s): P-semiflows relabelled onto the twin\n%v\ndiffer from the twin's\n%v", n.Name(), name, got, twinPIs)
			}
			if got := invariant.RelabelPInvariants(twinPIs, cf.PlaceAt); !reflect.DeepEqual(got, pis) {
				t.Fatalf("%s (%s): the twin's P-semiflows relabelled back\n%v\ndiffer from the net's\n%v", n.Name(), name, got, pis)
			}
			if !sameOrder(tis, twinTIs, func(ti invariant.TInvariant) []int { return ti.Counts }, cf.TransPos) {
				reordered[0]++
			}
			if !sameOrder(pis, twinPIs, func(pi invariant.PInvariant) []int { return pi.Weights }, cf.PlacePos) {
				reordered[1]++
			}
		}
	}
	// The sort inside the relabelling must be exercised on both sides.
	if reordered[0] < 100 || reordered[1] < 100 {
		t.Fatalf("only %d nets reorder their T-semiflows and %d their P-semiflows under relabelling", reordered[0], reordered[1])
	}
	t.Logf("%d nets and their duals: %d reorder their T-semiflows, %d their P-semiflows", len(nets), reordered[0], reordered[1])
}

// sameOrder reports whether the i-th semiflow of vs, relabelled by pos,
// is the i-th of twin's for every i: whether relabelling kept the order.
func sameOrder[V any](vs, twin []V, vec func(V) []int, pos []int) bool {
	for i, v := range vs {
		for k, x := range vec(v) {
			if vec(twin[i])[pos[k]] != x {
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

// TestPInvariantsCachedMatchesCold is TestTInvariantsCachedMatchesCold
// for P-semiflows.
func TestPInvariantsCachedMatchesCold(t *testing.T) {
	n := weightedLoop(nil)
	cf := n.CanonicalForm()
	cold, err := invariant.PInvariants(n, invariant.Options{})
	if err != nil {
		t.Fatal(err)
	}
	twin, err := invariant.PInvariants(n.CanonicalNet(), invariant.Options{})
	if err != nil {
		t.Fatal(err)
	}
	stored := invariant.RelabelPInvariants(cold, cf.PlacePos)
	if !reflect.DeepEqual(stored, twin) {
		t.Fatalf("stored P-semiflows %v differ from the canonical twin's %v", stored, twin)
	}
	if hit := invariant.RelabelPInvariants(stored, cf.PlaceAt); !reflect.DeepEqual(hit, cold) {
		t.Fatalf("P-semiflows read back %v differ from cold %v", hit, cold)
	}
	if len(cold) == 0 {
		t.Fatalf("%s has no P-semiflows to compare", n.Name())
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
