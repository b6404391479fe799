package petri

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
)

// fig3aLike builds the Figure-3a shape with controllable declaration order
// and names so the canonical hash's invariance claims can be tested
// without depending on internal/figures (which would be an import cycle).
func fig3aLike(reversed bool, rename func(string) string) *Net {
	b := NewBuilder("h")
	if rename == nil {
		rename = func(s string) string { return s }
	}
	names := []string{"p1", "p2", "p3", "p4"}
	tnames := []string{"t1", "t2", "t3", "t4", "t5"}
	if reversed {
		for i, j := 0, len(names)-1; i < j; i, j = i+1, j-1 {
			names[i], names[j] = names[j], names[i]
		}
		for i, j := 0, len(tnames)-1; i < j; i, j = i+1, j-1 {
			tnames[i], tnames[j] = tnames[j], tnames[i]
		}
	}
	for _, s := range names {
		b.Place(rename(s))
	}
	for _, s := range tnames {
		b.Transition(rename(s))
	}
	place := func(s string) Place { return b.placeIndex[rename(s)] }
	trans := func(s string) Transition { return b.transIndex[rename(s)] }
	b.Arc(place("p1"), trans("t2"))
	b.Arc(place("p1"), trans("t3"))
	b.ArcTP(trans("t1"), place("p1"))
	b.ArcTP(trans("t2"), place("p2"))
	b.ArcTP(trans("t3"), place("p3"))
	b.Arc(place("p2"), trans("t4"))
	b.Arc(place("p3"), trans("t5"))
	b.ArcTP(trans("t4"), place("p4"))
	b.ArcTP(trans("t5"), place("p4"))
	return b.Build()
}

func TestCanonicalHashInvariantUnderRenamingAndReorder(t *testing.T) {
	base := fig3aLike(false, nil)
	renamed := fig3aLike(false, func(s string) string { return "node_" + s })
	reordered := fig3aLike(true, nil)

	h := base.CanonicalHash()
	if h == "" || len(h) != 64 {
		t.Fatalf("bad hash %q", h)
	}
	if got := renamed.CanonicalHash(); got != h {
		t.Errorf("renaming changed the hash: %s vs %s", got, h)
	}
	if got := reordered.CanonicalHash(); got != h {
		t.Errorf("declaration reorder changed the hash: %s vs %s", got, h)
	}
}

func TestCanonicalHashSensitivity(t *testing.T) {
	base := fig3aLike(false, nil)
	h := base.CanonicalHash()

	// Changed marking.
	b := NewBuilder("h")
	p := b.MarkedPlace("p", 1)
	tr := b.Transition("t")
	b.Arc(p, tr)
	marked := b.Build()

	b2 := NewBuilder("h")
	p2 := b2.Place("p")
	tr2 := b2.Transition("t")
	b2.Arc(p2, tr2)
	unmarked := b2.Build()

	if marked.CanonicalHash() == unmarked.CanonicalHash() {
		t.Error("marking change must change the hash")
	}

	// Changed weight.
	b3 := NewBuilder("h")
	p3 := b3.Place("p")
	tr3 := b3.Transition("t")
	b3.WeightedArc(p3, tr3, 2)
	if b3.Build().CanonicalHash() == unmarked.CanonicalHash() {
		t.Error("weight change must change the hash")
	}

	// A different structure entirely.
	if unmarked.CanonicalHash() == h {
		t.Error("different structures must differ")
	}
}

func TestCanonicalFormPermutationRoundTrip(t *testing.T) {
	n := fig3aLike(true, nil)
	cf := n.CanonicalForm()
	if len(cf.PlaceAt) != n.NumPlaces() || len(cf.TransAt) != n.NumTransitions() {
		t.Fatal("permutation size mismatch")
	}
	for i, p := range cf.PlaceAt {
		if cf.PlacePos[p] != i {
			t.Fatalf("place permutation does not round-trip at %d", i)
		}
	}
	for i, tr := range cf.TransAt {
		if cf.TransPos[tr] != i {
			t.Fatalf("transition permutation does not round-trip at %d", i)
		}
	}
}

func TestCanonicalFormIsDeterministic(t *testing.T) {
	n := fig3aLike(false, nil)
	a, b := n.CanonicalForm(), n.CanonicalForm()
	if a.Hash != b.Hash {
		t.Fatal("hash not deterministic")
	}
	for i := range a.PlaceAt {
		if a.PlaceAt[i] != b.PlaceAt[i] {
			t.Fatal("place order not deterministic")
		}
	}
}

// TestCanonicalFormMatchesReference compares CanonicalForm with the
// string refinement refCanonicalForm on 3,000 seeded random Builder nets
// of 1–80 places and 1–80 transitions. Weights and markings are drawn
// from values whose texts prefix one another (1, 10, 100, 101, …), so
// that the integer keys meet every text-order case.
func TestCanonicalFormMatchesReference(t *testing.T) {
	values := []int64{1, 2, 3, 7, 9, 10, 11, 12, 19, 20, 100, 101, 1000, 123456789012}
	rng := rand.New(rand.NewPCG(1, 2))
	draw := func() int { return int(values[rng.IntN(len(values))]) }
	nets := 3000
	if testing.Short() {
		nets = 300
	}
	for i := 0; i < nets; i++ {
		b := NewBuilder("rand")
		np, nt := 1+rng.IntN(80), 1+rng.IntN(80)
		for p := 0; p < np; p++ {
			tokens := 0
			if rng.IntN(2) == 0 {
				tokens = draw()
			}
			b.MarkedPlace(fmt.Sprintf("p%d", p), tokens)
		}
		for k := 0; k < nt; k++ {
			b.Transition(fmt.Sprintf("t%d", k))
		}
		weighted := rng.IntN(2) == 0
		for a := rng.IntN(3 * (np + nt)); a > 0; a-- {
			p, tr, w := Place(rng.IntN(np)), Transition(rng.IntN(nt)), 1
			if weighted {
				w = draw()
			}
			if rng.IntN(2) == 0 {
				b.WeightedArc(p, tr, w)
			} else {
				b.WeightedArcTP(tr, p, w)
			}
		}
		n := b.Build()
		if err := diffCanonicalForms(n.CanonicalForm(), refCanonicalForm(n)); err != nil {
			t.Fatalf("net %d: %v\n%s", i, err, Format(n))
		}
	}
}

// diffCanonicalForms reports the first field in which got differs from
// want.
func diffCanonicalForms(got, want *CanonicalForm) error {
	switch {
	case got.Hash != want.Hash:
		return fmt.Errorf("Hash %s, reference %s", got.Hash, want.Hash)
	case !slices.Equal(got.PlaceAt, want.PlaceAt):
		return fmt.Errorf("PlaceAt %v, reference %v", got.PlaceAt, want.PlaceAt)
	case !slices.Equal(got.TransAt, want.TransAt):
		return fmt.Errorf("TransAt %v, reference %v", got.TransAt, want.TransAt)
	case !slices.Equal(got.PlacePos, want.PlacePos):
		return fmt.Errorf("PlacePos %v, reference %v", got.PlacePos, want.PlacePos)
	case !slices.Equal(got.TransPos, want.TransPos):
		return fmt.Errorf("TransPos %v, reference %v", got.TransPos, want.TransPos)
	}
	return nil
}
