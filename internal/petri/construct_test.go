package petri

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

// overflowDoc repeats an arc until its summed weight leaves int.
const overflowDoc = "place p 1\ntrans t\narc p -> t * 9223372036854775807\narc p -> t * 2\narc t -> p\n"

// TestParseRejectsWeightOverflow: repeated arcs whose weights sum past int
// are an input error naming the arc, not a net with a negative weight.
func TestParseRejectsWeightOverflow(t *testing.T) {
	for _, tc := range []struct{ doc, want string }{
		{overflowDoc, "petri: arc p -> t: summed weight overflows int"},
		{"place p\ntrans t\narc t -> p * 9223372036854775807\narc t -> p\n",
			"petri: arc t -> p: summed weight overflows int"},
	} {
		n, err := ParseString(tc.doc)
		if err == nil {
			t.Fatalf("parsed %q into a net with pre %v", tc.doc, n.pre)
		}
		if err.Error() != tc.want {
			t.Fatalf("error %q, want %q", err, tc.want)
		}
	}
	if _, err := ParseString(fmt.Sprintf("place p\ntrans t\narc p -> t * %d\narc p -> t\n", math.MaxInt-1)); err != nil {
		t.Fatalf("a sum of exactly MaxInt must parse: %v", err)
	}
}

// TestParseLineLimit: lines up to 1 MiB are read, longer ones fail with the
// scanner's error.
func TestParseLineLimit(t *testing.T) {
	ok := "# " + strings.Repeat("x", maxLine-3) + "\nplace p\n"
	n, err := ParseString(ok)
	if err != nil || n.NumPlaces() != 1 {
		t.Fatalf("a %d-byte line: %v", maxLine-1, err)
	}
	_, err = ParseString("# " + strings.Repeat("x", maxLine-2) + "\nplace p\n")
	if err == nil || err.Error() != "petri: read: bufio.Scanner: token too long" {
		t.Fatalf("a %d-byte line: %v", maxLine, err)
	}
}

// TestBuilderMatchesReferenceCases plays the Builder cases the reference
// comparison over generated nets does not reach: repeated arcs in both
// directions, SetMarking to zero and back, and nodes and arcs added after
// a Build, which must leave the first net as it was.
func TestBuilderMatchesReferenceCases(t *testing.T) {
	nb, rb := NewBuilder("cases"), newRefBuilder("cases")
	both := func(f func(b builderOps)) { f(nb); f(rb) }
	both(func(b builderOps) {
		p, q := b.MarkedPlace("p", 2), b.MarkedPlace("q", 1)
		tr, u := b.Transition("t"), b.Transition("u")
		b.WeightedArc(q, tr, 1)
		b.WeightedArc(p, tr, 1)
		b.WeightedArc(q, tr, 3)
		b.WeightedArcTP(tr, p, 2)
		b.WeightedArcTP(tr, p, 2)
		b.WeightedArc(p, u, 1)
		b.SetMarking(p, 0)
		b.SetMarking(q, 0)
		b.SetMarking(q, 4)
	})
	first := nb.Build()
	if err := diffNets(first, rb.Build()); err != nil {
		t.Fatalf("first Build: %v", err)
	}
	before := dumpNet(first)
	both(func(b builderOps) {
		r := b.MarkedPlace("r", 1)
		v := b.Transition("v")
		b.WeightedArc(r, v, 1)
		b.WeightedArc(0, 0, 5)
		b.WeightedArcTP(v, 0, 1)
		b.SetMarking(0, 7)
	})
	second := nb.Build()
	if err := diffNets(second, rb.Build()); err != nil {
		t.Fatalf("second Build: %v", err)
	}
	if after := dumpNet(first); after != before {
		t.Fatalf("second Build changed the first net:\n%s\nwas\n%s", after, before)
	}
	if w := second.Weight(0, 0); w != 6 {
		t.Fatalf("summed weight of p -> t = %d, want 6", w)
	}
}

// builderOps is what Builder and the reference builder share.
type builderOps interface {
	MarkedPlace(name string, tokens int) Place
	Transition(name string) Transition
	WeightedArc(p Place, t Transition, w int)
	WeightedArcTP(t Transition, p Place, w int)
	SetMarking(p Place, tokens int)
}

// TestFreeChoiceSetsConcurrent: the first FreeChoiceSets calls on a net
// race from several goroutines; all must get the one shared slice, equal
// to the pairwise reference. Run with -race -count=10.
func TestFreeChoiceSetsConcurrent(t *testing.T) {
	n, err := ParseString(fig4Text)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	got := make([][]ConflictCluster, workers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = n.FreeChoiceSets()
		}(i)
	}
	wg.Wait()
	if len(got[0]) != 1 {
		t.Fatalf("FreeChoiceSets = %v, want one cluster", got[0])
	}
	for i := range got {
		if &got[i][0] != &got[0][0] {
			t.Fatalf("goroutine %d got a different slice", i)
		}
	}
	if err := checkClusters(n); err != nil {
		t.Fatal(err)
	}
}
