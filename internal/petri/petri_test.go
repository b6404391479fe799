package petri

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

// buildFig3a constructs the Figure 3a net inline (the figures package
// depends on petri, so tests here build their own nets).
func buildFig3a() *Net {
	b := NewBuilder("fig3a")
	t1 := b.Transition("t1")
	t2 := b.Transition("t2")
	t3 := b.Transition("t3")
	t4 := b.Transition("t4")
	t5 := b.Transition("t5")
	p1 := b.Place("p1")
	p2 := b.Place("p2")
	p3 := b.Place("p3")
	b.Chain(t1, p1, t2, p2, t4)
	b.Chain(p1, t3, p3, t5)
	return b.Build()
}

func TestBuilderBasics(t *testing.T) {
	n := buildFig3a()
	if got, want := n.NumPlaces(), 3; got != want {
		t.Fatalf("NumPlaces = %d, want %d", got, want)
	}
	if got, want := n.NumTransitions(), 5; got != want {
		t.Fatalf("NumTransitions = %d, want %d", got, want)
	}
	p1, ok := n.PlaceByName("p1")
	if !ok {
		t.Fatal("p1 not found")
	}
	if name := n.PlaceName(p1); name != "p1" {
		t.Fatalf("PlaceName = %q", name)
	}
	t2, ok := n.TransitionByName("t2")
	if !ok {
		t.Fatal("t2 not found")
	}
	if got := n.Pre(t2); len(got) != 1 || got[0].Place != p1 || got[0].Weight != 1 {
		t.Fatalf("Pre(t2) = %v", got)
	}
	if _, ok := n.TransitionByName("nope"); ok {
		t.Fatal("lookup of unknown transition succeeded")
	}
}

func TestBuilderPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func(*Builder)
	}{
		{"duplicate place", func(b *Builder) { b.Place("x"); b.Place("x") }},
		{"duplicate transition", func(b *Builder) { b.Transition("x"); b.Transition("x") }},
		{"cross-kind duplicate", func(b *Builder) { b.Place("x"); b.Transition("x") }},
		{"empty place name", func(b *Builder) { b.Place("") }},
		{"negative marking", func(b *Builder) { b.MarkedPlace("p", -1) }},
		{"zero weight", func(b *Builder) {
			p := b.Place("p")
			tr := b.Transition("t")
			b.WeightedArc(p, tr, 0)
		}},
		{"unknown place", func(b *Builder) {
			tr := b.Transition("t")
			b.WeightedArc(Place(7), tr, 1)
		}},
		{"bad chain kinds", func(b *Builder) {
			p := b.Place("p")
			q := b.Place("q")
			b.Chain(p, q)
		}},
		{"summed weight overflows int", func(b *Builder) {
			p := b.Place("p")
			tr := b.Transition("t")
			b.WeightedArc(p, tr, math.MaxInt)
			b.WeightedArc(p, tr, 2)
			b.Build()
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", tc.name)
				}
			}()
			tc.fn(NewBuilder("panic"))
		})
	}
}

func TestSourceSinkQueries(t *testing.T) {
	n := buildFig3a()
	if got := n.SourceTransitions(); len(got) != 1 || n.TransitionName(got[0]) != "t1" {
		t.Fatalf("SourceTransitions = %v", n.SequenceNames(got))
	}
	sinks := n.SinkTransitions()
	if len(sinks) != 2 {
		t.Fatalf("SinkTransitions = %v", n.SequenceNames(sinks))
	}
	if got := n.ChoicePlaces(); len(got) != 1 || n.PlaceName(got[0]) != "p1" {
		t.Fatalf("ChoicePlaces = %v", got)
	}
	if got := n.MergePlaces(); len(got) != 0 {
		t.Fatalf("MergePlaces = %v", got)
	}
}

func TestFiringSemantics(t *testing.T) {
	n := buildFig3a()
	t1, _ := n.TransitionByName("t1")
	t2, _ := n.TransitionByName("t2")
	t4, _ := n.TransitionByName("t4")
	m := n.InitialMarking()

	if !n.Enabled(m, t1) {
		t.Fatal("source transition must always be enabled")
	}
	if n.Enabled(m, t2) {
		t.Fatal("t2 enabled at empty marking")
	}
	if err := n.Fire(m, t2); err == nil {
		t.Fatal("firing disabled transition must error")
	}
	n.MustFire(m, t1)
	p1, _ := n.PlaceByName("p1")
	if m[p1] != 1 {
		t.Fatalf("after t1: marking = %v", m)
	}
	if fired, err := n.FireSequence(m, []Transition{t2, t4}); err != nil || fired != 2 {
		t.Fatalf("FireSequence = %d, %v", fired, err)
	}
	if m.Total() != 0 {
		t.Fatalf("marking not empty after cycle: %v", m)
	}
}

func TestFireSequenceStopsAtFailure(t *testing.T) {
	n := buildFig3a()
	t2, _ := n.TransitionByName("t2")
	m := n.InitialMarking()
	fired, err := n.FireSequence(m, []Transition{t2})
	if err == nil || fired != 0 {
		t.Fatalf("FireSequence = %d, %v", fired, err)
	}
	if !m.Equal(n.InitialMarking()) {
		t.Fatalf("failed sequence must not change marking before failing step: %v", m)
	}
}

func TestMarkingHelpers(t *testing.T) {
	m := Marking{1, 0, 2}
	if !m.Clone().Equal(m) {
		t.Fatal("clone not equal")
	}
	c := m.Clone()
	c[0] = 9
	if m[0] == 9 {
		t.Fatal("clone aliases original")
	}
	if m.Equal(Marking{1, 0}) {
		t.Fatal("different lengths compare equal")
	}
	if !m.Covers(Marking{1, 0, 1}) || m.Covers(Marking{2, 0, 0}) {
		t.Fatal("Covers wrong")
	}
	if m.Total() != 3 {
		t.Fatalf("Total = %d", m.Total())
	}
	if m.Key() != "1,0,2" || m.String() != "(1,0,2)" {
		t.Fatalf("Key/String = %q / %q", m.Key(), m.String())
	}
}

func TestDeadlocked(t *testing.T) {
	b := NewBuilder("dead")
	p := b.Place("p")
	tr := b.Transition("t")
	b.Arc(p, tr)
	n := b.Build()
	if !n.Deadlocked(n.InitialMarking()) {
		t.Fatal("empty net with one disabled transition should be deadlocked")
	}
	m := n.InitialMarking()
	m[p] = 1
	if n.Deadlocked(m) {
		t.Fatal("t is enabled")
	}
}

func TestFiringCount(t *testing.T) {
	n := buildFig3a()
	t1, _ := n.TransitionByName("t1")
	t2, _ := n.TransitionByName("t2")
	f := n.FiringCount([]Transition{t1, t2, t1})
	if want := []int{2, 1, 0, 0, 0}; !reflect.DeepEqual(f, want) {
		t.Fatalf("FiringCount = %v, want %v", f, want)
	}
}

func TestIncidenceAndApply(t *testing.T) {
	n := buildFig3a()
	d := n.IncidenceMatrix()
	t1, _ := n.TransitionByName("t1")
	p1, _ := n.PlaceByName("p1")
	if d[t1][p1] != 1 {
		t.Fatalf("D[t1][p1] = %d", d[t1][p1])
	}
	// f = (1,1,0,1,0) is a T-invariant of fig 3a.
	out := n.ApplyFiringVector(n.InitialMarking(), []int{1, 1, 0, 1, 0})
	if out.Total() != 0 {
		t.Fatalf("T-invariant should return to initial marking, got %v", out)
	}
	// Firing t1 twice and t2 once leaves one token in p1 and one in p2.
	out = n.ApplyFiringVector(n.InitialMarking(), []int{2, 1, 0, 0, 0})
	if out[p1] != 1 {
		t.Fatalf("ApplyFiringVector = %v", out)
	}
}

func TestPreMatrixPostMatrix(t *testing.T) {
	n := buildFig3a()
	pre, post := n.PreMatrix(), n.PostMatrix()
	t2, _ := n.TransitionByName("t2")
	p1, _ := n.PlaceByName("p1")
	p2, _ := n.PlaceByName("p2")
	if pre[t2][p1] != 1 || pre[t2][p2] != 0 {
		t.Fatalf("Pre row for t2 = %v", pre[t2])
	}
	if post[t2][p2] != 1 || post[t2][p1] != 0 {
		t.Fatalf("Post row for t2 = %v", post[t2])
	}
}

func TestWeightAccessors(t *testing.T) {
	b := NewBuilder("w")
	tr := b.Transition("t")
	p := b.Place("p")
	q := b.Place("q")
	b.WeightedArc(p, tr, 3)
	b.WeightedArcTP(tr, q, 2)
	n := b.Build()
	if n.Weight(p, tr) != 3 || n.Weight(q, tr) != 0 {
		t.Fatal("Weight wrong")
	}
	if n.WeightTP(tr, q) != 2 || n.WeightTP(tr, p) != 0 {
		t.Fatal("WeightTP wrong")
	}
}

func TestAccumulatedArcWeights(t *testing.T) {
	b := NewBuilder("acc")
	tr := b.Transition("t")
	p := b.Place("p")
	b.Arc(p, tr)
	b.WeightedArc(p, tr, 2)
	n := b.Build()
	if n.Weight(p, tr) != 3 {
		t.Fatalf("accumulated weight = %d, want 3", n.Weight(p, tr))
	}
}

// TestBuilderReusableAfterBuild holds Build to its promise that the
// Builder may keep being used: nodes and arcs added after a Build leave
// the net it returned unchanged.
func TestBuilderReusableAfterBuild(t *testing.T) {
	b := NewBuilder("reuse")
	p := b.Place("p")
	tr := b.Transition("t")
	b.Arc(p, tr)
	first := b.Build()
	q := b.Place("q")
	u := b.Transition("u")
	b.ArcTP(u, q)
	second := b.Build()

	if first.NumPlaces() != 1 || first.NumTransitions() != 1 || first.NumArcs() != 1 {
		t.Fatalf("first net grew to %d places, %d transitions, %d arcs",
			first.NumPlaces(), first.NumTransitions(), first.NumArcs())
	}
	if first.PlaceName(p) != "p" || first.TransitionName(tr) != "t" {
		t.Fatalf("first net renamed its nodes: %q, %q", first.PlaceName(p), first.TransitionName(tr))
	}
	if _, ok := first.PlaceByName("q"); ok {
		t.Fatal("first net finds the place added after it was built")
	}
	if _, ok := first.TransitionByName("u"); ok {
		t.Fatal("first net finds the transition added after it was built")
	}
	if second.NumPlaces() != 2 || second.NumTransitions() != 2 || second.NumArcs() != 2 ||
		second.PlaceName(q) != "q" || second.TransitionName(u) != "u" {
		t.Fatalf("second net:\n%s", second)
	}
}

func TestStringOutputs(t *testing.T) {
	n := buildFig3a()
	s := n.String()
	for _, frag := range []string{"fig3a", "t1", "(source)", "p1"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("String() missing %q:\n%s", frag, s)
		}
	}
	dot := n.DOT()
	for _, frag := range []string{"digraph", "shape=circle", "shape=box", "->"} {
		if !strings.Contains(dot, frag) {
			t.Fatalf("DOT missing %q:\n%s", frag, dot)
		}
	}
}

func TestArcsDeterministic(t *testing.T) {
	n := buildFig3a()
	a1 := n.Arcs()
	a2 := n.Arcs()
	if !reflect.DeepEqual(a1, a2) {
		t.Fatal("Arcs not deterministic")
	}
	// p→t arcs first.
	if a1[0].FromKind != PlaceNode {
		t.Fatalf("first arc kind = %v", a1[0].FromKind)
	}
}

func TestNodeKindString(t *testing.T) {
	if PlaceNode.String() != "place" || TransitionNode.String() != "transition" {
		t.Fatal("NodeKind strings wrong")
	}
	if got := NodeKind(9).String(); !strings.Contains(got, "9") {
		t.Fatalf("unknown kind = %q", got)
	}
}

func TestDOTMarkedPlacesAndWeights(t *testing.T) {
	b := NewBuilder("dotted")
	p := b.MarkedPlace("p", 3)
	tr := b.Transition("t")
	q := b.Place("q")
	b.WeightedArc(p, tr, 2)
	b.ArcTP(tr, q)
	n := b.Build()
	dot := n.DOT()
	if !strings.Contains(dot, "●3") {
		t.Fatalf("marked place label missing:\n%s", dot)
	}
	if !strings.Contains(dot, `label="2"`) {
		t.Fatalf("weight label missing:\n%s", dot)
	}
}

func TestChainLeadingKindAndSingleNode(t *testing.T) {
	b := NewBuilder("c")
	p := b.Place("p")
	tr := b.Transition("t")
	b.Chain(p, tr) // place-led chain
	n := b.Build()
	if n.Weight(p, tr) != 1 {
		t.Fatal("place-led chain failed")
	}
	// A single node chain is a no-op.
	b2 := NewBuilder("c2")
	b2.Chain(b2.Place("x"))
	if b2.Build().NumPlaces() != 1 {
		t.Fatal("single-node chain broke the builder")
	}
}

func TestFiguresAllValidate(t *testing.T) {
	// Every FC figure net passes Validate; figure1b is the designed
	// exception.
	for name, build := range map[string]func() *Net{
		"fig3a": buildFig3a,
		"mg":    buildMarkedGraph,
	} {
		if err := build().Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}
