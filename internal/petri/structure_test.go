package petri

import "testing"

func buildFig1b() *Net {
	b := NewBuilder("fig1b")
	p1 := b.Place("p1")
	p2 := b.MarkedPlace("p2", 1)
	t1 := b.Transition("t1")
	t2 := b.Transition("t2")
	t3 := b.Transition("t3")
	b.ArcTP(t1, p1)
	b.Arc(p1, t2)
	b.Arc(p2, t2)
	b.Arc(p2, t3)
	return b.Build()
}

func buildMarkedGraph() *Net {
	b := NewBuilder("mg")
	t1 := b.Transition("t1")
	t2 := b.Transition("t2")
	p := b.MarkedPlace("p", 1)
	q := b.Place("q")
	b.Chain(t1, p, t2, q, t1)
	return b.Build()
}

func TestFigure1Classification(t *testing.T) {
	// Figure 1a: free choice.
	b := NewBuilder("fig1a")
	p := b.MarkedPlace("p", 1)
	t1 := b.Transition("t1")
	t2 := b.Transition("t2")
	b.Arc(p, t1)
	b.Arc(p, t2)
	fc := b.Build()
	if !fc.IsFreeChoice() {
		t.Fatal("figure 1a must be free-choice")
	}
	if fc.IsConflictFree() {
		t.Fatal("figure 1a has a conflict")
	}
	if err := fc.ValidateFreeChoice(); err != nil {
		t.Fatalf("ValidateFreeChoice: %v", err)
	}

	// Figure 1b: not free choice (t2 is enabled only with both tokens).
	nfc := buildFig1b()
	if nfc.IsFreeChoice() {
		t.Fatal("figure 1b must not be free-choice")
	}
	if err := nfc.ValidateFreeChoice(); err == nil {
		t.Fatal("ValidateFreeChoice must fail for figure 1b")
	}
}

func TestSubclassPredicates(t *testing.T) {
	mg := buildMarkedGraph()
	if !mg.IsMarkedGraph() || !mg.IsConflictFree() || !mg.IsFreeChoice() {
		t.Fatal("cycle of two transitions is a marked graph and thus CF and FC")
	}
	if mg.Classify() != "marked graph" {
		t.Fatalf("Classify = %q", mg.Classify())
	}

	fig3a := buildFig3a()
	if fig3a.IsMarkedGraph() || fig3a.IsConflictFree() {
		t.Fatal("fig3a has a choice place")
	}
	if !fig3a.IsFreeChoice() {
		t.Fatal("fig3a is free-choice")
	}
	if fig3a.Classify() != "free-choice" {
		t.Fatalf("Classify = %q", fig3a.Classify())
	}
	if got := buildFig1b().Classify(); got != "general" {
		t.Fatalf("fig1b Classify = %q", got)
	}
}

func TestIsStateMachine(t *testing.T) {
	b := NewBuilder("sm")
	p := b.MarkedPlace("p", 1)
	q := b.Place("q")
	t1 := b.Transition("t1")
	t2 := b.Transition("t2")
	b.Chain(p, t1, q, t2, p)
	n := b.Build()
	if !n.IsStateMachine() {
		t.Fatal("two-state cycle is a state machine")
	}
	if buildFig3a().IsStateMachine() {
		t.Fatal("fig3a has source/sink transitions, not a state machine")
	}
}

func TestExtendedFreeChoice(t *testing.T) {
	// Two transitions sharing BOTH input places: EFC but not FC.
	b := NewBuilder("efc")
	p1 := b.Place("p1")
	p2 := b.Place("p2")
	t1 := b.Transition("t1")
	t2 := b.Transition("t2")
	b.Arc(p1, t1)
	b.Arc(p2, t1)
	b.Arc(p1, t2)
	b.Arc(p2, t2)
	n := b.Build()
	if n.IsFreeChoice() {
		t.Fatal("shared double-preset is not ordinary free choice")
	}
	if !n.IsExtendedFreeChoice() {
		t.Fatal("equal presets must be extended free choice")
	}
	if buildFig1b().IsExtendedFreeChoice() {
		t.Fatal("fig1b is not extended free choice either")
	}
}

func TestEqualConflictAndClusters(t *testing.T) {
	n := buildFig3a()
	t1, _ := n.TransitionByName("t1")
	t2, _ := n.TransitionByName("t2")
	t3, _ := n.TransitionByName("t3")
	t4, _ := n.TransitionByName("t4")
	if !n.EqualConflict(t2, t3) {
		t.Fatal("t2 and t3 share preset {p1}")
	}
	if n.EqualConflict(t2, t4) {
		t.Fatal("t2 and t4 are not in conflict")
	}
	if n.EqualConflict(t1, t1) {
		t.Fatal("source transitions are never in equal conflict (Pre = 0)")
	}

	clusters := n.ConflictClusters()
	if len(clusters) != 3 {
		t.Fatalf("clusters = %d, want 3 ({t2,t3},{t4},{t5})", len(clusters))
	}
	choice := n.FreeChoiceSets()
	if len(choice) != 1 || len(choice[0].Transitions) != 2 {
		t.Fatalf("FreeChoiceSets = %+v", choice)
	}
	if n.PlaceName(choice[0].Places[0]) != "p1" {
		t.Fatalf("choice place = %q", n.PlaceName(choice[0].Places[0]))
	}
}

func TestConnectivity(t *testing.T) {
	if !buildMarkedGraph().StronglyConnected() {
		t.Fatal("cycle must be strongly connected")
	}
	n := buildFig3a()
	if n.StronglyConnected() {
		t.Fatal("net with sources/sinks is not strongly connected")
	}
	if !n.WeaklyConnected() {
		t.Fatal("fig3a is weakly connected")
	}
	// Two disjoint pieces.
	b := NewBuilder("dis")
	p := b.Place("p")
	q := b.Place("q")
	t1 := b.Transition("t1")
	t2 := b.Transition("t2")
	b.ArcTP(t1, p)
	b.ArcTP(t2, q)
	if b.Build().WeaklyConnected() {
		t.Fatal("disconnected net reported connected")
	}
}

func TestValidate(t *testing.T) {
	if err := buildFig3a().Validate(); err != nil {
		t.Fatalf("fig3a: %v", err)
	}
	if err := buildFig1b().Validate(); err == nil {
		t.Fatal("fig1b must fail validation")
	}
	// Weighted choice arc.
	b := NewBuilder("wchoice")
	p := b.Place("p")
	t1 := b.Transition("t1")
	t2 := b.Transition("t2")
	b.WeightedArc(p, t1, 2)
	b.Arc(p, t2)
	if err := b.Build().Validate(); err == nil {
		t.Fatal("weighted choice arcs must fail validation")
	}
	// Empty net.
	if err := NewBuilder("empty").Build().Validate(); err == nil {
		t.Fatal("empty net must fail validation")
	}
}

func TestSubnetInduction(t *testing.T) {
	n := buildFig3a()
	t1, _ := n.TransitionByName("t1")
	t2, _ := n.TransitionByName("t2")
	t4, _ := n.TransitionByName("t4")
	p1, _ := n.PlaceByName("p1")
	p2, _ := n.PlaceByName("p2")
	// The arguments are out of parent order; the subnet's nodes are not.
	s := n.InducedSubnet("r1", []Transition{t4, t1, t2}, []Place{p2, p1})
	if s.NumTransitions() != 3 || s.NumPlaces() != 2 {
		t.Fatalf("subnet shape = %d/%d", s.NumTransitions(), s.NumPlaces())
	}
	if !s.IsConflictFree() {
		t.Fatal("reduced net must be conflict-free")
	}
	if s.Name() != "r1" {
		t.Fatalf("subnet name = %q", s.Name())
	}
	for i, name := range []string{"t1", "t2", "t4"} {
		if got := s.TransitionName(Transition(i)); got != name {
			t.Fatalf("subnet transition %d = %s, want %s", i, got, name)
		}
	}
	for i, name := range []string{"p1", "p2"} {
		if got := s.PlaceName(Place(i)); got != name {
			t.Fatalf("subnet place %d = %s, want %s", i, got, name)
		}
	}
	if _, ok := s.TransitionByName("t3"); ok {
		t.Fatal("dropped transition still present")
	}
	if _, ok := s.PlaceByName("p3"); ok {
		t.Fatal("dropped place still present")
	}
}

func TestSubnetKeepsMarkingAndWeights(t *testing.T) {
	b := NewBuilder("wm")
	tr := b.Transition("t")
	u := b.Transition("u")
	p := b.MarkedPlace("p", 3)
	q := b.Place("q")
	b.WeightedArc(p, tr, 2)
	b.WeightedArcTP(tr, q, 4)
	b.Arc(q, u)
	n := b.Build()
	s := n.InducedSubnet("sub", []Transition{tr}, []Place{p, q})
	sp, _ := s.PlaceByName("p")
	if s.InitialMarking()[sp] != 3 {
		t.Fatal("marking not preserved")
	}
	st, _ := s.TransitionByName("t")
	sq, _ := s.PlaceByName("q")
	if s.Weight(sp, st) != 2 || s.WeightTP(st, sq) != 4 {
		t.Fatal("weights not preserved")
	}
	// u was dropped; q must have no consumers in the subnet.
	if len(s.Consumers(sq)) != 0 {
		t.Fatal("dropped consumer still present")
	}
}
