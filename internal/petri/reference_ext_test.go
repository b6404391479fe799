package petri_test

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"
	"time"

	"fcpn/internal/atm"
	"fcpn/internal/figures"
	"fcpn/internal/modem"
	"fcpn/internal/netgen"
	"fcpn/internal/petri"
)

// TestConstructorsMatchReference pins Builder.Build, Parse, CanonicalNet,
// ConflictClusters, FreeChoiceSets and CanonicalForm against the
// map-based, pairwise and string references in reference_test.go over the paper's figures, the shipped
// .pn files, the ATM server, the modem and RandomNet and
// RandomSchedulablePipeline seeds 0–499, each RandomNet also in a variant
// that is not free-choice (see unfree), and sharedFirstPlace nets.
func TestConstructorsMatchReference(t *testing.T) {
	type entry struct {
		name string
		net  *petri.Net
	}
	var nets []entry
	figs := figures.All()
	names := make([]string, 0, len(figs))
	for name := range figs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		nets = append(nets, entry{name, figs[name]})
	}
	files, err := filepath.Glob("../../examples/nets/*.pn")
	if err != nil || len(files) == 0 {
		t.Fatalf("no example nets: %v", err)
	}
	for _, file := range files {
		f, err := os.Open(file)
		if err != nil {
			t.Fatal(err)
		}
		n, err := petri.Parse(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		nets = append(nets, entry{filepath.Base(file), n})
	}
	m, err := modem.New()
	if err != nil {
		t.Fatal(err)
	}
	nets = append(nets, entry{"atm", atm.New().Net}, entry{"modem", m.Net})
	seeds := uint64(500)
	if testing.Short() {
		seeds = 50
	}
	cfg := netgen.DefaultConfig()
	for seed := uint64(0); seed < seeds; seed++ {
		rn := netgen.RandomNet(seed, cfg)
		nets = append(nets,
			entry{fmt.Sprintf("RandomNet/%d", seed), rn},
			entry{fmt.Sprintf("RandomSchedulablePipeline/%d", seed), netgen.RandomSchedulablePipeline(seed, cfg)})
		if u := unfree(rn); u != nil {
			nets = append(nets, entry{fmt.Sprintf("RandomNet/%d/unfree", seed), u})
		}
	}
	for _, k := range []int{2, 7, 60, 301} {
		for _, share := range []int{1, 2, 3} {
			nets = append(nets, entry{fmt.Sprintf("sharedFirstPlace/%d/%d", k, share), sharedFirstPlace(k, share)})
		}
	}
	notFC := 0
	for _, e := range nets {
		if !e.net.IsFreeChoice() {
			notFC++
		}
		if err := petri.CheckAgainstReference(e.net); err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
	}
	t.Logf("%d nets, %d of them not free-choice", len(nets), notFC)
}

// unfree derives a net that is not free-choice from a net with a choice:
// the first consumer u of its first choice place c gets a second, marked
// input place q, and a new transition takes the same preset {c, q}. The
// result has a two-place conflict cluster and a choice whose alternatives
// have different presets. It returns nil for a net without a choice.
func unfree(n *petri.Net) *petri.Net {
	choices := n.ChoicePlaces()
	if len(choices) == 0 {
		return nil
	}
	b := petri.NewBuilder(n.Name() + "_unfree")
	init := n.InitialMarking()
	for p := 0; p < n.NumPlaces(); p++ {
		b.MarkedPlace(n.PlaceName(petri.Place(p)), init[p])
	}
	for t := 0; t < n.NumTransitions(); t++ {
		b.Transition(n.TransitionName(petri.Transition(t)))
	}
	for t := petri.Transition(0); int(t) < n.NumTransitions(); t++ {
		for _, a := range n.Pre(t) {
			b.WeightedArc(a.Place, t, a.Weight)
		}
		for _, a := range n.Post(t) {
			b.WeightedArcTP(t, a.Place, a.Weight)
		}
	}
	c := choices[0]
	u := n.Consumers(c)[0].Transition
	q := b.MarkedPlace("unfree_q", 1)
	b.Arc(q, u)
	dup := b.Transition("unfree_dup")
	b.Arc(c, dup)
	b.Arc(q, dup)
	return b.Build()
}

// sharedFirstPlace builds a net that is not free-choice: place p0 feeds
// k transitions, and transition i also consumes from place q(i/share),
// so p0 is every transition's first input place and each run of share
// transitions has one preset, an equal-conflict cluster of its own.
func sharedFirstPlace(k, share int) *petri.Net {
	b := petri.NewBuilder(fmt.Sprintf("shared%d_%d", k, share))
	p0 := b.MarkedPlace("p0", 1)
	var q petri.Place
	for i := 0; i < k; i++ {
		if i%share == 0 {
			q = b.MarkedPlace(fmt.Sprintf("q%d", i/share), 1)
		}
		t := b.Transition(fmt.Sprintf("t%d", i))
		b.Arc(p0, t)
		b.Arc(q, t)
		b.ArcTP(t, p0)
	}
	return b.Build()
}

// TestFreeChoiceSetsSharedFirstPlace times the first FreeChoiceSets call
// on sharedFirstPlace(40000, 2): 40,000 transitions share their first
// input place in 20,000 presets. Comparing each transition with every
// consumer of that place took seconds; sorting them by preset takes
// milliseconds.
func TestFreeChoiceSetsSharedFirstPlace(t *testing.T) {
	n := sharedFirstPlace(40000, 2)
	start := time.Now()
	clusters := n.FreeChoiceSets()
	if d := time.Since(start); d > time.Second {
		t.Fatalf("first FreeChoiceSets took %v", d)
	}
	if len(clusters) != 20000 {
		t.Fatalf("%d clusters, want 20000", len(clusters))
	}
	for i, c := range clusters {
		if want := []petri.Transition{petri.Transition(2 * i), petri.Transition(2*i + 1)}; !slices.Equal(c.Transitions, want) {
			t.Fatalf("cluster %d is %v, want %v", i, c.Transitions, want)
		}
	}
}

// TestNumArcs checks that NumArcs counts what Arcs builds, on the
// paper's figures, the ATM server, the modem and a net whose repeated
// weighted arcs sum into one arc each.
func TestNumArcs(t *testing.T) {
	b := petri.NewBuilder("repeated")
	p, q := b.Place("p"), b.Place("q")
	tr := b.Transition("t")
	b.WeightedArc(p, tr, 2)
	b.WeightedArc(p, tr, 3)
	b.Arc(q, tr)
	b.WeightedArcTP(tr, q, 4)
	b.WeightedArcTP(tr, q, 1)
	repeated := b.Build()
	if got := repeated.NumArcs(); got != 3 {
		t.Fatalf("repeated: NumArcs = %d, want 3", got)
	}
	m, err := modem.New()
	if err != nil {
		t.Fatal(err)
	}
	nets := map[string]*petri.Net{"atm": atm.New().Net, "modem": m.Net, "repeated": repeated}
	for name, n := range figures.All() {
		nets[name] = n
	}
	for name, n := range nets {
		if got, want := n.NumArcs(), len(n.Arcs()); got != want {
			t.Errorf("%s: NumArcs = %d, len(Arcs()) = %d", name, got, want)
		}
	}
}
