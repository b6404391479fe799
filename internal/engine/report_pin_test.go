package engine

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"slices"
	"testing"

	"fcpn/internal/atm"
	"fcpn/internal/figures"
	"fcpn/internal/netgen"
	"fcpn/internal/petri"
)

// oddFragments are name pieces that JSON escapes or sorts unusually:
// HTML-sensitive bytes, a quote, a backslash, a control byte, U+2028,
// non-ASCII letters and a byte that is not valid UTF-8.
var oddFragments = []string{"<", ">", "&", `"`, `\`, "\x01", "\u2028", "é", "ß", "\xff", "Ω"}

// oddlyNamed rebuilds n with every node renamed around oddFragments,
// in n's declaration order, so the copy is an isomorphic twin whose
// report names need escaping and sort in another order.
func oddlyNamed(n *petri.Net) *petri.Net {
	frag := func(i int) string { return oddFragments[i%len(oddFragments)] }
	b := petri.NewBuilder("odd" + frag(0) + frag(2) + frag(3) + frag(5) + frag(6) + frag(9) + n.Name())
	m := n.InitialMarking()
	for p := 0; p < n.NumPlaces(); p++ {
		b.MarkedPlace("P"+frag(p)+n.PlaceName(petri.Place(p))+frag(3*p+1), m[p])
	}
	for t := 0; t < n.NumTransitions(); t++ {
		b.Transition("T" + frag(t+4) + n.TransitionName(petri.Transition(t)) + frag(5*t))
	}
	for _, a := range n.Arcs() {
		if a.FromKind == petri.PlaceNode {
			b.WeightedArc(petri.Place(a.From), petri.Transition(a.To), a.Weight)
		} else {
			b.WeightedArcTP(petri.Transition(a.From), petri.Place(a.To), a.Weight)
		}
	}
	return b.Build()
}

// TestReportsPinned pins whole reports: one line per net with the
// SHA-256 of json.Marshal(NetReport) and of the same report written by
// an Encoder with SetEscapeHTML(false), the two ways reports leave the
// process (batch output and netinfo; the HTTP service and the
// coordinator). The corpus is the paper's figures, the ATM server and
// modem, generated pipelines 0–199 at the default band and 0–49 at the
// heavy band, RandomNet 0–199 (unschedulable ones included), and
// oddlyNamed copies of Figure 5 and ATM. One engine analyses them in
// that order, so the copies are cache hits. Regenerate with -update.
func TestReportsPinned(t *testing.T) {
	_, pinned := timingPinNets(t)
	type entry struct {
		label string
		net   *petri.Net
	}
	var nets []entry
	for _, label := range []string{"atm", "modem"} {
		nets = append(nets, entry{label, pinned[label]})
	}
	for _, name := range sortedFigureNames() {
		nets = append(nets, entry{name, pinned[name]})
	}
	heavy := netgen.DefaultConfig()
	heavy.MaxSources, heavy.MaxDepth = 4, 5
	for seed := uint64(0); seed < 200; seed++ {
		nets = append(nets, entry{fmt.Sprintf("pipeline-%03d", seed), pinned[fmt.Sprintf("pipeline-%03d", seed)]})
	}
	for seed := uint64(0); seed < 50; seed++ {
		nets = append(nets, entry{fmt.Sprintf("heavy-%03d", seed), netgen.RandomSchedulablePipeline(seed, heavy)})
	}
	for seed := uint64(0); seed < 200; seed++ {
		nets = append(nets, entry{fmt.Sprintf("random-%03d", seed), netgen.RandomNet(seed, netgen.DefaultConfig())})
	}
	nets = append(nets,
		entry{"odd-figure5", oddlyNamed(figures.Figure5())},
		entry{"odd-atm", oddlyNamed(atm.New().Net)})

	e := New(Config{Workers: 1})
	defer e.Close()
	var buf, raw bytes.Buffer
	schedulable := 0
	for _, x := range nets {
		rep := analyze(t, e, x.net)
		if rep.Schedulable {
			schedulable++
		}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		raw.Reset()
		enc := json.NewEncoder(&raw)
		enc.SetEscapeHTML(false)
		if err := enc.Encode(rep); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, "%s %x %x\n", x.label, sha256.Sum256(b), sha256.Sum256(raw.Bytes()))
	}
	if schedulable < len(nets)/2 || schedulable == len(nets) {
		t.Fatalf("%d of %d pinned nets schedulable: the corpus should hold both verdicts", schedulable, len(nets))
	}
	checkGolden(t, "reports.golden", buf.Bytes())
}

// sortedFigureNames lists the paper's figure nets by name.
func sortedFigureNames() []string {
	var names []string
	for name := range figures.All() {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}
