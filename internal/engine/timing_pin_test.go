package engine

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sort"
	"testing"

	"fcpn/internal/atm"
	"fcpn/internal/figures"
	"fcpn/internal/modem"
	"fcpn/internal/netgen"
	"fcpn/internal/petri"
	"fcpn/internal/timing"
)

// timingPinNets is the pinned corpus: the paper's figures, the ATM
// server and modem models, and generated pipelines 0-199, each under a
// stable label.
func timingPinNets(t *testing.T) ([]string, map[string]*petri.Net) {
	t.Helper()
	m, err := modem.New()
	if err != nil {
		t.Fatal(err)
	}
	nets := map[string]*petri.Net{"atm": atm.New().Net, "modem": m.Net}
	for name, n := range figures.All() {
		nets[name] = n
	}
	for seed := uint64(0); seed < 200; seed++ {
		nets[fmt.Sprintf("pipeline-%03d", seed)] = netgen.RandomSchedulablePipeline(seed, netgen.DefaultConfig())
	}
	labels := make([]string, 0, len(nets))
	for label := range nets {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	return labels, nets
}

// TestTimingReportsPinned pins the timing pass's output bytes: one
// SHA-256 of the TimingReport JSON per net ("-" for a net without one)
// in the two settings qssd runs: "mk" is qssd -mk 9,10 and "margin" is
// qssd -mk 9,10 -margin, which perfbench's margin workload also runs.
// Regenerate with -update.
func TestTimingReportsPinned(t *testing.T) {
	labels, nets := timingPinNets(t)
	mk := timing.Constraint{M: 9, K: 10}
	settings := []struct {
		name string
		opts TimingOptions
	}{
		{"mk", TimingOptions{MK: mk}},
		{"margin", TimingOptions{MK: mk, Margin: true}},
	}
	var buf bytes.Buffer
	for _, s := range settings {
		e := New(Config{Workers: 1, Timing: s.opts})
		for _, label := range labels {
			rep := analyze(t, e, nets[label])
			sum := "-"
			if rep.Timing != nil {
				b, err := json.Marshal(rep.Timing)
				if err != nil {
					t.Fatal(err)
				}
				sum = fmt.Sprintf("%x", sha256.Sum256(b))
			}
			fmt.Fprintf(&buf, "%s %s %s\n", s.name, label, sum)
		}
		e.Close()
	}
	checkGolden(t, "timing_reports.golden", buf.Bytes())
}
