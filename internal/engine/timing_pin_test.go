package engine

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
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

// TestTimingHitsMatchPinned checks warm hits against the cold runs that
// TestTimingReportsPinned pins: an engine in the "margin" setting
// analyses the pinned corpus once, then each net again, parsed afresh
// from its text, and every second report must hash to the golden's
// "margin" line without a single miss of the timing layer.
func TestTimingHitsMatchPinned(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "timing_reports.golden"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSuffix(string(golden), "\n"), "\n") {
		f := strings.Fields(line)
		if len(f) != 3 {
			t.Fatalf("golden line %q: want SETTING LABEL SUM", line)
		}
		if f[0] == "margin" {
			want[f[1]] = f[2]
		}
	}
	labels, nets := timingPinNets(t)
	e := New(Config{Workers: 1, Timing: TimingOptions{MK: timing.Constraint{M: 9, K: 10}, Margin: true}})
	defer e.Close()
	for _, label := range labels {
		analyze(t, e, nets[label])
	}
	timingMisses := func() int64 { return e.Stats().Trace.Counters["cache/timing/miss"] }
	misses := timingMisses()
	if misses == 0 {
		t.Fatal("the cold pass counted no timing misses")
	}
	for _, label := range labels {
		twin, err := petri.ParseString(petri.Format(nets[label]))
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		rep := analyze(t, e, twin)
		sum := "-"
		if rep.Timing != nil {
			sum = fmt.Sprintf("%x", sha256.Sum256([]byte(timingJSON(t, rep))))
		}
		if w, ok := want[label]; !ok || sum != w {
			t.Errorf("%s: warm timing report hashes to %s, golden says %q", label, sum, w)
		}
	}
	if got := timingMisses(); got != misses {
		t.Fatalf("the warm pass missed the timing layer %d times", got-misses)
	}
}
