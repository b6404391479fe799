package core_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"fcpn/internal/atm"
	"fcpn/internal/core"
	"fcpn/internal/figures"
	"fcpn/internal/modem"
	"fcpn/internal/netgen"
	"fcpn/internal/petri"
)

var updateGolden = flag.Bool("update", false, "rewrite the core package's golden files from this run")

// TestDistinctReductionsPinned pins the distinct-reduction search: per
// net, how many reductions EnumerateDistinctReductions returns and one
// SHA-256 over them in enumeration order (each one's allocation, kept
// transitions, kept places and Steps), or the quoted error. The corpus
// is the figures, ATM, the modem, netgen seeds 0–499 of both
// generators, 64 heavy pipelines and netgen.ChoiceFan(10). Regenerate
// with -update.
func TestDistinctReductionsPinned(t *testing.T) {
	m, err := modem.New()
	if err != nil {
		t.Fatal(err)
	}
	nets := map[string]*petri.Net{
		"atm":         atm.New().Net,
		"modem":       m.Net,
		"choicefan10": netgen.ChoiceFan(10),
	}
	for name, n := range figures.All() {
		nets[name] = n
	}
	heavy := netgen.DefaultConfig()
	heavy.MaxSources, heavy.MaxDepth = 4, 5
	for seed := uint64(0); seed < 500; seed++ {
		nets[fmt.Sprintf("pipeline-%03d", seed)] = netgen.RandomSchedulablePipeline(seed, netgen.DefaultConfig())
		nets[fmt.Sprintf("random-%03d", seed)] = netgen.RandomNet(seed, netgen.DefaultConfig())
	}
	for seed := uint64(1); seed <= 64; seed++ {
		nets[fmt.Sprintf("heavy-%02d", seed)] = netgen.RandomSchedulablePipeline(seed, heavy)
	}
	labels := make([]string, 0, len(nets))
	for label := range nets {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	var buf bytes.Buffer
	for _, label := range labels {
		n := nets[label]
		reds, err := core.EnumerateDistinctReductions(n, 0)
		if err != nil {
			fmt.Fprintf(&buf, "%s %q\n", label, err.Error())
			continue
		}
		h := sha256.New()
		for _, r := range reds {
			a := r.Allocation
			for i, c := range a.Clusters {
				places := make([]string, len(c.Places))
				for j, p := range c.Places {
					places[j] = n.PlaceName(p)
				}
				fmt.Fprintf(h, "%s→%s ", strings.Join(places, "+"), n.TransitionName(a.Chosen[i]))
			}
			fmt.Fprintf(h, "\nT %v\nP %v\n%s\n", r.KeptTransitions(), r.KeptPlaces(), strings.Join(r.Steps(), "; "))
		}
		fmt.Fprintf(&buf, "%s %d %x\n", label, len(reds), h.Sum(nil))
	}
	checkGolden(t, "reductions.golden", buf.Bytes())
}

// checkGolden compares got with testdata/name line by line, first
// rewriting the file under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("line %d differs from %s:\ngot:  %s\nwant: %s", i+1, path, gl[i], wl[i])
			}
		}
		t.Fatalf("%s has %d lines, this run %d", path, len(wl), len(gl))
	}
}

// TestExplorePinned pins the trade-off exploration: per net and option
// set (the defaults, and KeepDuplicateReductions with MaxAllocations
// 1024), one SHA-256 of json.Marshal of the trade-off points Explore
// returns, or the quoted error. The corpus is the figures, ATM, the modem
// and netgen seeds 0–299 of both generators. Regenerate with -update.
func TestExplorePinned(t *testing.T) {
	m, err := modem.New()
	if err != nil {
		t.Fatal(err)
	}
	nets := map[string]*petri.Net{
		"atm":   atm.New().Net,
		"modem": m.Net,
	}
	for name, n := range figures.All() {
		nets[name] = n
	}
	for seed := uint64(0); seed < 300; seed++ {
		nets[fmt.Sprintf("pipeline-%03d", seed)] = netgen.RandomSchedulablePipeline(seed, netgen.DefaultConfig())
		nets[fmt.Sprintf("random-%03d", seed)] = netgen.RandomNet(seed, netgen.DefaultConfig())
	}
	labels := make([]string, 0, len(nets))
	for label := range nets {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	optionSets := []struct {
		name string
		opt  core.Options
	}{
		{"default", core.Options{}},
		{"keepdup", core.Options{KeepDuplicateReductions: true, MaxAllocations: 1024}},
	}
	var buf bytes.Buffer
	for _, label := range labels {
		for _, o := range optionSets {
			pts, err := core.Explore(nets[label], o.opt)
			if err != nil {
				fmt.Fprintf(&buf, "%s %s %q\n", label, o.name, err.Error())
				continue
			}
			b, err := json.Marshal(pts)
			if err != nil {
				t.Fatalf("%s %s: %v", label, o.name, err)
			}
			fmt.Fprintf(&buf, "%s %s %x\n", label, o.name, sha256.Sum256(b))
		}
	}
	checkGolden(t, "explore.golden", buf.Bytes())
}
