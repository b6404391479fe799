package petri_test

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"fcpn/internal/atm"
	"fcpn/internal/figures"
	"fcpn/internal/modem"
	"fcpn/internal/netgen"
	"fcpn/internal/petri"
)

var updateGolden = flag.Bool("update", false, "rewrite the petri package's golden files from this run")

// wideConfig generates nets with up to 6 sources, chains 8 deep and arc
// weights up to 40: enough colour classes and weights for the canonical
// order to compare multi-digit colours and weights.
func wideConfig() netgen.Config {
	cfg := netgen.DefaultConfig()
	cfg.MaxSources, cfg.MaxDepth, cfg.MaxWeight = 6, 8, 40
	return cfg
}

// TestCanonicalFormPinned pins the canonical form: per net, its Hash and
// one SHA-256 over PlaceAt and TransAt (PlacePos and TransPos are their
// inverses). The corpus is the figures, ATM, the modem, ChoiceFan(3) and
// ChoiceFan(10), and netgen seeds 0–299 of both generators under the
// default config and under wideConfig. The wide nets must include at
// least 200 with 101 or more nodes and at least 200 with an arc weight of
// 10 or more, so that the pin covers colours and weights of more than one
// digit. Regenerate with -update.
func TestCanonicalFormPinned(t *testing.T) {
	m, err := modem.New()
	if err != nil {
		t.Fatal(err)
	}
	nets := map[string]*petri.Net{
		"atm":         atm.New().Net,
		"modem":       m.Net,
		"choicefan3":  netgen.ChoiceFan(3),
		"choicefan10": netgen.ChoiceFan(10),
	}
	for name, n := range figures.All() {
		nets[name] = n
	}
	wideLarge, wideWeighted := 0, 0
	for seed := uint64(0); seed < 300; seed++ {
		nets[fmt.Sprintf("pipeline-%03d", seed)] = netgen.RandomSchedulablePipeline(seed, netgen.DefaultConfig())
		nets[fmt.Sprintf("random-%03d", seed)] = netgen.RandomNet(seed, netgen.DefaultConfig())
		wide := map[string]*petri.Net{
			fmt.Sprintf("wide-pipeline-%03d", seed): netgen.RandomSchedulablePipeline(seed, wideConfig()),
			fmt.Sprintf("wide-random-%03d", seed):   netgen.RandomNet(seed, wideConfig()),
		}
		for label, n := range wide {
			nets[label] = n
			if n.NumPlaces()+n.NumTransitions() >= 101 {
				wideLarge++
			}
			for _, a := range n.Arcs() {
				if a.Weight >= 10 {
					wideWeighted++
					break
				}
			}
		}
	}
	if wideLarge < 200 || wideWeighted < 200 {
		t.Fatalf("wide nets: %d with 101 or more nodes, %d with a weight of 10 or more; want at least 200 of each", wideLarge, wideWeighted)
	}
	labels := make([]string, 0, len(nets))
	for label := range nets {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	var buf bytes.Buffer
	for _, label := range labels {
		cf := nets[label].CanonicalForm()
		fmt.Fprintf(&buf, "%s %s %x\n", label, cf.Hash, sha256.Sum256(fmt.Appendf(nil, "%v\n%v\n", cf.PlaceAt, cf.TransAt)))
	}
	checkGolden(t, "canonical.golden", buf.Bytes())
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
