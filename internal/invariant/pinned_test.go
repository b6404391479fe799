package invariant_test

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
	"fcpn/internal/invariant"
	"fcpn/internal/modem"
	"fcpn/internal/netgen"
	"fcpn/internal/petri"
	"fcpn/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite the invariant package's golden files from this run")

// heavyConfig is the generator config of the benchmark's heavy band.
func heavyConfig() netgen.Config {
	cfg := netgen.DefaultConfig()
	cfg.MaxSources, cfg.MaxDepth = 4, 5
	return cfg
}

// tiersConfig is BenchmarkFarkasTiers' adversarial multirate config: arc
// weights up to 50,000 send some systems to the big.Int tier and some
// past the row cap.
func tiersConfig() netgen.Config {
	cfg := netgen.DefaultConfig()
	cfg.MaxWeight = 50000
	cfg.MultiratePct = 60
	return cfg
}

// pinnedNets is the semiflow pin's corpus under stable labels: the
// figures, ATM and modem, netgen seeds 0–499 of both generators, 64
// heavy pipelines, the 32 nets of BenchmarkFarkasTiers, and the dual of
// each.
func pinnedNets(t *testing.T) ([]string, map[string]*petri.Net) {
	t.Helper()
	m, err := modem.New()
	if err != nil {
		t.Fatal(err)
	}
	nets := map[string]*petri.Net{"atm": atm.New().Net, "modem": m.Net}
	for name, n := range figures.All() {
		nets[name] = n
	}
	for seed := uint64(0); seed < 500; seed++ {
		nets[fmt.Sprintf("pipeline-%03d", seed)] = netgen.RandomSchedulablePipeline(seed, netgen.DefaultConfig())
		nets[fmt.Sprintf("random-%03d", seed)] = netgen.RandomNet(seed, netgen.DefaultConfig())
	}
	for seed := uint64(1); seed <= 64; seed++ {
		nets[fmt.Sprintf("heavy-%02d", seed)] = netgen.RandomSchedulablePipeline(seed, heavyConfig())
	}
	for seed := uint64(1); seed <= 32; seed++ {
		nets[fmt.Sprintf("tiers-%02d", seed)] = netgen.RandomNet(seed, tiersConfig())
	}
	duals := make(map[string]*petri.Net, len(nets))
	for label, n := range nets {
		duals[label+"-dual"] = dual(n)
	}
	for label, n := range duals {
		nets[label] = n
	}
	labels := make([]string, 0, len(nets))
	for label := range nets {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	return labels, nets
}

// TestSemiflowsPinned pins the Farkas layer's output: per net and row
// cap, one SHA-256 of TInvariants and one of PInvariants ("-" when
// there are none, the quoted error when the call fails), and how many linalg/int64 and
// linalg/bigint spans the two calls recorded. "default" runs at the
// package's row cap and "rows16" at MaxRows 16, where many systems
// exceed the cap. Regenerate with -update.
func TestSemiflowsPinned(t *testing.T) {
	labels, nets := pinnedNets(t)
	var buf bytes.Buffer
	for _, s := range []struct {
		name    string
		maxRows int
	}{{"default", 0}, {"rows16", 16}} {
		for _, label := range labels {
			n := nets[label]
			tr := trace.New()
			opt := invariant.Options{MaxRows: s.maxRows, Trace: tr}
			tis, errT := invariant.TInvariants(n, opt)
			pis, errP := invariant.PInvariants(n, opt)
			tVecs := make([][]int, len(tis))
			for i, ti := range tis {
				tVecs[i] = ti.Counts
			}
			pVecs := make([][]int, len(pis))
			for i, pi := range pis {
				pVecs[i] = pi.Weights
			}
			rep := tr.Report()
			fmt.Fprintf(&buf, "%s %s T=%s P=%s int64=%d bigint=%d\n", s.name, label,
				pinSum(tVecs, errT), pinSum(pVecs, errP),
				phaseCount(rep, "linalg/int64"), phaseCount(rep, "linalg/bigint"))
		}
	}
	checkGolden(t, "semiflows.golden", buf.Bytes())
}

// pinSum is the SHA-256 of the semiflows, one per line, "-" for none,
// or the quoted error.
func pinSum(vecs [][]int, err error) string {
	if err != nil {
		return fmt.Sprintf("%q", err.Error())
	}
	if len(vecs) == 0 {
		return "-"
	}
	h := sha256.New()
	for _, v := range vecs {
		fmt.Fprintln(h, v)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func phaseCount(rep *trace.Report, name string) int64 {
	if ps, ok := rep.Phase(name); ok {
		return ps.Count
	}
	return 0
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

// BenchmarkSemiflows times one TInvariants or PInvariants call on figure
// 5, the ATM server, the modem and a heavy generated pipeline.
func BenchmarkSemiflows(b *testing.B) {
	m, err := modem.New()
	if err != nil {
		b.Fatal(err)
	}
	nets := []struct {
		name string
		net  *petri.Net
	}{
		{"figure5", figures.Figure5()},
		{"atm", atm.New().Net},
		{"modem", m.Net},
		{"pipeline", netgen.RandomSchedulablePipeline(1, heavyConfig())},
	}
	for _, x := range nets {
		b.Run(x.name+"/T", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := invariant.TInvariants(x.net, invariant.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(x.name+"/P", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := invariant.PInvariants(x.net, invariant.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
