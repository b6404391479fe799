package fcpn_test

// Acceptance test of the exact-arithmetic ladder: the paper's standard
// nets — every figure, the ATM server and the modem — and the generated
// pipelines the benchmark corpora draw from are small-weight systems
// that must be served entirely by the int64 tier. A single linalg/bigint
// phase hit on this corpus means the fast path regressed and every
// invariant computation is paying big.Int allocation again.

import (
	"fmt"
	"testing"

	"fcpn/internal/atm"
	"fcpn/internal/core"
	"fcpn/internal/figures"
	"fcpn/internal/invariant"
	"fcpn/internal/modem"
	"fcpn/internal/netgen"
	"fcpn/internal/petri"
	"fcpn/internal/trace"
)

func TestStandardNetsStayInInt64Tier(t *testing.T) {
	nets := map[string]*petri.Net{
		"atm": atm.New().Net,
	}
	for name, n := range figures.All() {
		nets[name] = n
	}
	mm, err := modem.New()
	if err != nil {
		t.Fatal(err)
	}
	nets["modem"] = mm.Net
	// The generator configs of the benchmark corpora: the default one and
	// the heavy band's larger one.
	heavy := netgen.DefaultConfig()
	heavy.MaxSources, heavy.MaxDepth = 4, 5
	for seed := uint64(1); seed <= 64; seed++ {
		nets[fmt.Sprintf("pipeline-default-%d", seed)] = netgen.RandomSchedulablePipeline(seed, netgen.DefaultConfig())
	}
	for seed := uint64(1); seed <= 16; seed++ {
		nets[fmt.Sprintf("pipeline-heavy-%d", seed)] = netgen.RandomSchedulablePipeline(seed, heavy)
	}
	// rank(D) of the standard nets' incidence matrices.
	wantRank := map[string]int{
		"atm": 36, "figure1a": 1, "figure1b": 2, "figure2": 2, "figure3a": 3,
		"figure3b": 3, "figure4": 3, "figure5": 6, "figure7": 6, "modem": 18,
	}
	ranked := 0

	for name, n := range nets {
		tr := trace.New()
		opt := invariant.Options{Trace: tr}
		if _, err := invariant.TInvariants(n, opt); err != nil {
			t.Fatalf("%s: TInvariants: %v", name, err)
		}
		if _, err := invariant.PInvariants(n, opt); err != nil {
			t.Fatalf("%s: PInvariants: %v", name, err)
		}
		rt, err := invariant.RankTheoremFC(n, opt)
		if err != nil {
			t.Fatalf("%s: RankTheoremFC: %v", name, err)
		}
		if want, ok := wantRank[name]; ok {
			ranked++
			if rt.Rank != want {
				t.Errorf("%s: rank(D) = %d, want %d", name, rt.Rank, want)
			}
		}
		// Solve errors are fine (not every figure is schedulable); the
		// tier residency of the attempt is what is under test.
		core.Solve(n, core.Options{Trace: tr})

		rep := tr.Report()
		if ps, ok := rep.Phase("linalg/bigint"); ok && ps.Count > 0 {
			t.Errorf("%s: %d big.Int fallbacks", name, ps.Count)
		}
		if ps, ok := rep.Phase("linalg/int64"); !ok || ps.Count == 0 {
			t.Errorf("%s: no linalg/int64 phase recorded; ladder not traced", name)
		}
		// Every Definition 3.5 check restricts the parent's semiflows
		// (TestEveryReductionRestrictionExact holds every reduction of
		// these nets to the premise that makes this exact).
		checks, _ := rep.Phase("core/check")
		if got := rep.Counter("core/semiflow/restricted"); got != checks.Count {
			t.Errorf("%s: %d restricted semiflow sets for %d checks", name, got, checks.Count)
		}
	}
	if ranked != len(wantRank) {
		t.Errorf("checked rank(D) on %d of %d standard nets", ranked, len(wantRank))
	}
}
