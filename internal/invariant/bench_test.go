package invariant

import (
	"testing"

	"fcpn/internal/figures"
	"fcpn/internal/netgen"
	"fcpn/internal/petri"
	"fcpn/internal/trace"
)

func BenchmarkTInvariantsFigure5(b *testing.B) {
	n := figures.Figure5()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := TInvariants(n, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRankTheorem(b *testing.B) {
	n := figures.Figure3a()
	for i := 0; i < b.N; i++ {
		if _, err := RankTheoremFC(n, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFarkasTiers measures tier residency of the exact-arithmetic
// ladder on an adversarial multirate corpus: arc weights up to 50000 make
// semiflow entries multiply along chains, so some systems outgrow the
// int64 tier and fall back to big.Int. The reported int64-ops/op and
// bigint-fallbacks/op are the per-iteration counts of the ladder's
// linalg/* trace phases — the same figures qssd reports per net — so a
// pruning or limit regression shows up as residency drift, not just time.
func BenchmarkFarkasTiers(b *testing.B) {
	cfg := netgen.DefaultConfig()
	cfg.MaxWeight = 50000
	cfg.MultiratePct = 60
	var nets = make([]*petri.Net, 32)
	for i := range nets {
		nets[i] = netgen.RandomNet(uint64(i+1), cfg)
	}
	b.ReportAllocs()
	tr := trace.New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, n := range nets {
			opt := Options{Trace: tr}
			// Adversarial synchronising nets may exceed the row cap;
			// tier residency of the attempt is still what we measure.
			if _, err := TInvariants(n, opt); err != nil && err != ErrTooComplex {
				b.Fatal(err)
			}
			if _, err := PInvariants(n, opt); err != nil && err != ErrTooComplex {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	rep := tr.Report()
	for phase, metric := range map[string]string{
		"linalg/int64":  "int64-ops/op",
		"linalg/bigint": "bigint-fallbacks/op",
	} {
		var count int64
		if ps, ok := rep.Phase(phase); ok {
			count = ps.Count
		}
		b.ReportMetric(float64(count)/float64(b.N), metric)
	}
}
