package core_test

import (
	"testing"

	"fcpn/internal/atm"
	"fcpn/internal/core"
	"fcpn/internal/modem"
	"fcpn/internal/netgen"
	"fcpn/internal/petri"
)

// handoffNets is the corpus of the schedule hand-off benchmarks and of
// the distinct-reduction search's: the ATM server (2,048 allocations, 56
// distinct T-reductions), the modem, a heavy generated pipeline (4
// sources, depth 5) and netgen.ChoiceFan(10), whose 1,024 allocations are
// 1,024 distinct T-reductions and so 1,024 cycles.
func handoffNets(b *testing.B) []struct {
	name string
	net  *petri.Net
} {
	m, err := modem.New()
	if err != nil {
		b.Fatal(err)
	}
	heavy := netgen.DefaultConfig()
	heavy.MaxSources, heavy.MaxDepth = 4, 5
	return []struct {
		name string
		net  *petri.Net
	}{
		{"atm", atm.New().Net},
		{"modem", m.Net},
		{"pipeline", netgen.RandomSchedulablePipeline(1, heavy)},
		{"choicefan10", netgen.ChoiceFan(10)},
	}
}

// BenchmarkScheduleExport measures Schedule.Export, the name-form
// conversion every report's schedule goes through.
func BenchmarkScheduleExport(b *testing.B) {
	for _, x := range handoffNets(b) {
		s, err := core.Solve(x.net, core.Options{})
		if err != nil {
			b.Fatalf("%s: %v", x.name, err)
		}
		b.Run(x.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = s.Export()
			}
			b.ReportMetric(float64(len(s.Cycles)), "cycles")
		})
	}
}

// BenchmarkEnumerateDistinctReductions measures the distinct-reduction
// search, which every schedule computation starts with.
func BenchmarkEnumerateDistinctReductions(b *testing.B) {
	for _, x := range handoffNets(b) {
		b.Run(x.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.EnumerateDistinctReductions(x.net, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
