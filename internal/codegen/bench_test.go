package codegen_test

import (
	"testing"

	"fcpn/internal/atm"
	"fcpn/internal/codegen"
	"fcpn/internal/core"
	"fcpn/internal/figures"
	"fcpn/internal/modem"
	"fcpn/internal/netgen"
	"fcpn/internal/petri"
)

// BenchmarkEmitC renders the task-level C of Figure 5, the ATM server,
// the modem and a heavy generated pipeline (4 sources, depth 5) once per
// op; the schedule, partition and program are built before the timer
// starts.
func BenchmarkEmitC(b *testing.B) {
	m, err := modem.New()
	if err != nil {
		b.Fatal(err)
	}
	heavy := netgen.DefaultConfig()
	heavy.MaxSources, heavy.MaxDepth = 4, 5
	nets := []struct {
		name string
		net  *petri.Net
	}{
		{"figure5", figures.Figure5()},
		{"atm", atm.New().Net},
		{"modem", m.Net},
		{"pipeline", netgen.RandomSchedulablePipeline(1, heavy)},
	}
	for _, x := range nets {
		sched, err := core.Solve(x.net, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		tp, err := core.PartitionTasks(x.net, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		prog, err := codegen.Generate(sched, tp)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(x.name, func(b *testing.B) {
			b.ReportAllocs()
			var src string
			for i := 0; i < b.N; i++ {
				src = codegen.EmitC(prog, codegen.CConfig{})
			}
			b.ReportMetric(float64(codegen.LineCount(src)), "lines")
		})
	}
}
