package sim_test

import (
	"testing"

	"fcpn/internal/atm"
	"fcpn/internal/modem"
	"fcpn/internal/netgen"
	"fcpn/internal/petri"
	"fcpn/internal/rtos"
	"fcpn/internal/sim"
	"fcpn/internal/timing"
)

// BenchmarkSearchOverloadMargin times one overload-margin search per op:
// the ATM server, the modem and a heavy generated pipeline (4 sources,
// depth 5) under the burst and overrun kinds, each over the engine's
// periodic workload of 32 events per source with a calibrated (9,10)
// deadline. probes/op is the bisection's probe count and events/op the
// events its probes served (sim.OverloadMargin.ProbeEvents).
func BenchmarkSearchOverloadMargin(b *testing.B) {
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
		{"atm", atm.New().Net},
		{"modem", m.Net},
		{"pipeline", netgen.RandomSchedulablePipeline(1, heavy)},
	}
	cost := rtos.DefaultCostModel()
	for _, x := range nets {
		mp, err := compileMarginProgram(x.name, x.net, 32)
		if err != nil {
			b.Fatal(err)
		}
		for _, kind := range []sim.OverloadKind{sim.OverloadBurst, sim.OverloadOverrun} {
			cfg := sim.MarginConfig{
				Kind:   kind,
				MK:     timing.Constraint{M: 9, K: 10},
				Seed:   1,
				Robust: sim.RobustConfig{CyclesPerTick: 1},
			}
			b.Run(x.name+"/"+kind.String(), func(b *testing.B) {
				b.ReportAllocs()
				var probes, events int64
				for i := 0; i < b.N; i++ {
					om, err := sim.SearchOverloadMargin(mp.prog, mp.events, cost, cfg)
					if err != nil {
						b.Fatal(err)
					}
					probes += int64(om.Result.Probes)
					events += om.ProbeEvents
				}
				b.ReportMetric(float64(probes)/float64(b.N), "probes/op")
				b.ReportMetric(float64(events)/float64(b.N), "events/op")
			})
		}
	}
}
