package engine

import (
	"encoding/json"
	"fmt"
	"testing"

	"fcpn/internal/atm"
	"fcpn/internal/core"
	"fcpn/internal/modem"
	"fcpn/internal/netgen"
	"fcpn/internal/petri"
	"fcpn/internal/timing"
)

// benchNets is a fixed 64-net corpus of distinct generated pipelines.
func benchNets() []*petri.Net {
	nets := make([]*petri.Net, 64)
	for i := range nets {
		nets[i] = netgen.RandomSchedulablePipeline(uint64(i), netgen.DefaultConfig())
	}
	return nets
}

// BenchmarkEngineBatch measures cold batch-analysis throughput at several
// pool widths. The pool is the engine's only parallelism: each net runs
// on one worker, so a wide pool wins only by sharding the batch, and a
// batch dominated by one large net scales no further than that net. A
// fresh engine per iteration keeps every run cold.
func BenchmarkEngineBatch(b *testing.B) {
	nets := benchNets()
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := New(Config{Workers: workers})
				e.AnalyzeBatch(nets)
				e.Close()
			}
			b.ReportMetric(float64(len(nets))*float64(b.N)/b.Elapsed().Seconds(), "nets/s")
		})
	}
}

// BenchmarkEngineWarm measures what a warm twin pays: each op analyses
// the benchNets batch freshly parsed from its Format text on an engine
// that has analysed it before, so every net computes its canonical form
// and then hits the cache. The parsing runs with the timer stopped. The
// sub-benchmarks run with the timing pass off and with the (9,10) pass
// and its margin search.
func BenchmarkEngineWarm(b *testing.B) {
	texts := make([]string, 0, 64)
	for _, n := range benchNets() {
		texts = append(texts, petri.Format(n))
	}
	parse := func(b *testing.B) []*petri.Net {
		nets := make([]*petri.Net, len(texts))
		for i, text := range texts {
			n, err := petri.ParseString(text)
			if err != nil {
				b.Fatal(err)
			}
			nets[i] = n
		}
		return nets
	}
	mk := timing.Constraint{M: 9, K: 10}
	for _, x := range []struct {
		name string
		opt  TimingOptions
	}{
		{"timing=off", TimingOptions{}},
		{"margin", TimingOptions{MK: mk, Margin: true}},
	} {
		b.Run(x.name, func(b *testing.B) {
			e := New(Config{Workers: 4, Timing: x.opt})
			defer e.Close()
			e.AnalyzeBatch(parse(b))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				nets := parse(b)
				b.StartTimer()
				e.AnalyzeBatch(nets)
			}
			b.ReportMetric(float64(len(texts))*float64(b.N)/b.Elapsed().Seconds(), "nets/s")
		})
	}
}

// handoffNets is the corpus of the schedule hand-off benchmarks: the ATM
// server (2,048 allocations), the modem, a heavy generated pipeline (4
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

// twinReductions enumerates n's distinct T-reductions and returns them
// with n's canonical form and twin, as a sched: miss has them.
func twinReductions(b *testing.B, n *petri.Net) (*petri.CanonicalForm, *petri.Net, []*core.Reduction) {
	reds, err := core.EnumerateDistinctReductions(n, 0)
	if err != nil {
		b.Fatal(err)
	}
	return n.CanonicalForm(), n.CanonicalNet(), reds
}

// BenchmarkMapReductionsToTwin measures the relabelling of a net's
// distinct T-reductions onto its canonical twin.
func BenchmarkMapReductionsToTwin(b *testing.B) {
	for _, x := range handoffNets(b) {
		cf, twin, reds := twinReductions(b, x.net)
		b.Run(x.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = mapReductionsToTwin(cf, twin, reds)
			}
		})
	}
}

// BenchmarkRebuildSchedule measures the rebuild of a schedule from its
// packed canonical positions, the step every sched: hit and miss ends
// with.
func BenchmarkRebuildSchedule(b *testing.B) {
	for _, x := range handoffNets(b) {
		cf, twin, reds := twinReductions(b, x.net)
		s, err := core.SolveReductions(twin, mapReductionsToTwin(cf, twin, reds), core.Options{})
		if err != nil {
			b.Fatalf("%s: %v", x.name, err)
		}
		p := packSchedule(x.net.NumTransitions(), s.Cycles)
		b.Run(x.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := rebuildSchedule(x.net, cf, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScheduleHandOff measures the whole hand-off of a cached
// schedule to the report: rebuildSchedule, Schedule.Export and
// exportedReductions, as every sched: hit and miss runs them. The three
// share work between them, so only their sum compares across changes
// that move work from one to another.
func BenchmarkScheduleHandOff(b *testing.B) {
	for _, x := range handoffNets(b) {
		cf, twin, reds := twinReductions(b, x.net)
		s, err := core.SolveReductions(twin, mapReductionsToTwin(cf, twin, reds), core.Options{})
		if err != nil {
			b.Fatalf("%s: %v", x.name, err)
		}
		p := packSchedule(x.net.NumTransitions(), s.Cycles)
		b.Run(x.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sched, err := rebuildSchedule(x.net, cf, p)
				if err != nil {
					b.Fatal(err)
				}
				_ = exportedReductions(sched.Export())
			}
		})
	}
}

// BenchmarkReportMarshal measures json.Marshal of a schedulable net's
// whole report.
func BenchmarkReportMarshal(b *testing.B) {
	e := New(Config{Workers: 1})
	defer e.Close()
	for _, x := range handoffNets(b) {
		rep, err := e.Analyze(x.net)
		if err != nil || !rep.Schedulable {
			b.Fatalf("%s: %v %s", x.name, err, rep.ScheduleError)
		}
		b.Run(x.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := json.Marshal(rep); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
