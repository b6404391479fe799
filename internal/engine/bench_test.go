package engine

import (
	"fmt"
	"testing"

	"fcpn/internal/netgen"
	"fcpn/internal/petri"
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

// BenchmarkEngineWarm measures the same batch against a warmed cache —
// the content-addressed hit path (canonical rebuild only).
func BenchmarkEngineWarm(b *testing.B) {
	nets := benchNets()
	e := New(Config{Workers: 4})
	defer e.Close()
	e.AnalyzeBatch(nets)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.AnalyzeBatch(nets)
	}
	b.ReportMetric(float64(len(nets))*float64(b.N)/b.Elapsed().Seconds(), "nets/s")
}
