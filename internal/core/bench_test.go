package core

import (
	"os"
	"testing"

	"fcpn/internal/figures"
	"fcpn/internal/petri"
)

func BenchmarkReduce(b *testing.B) {
	n := figures.Figure5()
	allocs, err := EnumerateAllocations(n, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, a := range allocs {
			Reduce(n, a)
		}
	}
}

// BenchmarkReduceSweep isolates the reduction kernel on the atmserver
// sweep: every allocation of the ATM net (the full 2048-point product)
// through one shared reducer, the way EnumerateDistinctReductions drives
// it. -benchmem makes the worklist kernel's allocation profile visible.
// The net is the shipped sample, which the root package keeps in sync with
// internal/atm (an import this package cannot take).
func BenchmarkReduceSweep(b *testing.B) {
	f, err := os.Open("../../examples/nets/atmserver.pn")
	if err != nil {
		b.Fatal(err)
	}
	n, err := petri.Parse(f)
	f.Close()
	if err != nil {
		b.Fatal(err)
	}
	allocs, err := EnumerateAllocations(n, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd := newReducer(n)
		for _, a := range allocs {
			rd.run(a)
		}
	}
	// After the loop: ResetTimer deletes metrics reported before it.
	b.ReportMetric(float64(len(allocs)), "allocations")
}

func BenchmarkCheckReduction(b *testing.B) {
	n := figures.Figure5()
	reds, err := EnumerateDistinctReductions(n, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, r := range reds {
			rep := CheckReduction(n, r, Options{})
			if !rep.Schedulable {
				b.Fatal(rep.FailReason)
			}
		}
	}
}

func BenchmarkPartitionTasks(b *testing.B) {
	n := figures.Figure5()
	for i := 0; i < b.N; i++ {
		if _, err := PartitionTasks(n, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
