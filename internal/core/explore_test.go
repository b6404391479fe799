package core

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"fcpn/internal/figures"
	"fcpn/internal/netgen"
	"fcpn/internal/petri"
)

func TestStrategyStrings(t *testing.T) {
	if StrategyRoundRobin.String() != "round-robin" ||
		StrategyBatch.String() != "batch" ||
		StrategyDemand.String() != "demand" {
		t.Fatal("strategy names wrong")
	}
	if CycleStrategy(9).String() == "" {
		t.Fatal("unknown strategy must render")
	}
}

func TestStrategiesAllRealiseFigure2(t *testing.T) {
	n := figures.Figure2()
	counts := []int{4, 2, 1}
	for _, strat := range []CycleStrategy{StrategyRoundRobin, StrategyBatch, StrategyDemand} {
		seq, err := FindCompleteCycleStrategy(n, counts, 1000, strat)
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		if err := VerifyCompleteCycle(n, seq); err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
	}
}

func TestBatchVsDemandBufferBounds(t *testing.T) {
	// On Figure 2, batching fires t1 four times before t2 runs (p1 peaks
	// at 4), while round-robin interleaves (p1 peaks at 2): the
	// code-vs-buffer tradeoff of the paper's conclusion.
	n := figures.Figure2()
	counts := []int{4, 2, 1}
	peak := func(seq []petri.Transition) int {
		m := n.InitialMarking()
		max := 0
		for _, tr := range seq {
			n.MustFire(m, tr)
			for _, k := range m {
				if k > max {
					max = k
				}
			}
		}
		return max
	}
	batch, err := FindCompleteCycleStrategy(n, counts, 1000, StrategyBatch)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := FindCompleteCycleStrategy(n, counts, 1000, StrategyRoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	if got := peak(batch); got != 4 {
		t.Fatalf("batch peak = %d, want 4 (t1 t1 t1 t1 …)", got)
	}
	if got := peak(rr); got >= 4 {
		t.Fatalf("round-robin peak = %d, want < 4", got)
	}
}

func TestExploreFigure5(t *testing.T) {
	pts, err := Explore(figures.Figure5(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	var batch, demand *TradeoffPoint
	for i := range pts {
		// Every explored schedule must be valid.
		for _, c := range pts[i].Schedule.Cycles {
			if err := VerifyCompleteCycle(pts[i].Schedule.Net, c.Sequence); err != nil {
				t.Fatalf("%s: %v", pts[i].Strategy, err)
			}
		}
		switch pts[i].Strategy {
		case StrategyBatch:
			batch = &pts[i]
		case StrategyDemand:
			demand = &pts[i]
		}
	}
	if batch == nil || demand == nil {
		t.Fatal("missing strategies")
	}
	// Batching never reduces buffers and never increases switches.
	if batch.TotalBufferBound < demand.TotalBufferBound {
		t.Fatalf("batch buffers %d < demand buffers %d", batch.TotalBufferBound, demand.TotalBufferBound)
	}
	if batch.Switches > demand.Switches {
		t.Fatalf("batch switches %d > demand switches %d", batch.Switches, demand.Switches)
	}
}

func TestExploreRandomNets(t *testing.T) {
	for seed := uint64(0); seed < 40; seed++ {
		n := netgen.RandomSchedulablePipeline(seed, netgen.DefaultConfig())
		pts, err := Explore(n, Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, pt := range pts {
			if pt.TotalBufferBound <= 0 && n.NumPlaces() > 0 {
				// A net whose cycles move tokens must bound above zero…
				// unless every place stays empty (possible only when
				// there are no firings at all).
				total := 0
				for _, c := range pt.Schedule.Cycles {
					total += len(c.Sequence)
				}
				if total > 0 {
					t.Fatalf("seed %d %s: zero buffer bound with %d firings", seed, pt.Strategy, total)
				}
			}
		}
	}
}

func TestFindCompleteCycleStrategyValidation(t *testing.T) {
	n := figures.Figure2()
	if _, err := FindCompleteCycleStrategy(n, []int{1}, 10, StrategyBatch); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := FindCompleteCycleStrategy(n, []int{-1, 0, 0}, 10, StrategyBatch); err == nil {
		t.Fatal("negative accepted")
	}
	if _, err := FindCompleteCycleStrategy(n, []int{4, 2, 1}, 2, StrategyBatch); err == nil {
		t.Fatal("cap ignored")
	}
	if _, err := FindCompleteCycleStrategy(figures.Figure3a(), []int{1, 1, 0, 1, 0}, 10, StrategyBatch); err == nil {
		t.Fatal("conflict net accepted")
	}
	// Non-invariant counts fail the marking check.
	if _, err := FindCompleteCycleStrategy(n, []int{1, 0, 0}, 10, StrategyDemand); err == nil {
		t.Fatal("non-invariant accepted")
	}
}

func TestScheduleExport(t *testing.T) {
	s, err := Solve(figures.Figure4(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ex := s.Export()
	if ex.Net != "figure4" || ex.Allocations != 2 || len(ex.Cycles) != 2 {
		t.Fatalf("export = %+v", ex)
	}
	foundT2 := false
	for _, c := range ex.Cycles {
		if choice, _ := c.Choices.Lookup("p1"); choice == "t2" {
			foundT2 = true
			t4, _ := c.Counts.Lookup("t4")
			t1, _ := c.Counts.Lookup("t1")
			if t4 != 1 || t1 != 2 {
				t.Fatalf("counts = %v", c.Counts)
			}
			if len(c.Sequence) != 5 {
				t.Fatalf("sequence = %v", c.Sequence)
			}
		}
	}
	if !foundT2 {
		t.Fatalf("missing t2 cycle: %+v", ex.Cycles)
	}
	data, err := s.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var back ScheduleExport
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Net != "figure4" || len(back.Cycles) != 2 {
		t.Fatalf("round trip = %+v", back)
	}
}

func TestImportScheduleRoundTrip(t *testing.T) {
	for _, n := range []*petri.Net{figures.Figure3a(), figures.Figure4(), figures.Figure5()} {
		s, err := Solve(n, Options{})
		if err != nil {
			t.Fatal(err)
		}
		back, err := ImportSchedule(n, s.Export())
		if err != nil {
			t.Fatalf("%s: %v", n.Name(), err)
		}
		if len(back.Cycles) != len(s.Cycles) {
			t.Fatalf("%s: cycles %d != %d", n.Name(), len(back.Cycles), len(s.Cycles))
		}
	}
}

func TestImportScheduleRejectsBadInput(t *testing.T) {
	n := figures.Figure4()
	s, err := Solve(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	good := s.Export()

	if _, err := ImportSchedule(n, nil); err == nil {
		t.Fatal("nil export accepted")
	}

	bad := *good
	bad.Cycles = append([]CycleExport(nil), good.Cycles...)
	bad.Cycles[0].Sequence = []string{"nope"}
	if _, err := ImportSchedule(n, &bad); err == nil {
		t.Fatal("unknown transition accepted")
	}

	bad.Cycles = append([]CycleExport(nil), good.Cycles...)
	bad.Cycles[0].Sequence = []string{"t1"} // not a complete cycle
	if _, err := ImportSchedule(n, &bad); err == nil {
		t.Fatal("incomplete cycle accepted")
	}

	// Missing a reduction: only one cycle.
	bad.Cycles = good.Cycles[:1]
	if _, err := ImportSchedule(n, &bad); err == nil {
		t.Fatal("under-covering schedule accepted")
	}

	// Duplicated reduction.
	bad.Cycles = []CycleExport{good.Cycles[0], good.Cycles[0]}
	if _, err := ImportSchedule(n, &bad); err == nil {
		t.Fatal("duplicate reduction accepted")
	}

	// A cycle whose declared choice contradicts its firings.
	bad.Cycles = append([]CycleExport(nil), good.Cycles...)
	var flipped Entries[string]
	for _, e := range bad.Cycles[0].Choices {
		if e.Value == "t2" {
			e.Value = "t3"
		} else {
			e.Value = "t2"
		}
		flipped = append(flipped, e)
	}
	bad.Cycles[0].Choices = flipped
	if _, err := ImportSchedule(n, &bad); err == nil {
		t.Fatal("contradictory choices accepted")
	}
}

// stopGoChain builds a chain of k binary choices: each choice place either
// stops (a sink) or goes on to the next choice. It has 2^k allocations but
// only k+1 distinct T-reductions, one per stopping point plus running
// through.
func stopGoChain(k int) *petri.Net {
	b := petri.NewBuilder("stopgo")
	p := b.Place("p0")
	b.ArcTP(b.Transition("src"), p)
	for i := 0; i < k; i++ {
		b.Arc(p, b.Transition(fmt.Sprintf("stop%d", i)))
		next := b.Place(fmt.Sprintf("p%d", i+1))
		gt := b.Transition(fmt.Sprintf("go%d", i))
		b.Arc(p, gt)
		b.ArcTP(gt, next)
		p = next
	}
	b.Arc(p, b.Transition("end"))
	return b.Build()
}

func TestExploreKeepsSaturationFlag(t *testing.T) {
	// 2^64 allocations saturate the count; every tradeoff schedule must
	// mark the ceiling as such, as the solved schedule does.
	n := stopGoChain(64)
	pts, err := Explore(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range pts {
		s := pt.Schedule
		if len(s.Cycles) != 65 {
			t.Fatalf("%s: %d cycles, want 65 distinct reductions", pt.Strategy, len(s.Cycles))
		}
		if !s.AllocationCountSaturated || s.AllocationCount != math.MaxInt {
			t.Fatalf("%s: allocation count %d, saturated=%v; want math.MaxInt, true",
				pt.Strategy, s.AllocationCount, s.AllocationCountSaturated)
		}
		data, err := json.Marshal(s.Export())
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(data), `"allocation_count_saturated":true`) {
			t.Fatalf("%s: export lacks the saturation marker", pt.Strategy)
		}
	}
}
