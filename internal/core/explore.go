package core

import (
	"fmt"

	"fcpn/internal/petri"
)

// CycleStrategy selects the firing policy used to realise a T-invariant as
// a concrete finite complete cycle. The firing-count vector — and thus the
// generated code's behaviour — is identical across strategies; what
// changes is the interleaving, and with it the buffer (place) bounds of
// the schedule. This implements the schedule-space exploration the paper's
// conclusion proposes ("evaluate tradeoffs between code and buffer size").
type CycleStrategy int

const (
	// StrategyRoundRobin fires each enabled transition once per sweep in
	// index order: balanced interleaving (the solver's default).
	StrategyRoundRobin CycleStrategy = iota
	// StrategyBatch exhausts one transition's remaining firings before
	// moving on: maximises batching (fewest context switches between
	// operations, largest buffers).
	StrategyBatch
	// StrategyDemand fires the deepest enabled consumer first (highest
	// transition index in the pipeline ordering): drains tokens eagerly,
	// minimising buffer occupancy.
	StrategyDemand
)

// String names the strategy.
func (s CycleStrategy) String() string {
	switch s {
	case StrategyRoundRobin:
		return "round-robin"
	case StrategyBatch:
		return "batch"
	case StrategyDemand:
		return "demand"
	default:
		return fmt.Sprintf("CycleStrategy(%d)", int(s))
	}
}

// FindCompleteCycleStrategy is FindCompleteCycle under a firing policy.
// All strategies are complete on conflict-free nets (persistence): if the
// counts are realisable, every policy realises them.
func FindCompleteCycleStrategy(n *petri.Net, counts []int, maxLen int, strat CycleStrategy) ([]petri.Transition, error) {
	every := petri.NewNodeSet(n.NumPlaces())
	for p := 0; p < n.NumPlaces(); p++ {
		every.Add(p)
	}
	return findCompleteCycle(nil, n, n.Transitions(), every, counts, maxLen, strat)
}

// TradeoffPoint is one explored schedule variant.
type TradeoffPoint struct {
	Strategy CycleStrategy
	// TotalBufferBound is Σ over places of the schedule's per-place
	// maximum token count: the static memory the implementation must
	// reserve.
	TotalBufferBound int
	// MaxBufferBound is the largest single-place bound.
	MaxBufferBound int
	// Switches counts adjacent transition changes summed over all cycles:
	// a proxy for instruction-cache pressure / loop structure of the code
	// (lower = more batching).
	Switches int
	// Schedule is the full valid schedule realised under the strategy.
	Schedule *Schedule
}

// Explore solves the net once per strategy and reports the buffer/
// batching tradeoff of each resulting valid schedule. The solve itself is
// traced through opt.Trace as usual; the per-strategy re-realisation is
// recorded under one top-level "core/explore" span (with nested
// "core/cycle" detail spans), so the phase gate covers the
// tradeoff-exploration workload too. opt.Ctx cancels mid-exploration.
func Explore(n *petri.Net, opt Options) ([]TradeoffPoint, error) {
	base, err := Solve(n, opt)
	if err != nil {
		return nil, err
	}
	sp := opt.Trace.Start("core/explore")
	defer sp.End()
	var out []TradeoffPoint
	for _, strat := range []CycleStrategy{StrategyRoundRobin, StrategyBatch, StrategyDemand} {
		if err := opt.cancelled(); err != nil {
			return nil, fmt.Errorf("core: explore %s: %w", strat, err)
		}
		sched := &Schedule{Net: n, AllocationCount: base.AllocationCount, AllocationCountSaturated: base.AllocationCountSaturated}
		for i, c := range base.Cycles {
			// Realise the sweep's covering counts on n over the cycle's
			// reduction's kept sets, as the sweep's check does.
			rep := base.Reports[i]
			cs := opt.Trace.StartDetail("core/cycle")
			seq, err := findCompleteCycle(opt.Ctx, n, rep.Reduction.KeptTransitions(), rep.Reduction.keptP, rep.CoveringCounts, maxCycleLength, strat)
			cs.End()
			if err != nil {
				return nil, fmt.Errorf("core: explore %s: %w", strat, err)
			}
			sched.Cycles = append(sched.Cycles, Cycle{Sequence: seq, Allocation: c.Allocation})
		}
		bounds, err := sched.BufferBounds()
		if err != nil {
			return nil, err
		}
		pt := TradeoffPoint{Strategy: strat, Schedule: sched}
		for _, b := range bounds {
			pt.TotalBufferBound += b
			if b > pt.MaxBufferBound {
				pt.MaxBufferBound = b
			}
		}
		for _, c := range sched.Cycles {
			for i := 1; i < len(c.Sequence); i++ {
				if c.Sequence[i] != c.Sequence[i-1] {
					pt.Switches++
				}
			}
		}
		out = append(out, pt)
	}
	return out, nil
}
