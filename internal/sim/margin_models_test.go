package sim_test

import (
	"encoding/json"
	"fmt"
	"sort"
	"testing"

	"fcpn/internal/atm"
	"fcpn/internal/codegen"
	"fcpn/internal/core"
	"fcpn/internal/figures"
	"fcpn/internal/modem"
	"fcpn/internal/netgen"
	"fcpn/internal/petri"
	"fcpn/internal/rtos"
	"fcpn/internal/sim"
	"fcpn/internal/timing"
)

// marginProgram is one schedulable net compiled to task code, with the
// canonical periodic workload the engine's timing pass uses: source i
// fires perSource times with period 2i+3 from phase i.
type marginProgram struct {
	name   string
	prog   *codegen.Program
	events []rtos.Event
}

// spaced stretches a workload's timeline by factor.
func spaced(events []rtos.Event, factor int64) []rtos.Event {
	out := append([]rtos.Event(nil), events...)
	for i := range out {
		out[i].Time *= factor
	}
	return out
}

func compileMarginProgram(name string, n *petri.Net, perSource int) (marginProgram, error) {
	s, err := core.Solve(n, core.Options{})
	if err != nil {
		return marginProgram{}, err
	}
	tp, err := core.PartitionTasks(n, core.Options{})
	if err != nil {
		return marginProgram{}, err
	}
	prog, err := codegen.Generate(s, tp)
	if err != nil {
		return marginProgram{}, err
	}
	var streams [][]rtos.Event
	for i, src := range n.SourceTransitions() {
		streams = append(streams, rtos.Periodic(src, int64(2*i+3), int64(i), perSource))
	}
	return marginProgram{name: name, prog: prog, events: rtos.Merge(streams...)}, nil
}

// marginPrograms compiles the ATM server and modem models, every
// schedulable figure net and 20 generated pipelines.
func marginPrograms(t *testing.T) []marginProgram {
	t.Helper()
	m, err := modem.New()
	if err != nil {
		t.Fatal(err)
	}
	nets := map[string]*petri.Net{"atm": atm.New().Net, "modem": m.Net}
	for name, n := range figures.All() {
		nets[name] = n
	}
	for seed := uint64(1); seed <= 20; seed++ {
		nets[fmt.Sprintf("pipeline-%02d", seed)] = netgen.RandomSchedulablePipeline(seed, netgen.DefaultConfig())
	}
	names := make([]string, 0, len(nets))
	for name := range nets {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []marginProgram
	for _, name := range names {
		mp, err := compileMarginProgram(name, nets[name], 16)
		if err != nil {
			continue // not every figure net is schedulable
		}
		out = append(out, mp)
	}
	if len(out) < 25 {
		t.Fatalf("only %d schedulable programs", len(out))
	}
	return out
}

// fullStreamLen is the number of events a full probe at the given level
// serves over an unbounded queue (drop excluded: its loss is random).
func fullStreamLen(kind sim.OverloadKind, events []rtos.Event, level int) int {
	if kind == sim.OverloadBurst {
		return len(events) * (level + 1)
	}
	return len(events)
}

// TestSearchOverloadMarginMatchesFullRuns holds the early-stopping
// margin search to the reference that runs every probe in full: the
// reports must marshal byte-identically over all four kinds, the ATM and
// modem programs, the figure nets and generated pipelines, several seeds
// and ceilings, a deadline the nominal run misses (Level -1), the drop
// axis that never breaks (Level == Ceiling) and step budgets small
// enough that probes run out of them.
func TestSearchOverloadMarginMatchesFullRuns(t *testing.T) {
	progs := marginPrograms(t)
	cost := rtos.DefaultCostModel()
	mk := timing.Constraint{M: 9, K: 10}
	kinds := []sim.OverloadKind{sim.OverloadBurst, sim.OverloadJitter, sim.OverloadDrop, sim.OverloadOverrun}
	var nominalFail, neverBreaks, stops, budgetOnly, replayOutOfBudget int
	finite := map[sim.OverloadKind]int{}
	compare := func(name string, mp marginProgram, cfg sim.MarginConfig) *sim.OverloadMargin {
		t.Helper()
		got, gotErr := sim.SearchOverloadMargin(mp.prog, mp.events, cost, cfg)
		want, wantErr := sim.SearchOverloadMarginFull(mp.prog, mp.events, cost, cfg)
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("%s: error %v, reference error %v", name, gotErr, wantErr)
		}
		if gotErr != nil {
			return nil
		}
		a, _ := json.Marshal(got)
		b, _ := json.Marshal(want)
		if string(a) != string(b) {
			t.Fatalf("%s: early-stopping search differs from full probes:\n got %s\nwant %s", name, a, b)
		}
		res := want.Result
		if res.Level >= 0 && res.Level < res.Ceiling {
			finite[cfg.Kind]++
		}
		switch {
		case res.Level < 0:
			nominalFail++
		case res.Level == res.Ceiling:
			neverBreaks++
		}
		stops += got.ProbeStops
		return want
	}

	for i, mp := range progs {
		// The canonical workload keeps the CPU backlogged; stretched 1000x
		// its arrivals are sparse enough that jitter which clusters them
		// can break a deadline.
		for _, w := range []marginProgram{mp, {name: mp.name + "-sparse", prog: mp.prog, events: spaced(mp.events, 1000)}} {
			// Besides the calibrated deadline (twice the nominal worst
			// response), the nominal worst response itself: a budget with
			// no headroom.
			tight, err := sim.CalibrateDeadline(w.prog, w.events, cost, sim.RobustConfig{CyclesPerTick: 1},
				sim.Hooks{Resolver: sim.NewDecisionStream(w.prog.Net, 1).Resolver()}, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, kind := range kinds {
				for seed := uint64(1); seed <= 3; seed++ {
					for _, ceiling := range []int{0, 5 + i%11} { // 0: the kind's default
						for _, deadline := range []int64{0, tight} {
							name := fmt.Sprintf("%s/%s/seed%d/ceiling%d/deadline%d", w.name, kind, seed, ceiling, deadline)
							compare(name, w, sim.MarginConfig{
								Kind: kind, MK: mk, Seed: seed, Ceiling: ceiling,
								Robust: sim.RobustConfig{CyclesPerTick: 1, Deadline: deadline},
							})
						}
					}
				}
			}
		}
		// A one-cycle deadline fails the nominal run: Level -1, and the
		// reported Fail is level 0's verdict.
		compare(mp.name+"/deadline1", mp, sim.MarginConfig{
			Kind: sim.OverloadBurst, MK: mk, Seed: 7,
			Robust: sim.RobustConfig{CyclesPerTick: 1, Deadline: 1},
		})
	}

	// Step budgets a few times the nominal run's ops: the deep probes run
	// out of them, with and without a deadline that can fail first.
	for _, mp := range progs[:8] {
		rm, err := sim.RunRobust(mp.prog, mp.events, cost, sim.RobustConfig{CyclesPerTick: 1},
			sim.Hooks{Resolver: sim.NewDecisionStream(mp.prog.Net, 1).Resolver()})
		if err != nil {
			t.Fatal(err)
		}
		for _, factor := range []int{2, 3, 5, 9, 17, 33} {
			for _, deadline := range []int64{0, 1 << 40} {
				for _, kind := range []sim.OverloadKind{sim.OverloadBurst, sim.OverloadOverrun} {
					name := fmt.Sprintf("%s/%s/budget%dx/deadline%d", mp.name, kind, factor, deadline)
					om := compare(name, mp, sim.MarginConfig{
						Kind: kind, MK: mk, Seed: 3,
						Robust: sim.RobustConfig{CyclesPerTick: 1, Deadline: deadline, StepBudget: factor * rm.Steps},
					})
					if om == nil || om.Result.Fail == nil {
						continue
					}
					fail := om.Result.Fail
					if fail.Violation == nil {
						budgetOnly++ // failed by the budget alone
					} else if fail.Events < fullStreamLen(kind, mp.events, om.Result.Level+1) {
						replayOutOfBudget++ // violated, then ran out of budget
					}
				}
			}
		}
	}

	t.Logf("finite margins %v; nominal failures %d, never broke %d, stopped probes %d, budget-only failures %d, budget cut after a violation %d",
		finite, nominalFail, neverBreaks, stops, budgetOnly, replayOutOfBudget)
	covered := map[string]int{
		"Level == -1":                            nominalFail,
		"Level == Ceiling":                       neverBreaks,
		"a probe stopped at its first violation": stops,
		"Fail by step budget alone":              budgetOnly,
		"Fail cut by the budget after a window":  replayOutOfBudget,
	}
	// Drop only sheds load, so it covers Level == Ceiling instead.
	for _, kind := range []sim.OverloadKind{sim.OverloadBurst, sim.OverloadJitter, sim.OverloadOverrun} {
		covered["a finite "+kind.String()+" margin"] = finite[kind]
	}
	for what, n := range covered {
		if n == 0 {
			t.Errorf("no case covered %s", what)
		}
	}
}
