package main

import (
	"fmt"
	"sort"
	"strings"

	"fcpn/internal/codegen"
	"fcpn/internal/core"
	"fcpn/internal/engine"
	"fcpn/internal/petri"
	"fcpn/internal/rtos"
	"fcpn/internal/sim"
)

// undecided reports a reduction-cap outcome: the solver gave up, so the
// report's "not schedulable" is not a verdict.
func undecided(rep *engine.NetReport) bool {
	capped := core.ErrTooManyAllocations.Error()
	if strings.Contains(rep.ScheduleError, capped) {
		return true
	}
	for _, e := range rep.Errors {
		if strings.Contains(e, capped) {
			return true
		}
	}
	return false
}

// verdictProblem checks one report against the item's known answer and
// returns "" when it passes.
func verdictProblem(it item, rep *engine.NetReport, err error) string {
	switch {
	case err != nil:
		return "job failed: " + err.Error()
	case rep == nil:
		return "no report"
	case undecided(rep):
		return "undecided: " + rep.ScheduleError
	case rep.Schedulable != it.schedulable:
		return fmt.Sprintf("schedulable=%v, want %v (%s)", rep.Schedulable, it.schedulable, rep.ScheduleError)
	}
	return ""
}

// nominalEvents is the program's nominal workload: sources in canonical
// order, source i firing 32 times with period 2i+3 from phase i (the
// engine's timing workload).
func nominalEvents(n *petri.Net) []rtos.Event {
	cf := n.CanonicalForm()
	sources := append([]petri.Transition(nil), n.SourceTransitions()...)
	sort.Slice(sources, func(a, b int) bool { return cf.TransPos[sources[a]] < cf.TransPos[sources[b]] })
	streams := make([][]rtos.Event, len(sources))
	for i, src := range sources {
		streams[i] = rtos.Periodic(src, int64(2*i+3), int64(i), 32)
	}
	return rtos.Merge(streams...)
}

// nominalRun executes a generated program on its nominal workload, checks
// the state equation after the run, and returns the run's clock cycles
// under the default RTOS cost model (the paper's Table I "clock cycles").
func nominalRun(prog *codegen.Program) (int64, error) {
	events := nominalEvents(prog.Net)
	in := codegen.NewInterp(prog, sim.NewDecisionStream(prog.Net, 1).Resolver())
	in.MaxOps = 1 << 26
	for _, ev := range events {
		if err := in.RunSource(ev.Source); err != nil {
			return 0, fmt.Errorf("nominal run: %w", err)
		}
	}
	if err := in.StateEquationCheck(); err != nil {
		return 0, err
	}
	m, err := sim.RunQSS(prog, events, rtos.DefaultCostModel(), 1)
	if err != nil {
		return 0, fmt.Errorf("cycle count: %w", err)
	}
	return m.Cycles, nil
}

// tableI holds the paper's Table I figures summed over a corpus.
type tableI struct {
	cLines int64
	cycles int64
}

// synthesizeAll runs every schedulable item through Synthesize, C
// emission and the nominal run, checking each program. It backs the c_lines
// and code_cycles figures of workloads whose timed path emits no code.
func synthesizeAll(eng *engine.Engine, items []item, fails *failures) tableI {
	var t tableI
	for _, it := range items {
		if !it.schedulable {
			continue
		}
		n, err := petri.ParseString(it.text)
		if err != nil {
			fails.add(it.source, "parse: "+err.Error())
			continue
		}
		syn, err := eng.Synthesize(n)
		if err != nil {
			fails.add(it.source, "synthesize: "+err.Error())
			continue
		}
		t.cLines += int64(codegen.LineCount(syn.C(false)))
		cycles, err := nominalRun(syn.Program)
		if err != nil {
			fails.add(it.source, err.Error())
			continue
		}
		t.cycles += cycles
	}
	return t
}
