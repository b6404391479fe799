package sim

import (
	"errors"
	"reflect"
	"testing"

	"fcpn/internal/core"
	"fcpn/internal/fault"
	"fcpn/internal/figures"
	"fcpn/internal/rtos"
	"fcpn/internal/timing"
)

// TestRunRobustPolicyInjectorMatrix exercises every overflow policy
// against every injector kind: the simulator must never panic, must stay
// deterministic, and a valid schedule must never violate the structural
// bounds regardless of what the environment does to the event stream.
func TestRunRobustPolicyInjectorMatrix(t *testing.T) {
	n := figures.Figure4()
	prog := qssProgram(t, n)
	t1, _ := n.TransitionByName("t1")
	base := rtos.Periodic(t1, 10, 0, 40)
	limits, err := StructuralLimits(n)
	if err != nil {
		t.Fatal(err)
	}
	cost := rtos.DefaultCostModel()

	policies := []rtos.OverflowPolicy{rtos.DropNewest, rtos.DropOldest, rtos.Reject}
	injectors := []struct {
		name string
		inj  fault.Injector
	}{
		{"burst", fault.Burst{Pct: 60, Extra: 3, Source: fault.AnySource}},
		{"duplicate", fault.Duplicate{Pct: 50, Source: fault.AnySource}},
		{"drop", fault.Drop{Pct: 30, Source: fault.AnySource}},
		{"jitter", fault.JitterTicks{Window: 15, Source: fault.AnySource}},
	}

	for _, pol := range policies {
		for _, tc := range injectors {
			t.Run(pol.String()+"/"+tc.name, func(t *testing.T) {
				sc := fault.Scenario{Name: tc.name, Seed: 0xFA117, Injectors: []fault.Injector{tc.inj}}
				events := sc.Apply(base)
				cfg := RobustConfig{
					Queue:    rtos.QueueConfig{Capacity: 4, Policy: pol},
					Deadline: 5000,
					Jitter:   &fault.CostJitter{Seed: sc.Seed, MaxPct: 25},
					Limits:   limits,
				}
				run := func() *RobustMetrics {
					ds := NewDecisionStream(n, sc.Seed)
					rm, err := RunRobust(prog, events, cost, cfg, Hooks{Resolver: ds.Resolver()})
					if err != nil {
						t.Fatalf("%s under %s: %v", pol, tc.name, err)
					}
					return rm
				}
				rm := run()
				if rm.BoundViolations != 0 {
					t.Fatalf("structural bound violations under %s/%s: %v", pol, tc.name, rm.Violations)
				}
				// DroppedEvents counts both kinds of loss, so served + lost
				// must account for every injected event.
				if int64(rm.Events)+rm.DroppedEvents != int64(len(events)) {
					t.Fatalf("event accounting: served %d + lost %d != injected %d",
						rm.Events, rm.DroppedEvents, len(events))
				}
				switch pol {
				case rtos.Reject:
					// Under Reject all losses are rejections.
					if rm.DroppedEvents != rm.RejectedEvents {
						t.Fatalf("reject policy counted %d lost but %d rejected",
							rm.DroppedEvents, rm.RejectedEvents)
					}
				default:
					if rm.RejectedEvents != 0 {
						t.Fatalf("%s policy rejected %d events", pol, rm.RejectedEvents)
					}
				}
				// Byte-identical replay with the same seed.
				if again := run(); !reflect.DeepEqual(rm, again) {
					t.Fatalf("non-deterministic robust run under %s/%s", pol, tc.name)
				}
			})
		}
	}
}

// TestRunRobustBacklogExceedsCycleBounds shows the two-bound design: an
// unbounded queue under a heavy burst exceeds the per-cycle schedule
// bounds (backlog), while the structural bounds still hold.
func TestRunRobustBacklogExceedsCycleBounds(t *testing.T) {
	n := figures.Figure4()
	prog := qssProgram(t, n)
	t1, _ := n.TransitionByName("t1")
	// All 60 events at t=0: maximal backlog.
	events := make([]rtos.Event, 60)
	for i := range events {
		events[i] = rtos.Event{Time: 0, Source: t1}
	}
	limits, err := StructuralLimits(n)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := core.Solve(n, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cycleLimits, err := ScheduleLimits(sched)
	if err != nil {
		t.Fatal(err)
	}
	ds := NewDecisionStream(n, 7)
	rm, err := RunRobust(prog, events, rtos.DefaultCostModel(),
		RobustConfig{Limits: limits, CycleLimits: cycleLimits},
		Hooks{Resolver: ds.Resolver()})
	if err != nil {
		t.Fatal(err)
	}
	if rm.BoundViolations != 0 {
		t.Fatalf("structural bounds must hold even under backlog: %v", rm.Violations)
	}
	if rm.Events != 60 || rm.DroppedEvents != 0 {
		t.Fatalf("unbounded queue served %d, dropped %d", rm.Events, rm.DroppedEvents)
	}
}

// TestRunRobustDetectsViolations proves the checker is live: impossibly
// tight limits must be flagged, sorted by place.
func TestRunRobustDetectsViolations(t *testing.T) {
	n := figures.Figure4()
	prog := qssProgram(t, n)
	t1, _ := n.TransitionByName("t1")
	events := rtos.Periodic(t1, 10, 0, 10)
	// Measure the real peaks first, then demand one fewer token than was
	// observed on the busiest place: that limit must trip.
	probe, err := RunRobust(prog, events, rtos.DefaultCostModel(),
		RobustConfig{}, Hooks{Resolver: NewDecisionStream(n, 3).Resolver()})
	if err != nil {
		t.Fatal(err)
	}
	busiest, peak := -1, 0
	for p, v := range probe.PeakCounters {
		if v > peak {
			busiest, peak = p, v
		}
	}
	if busiest < 0 {
		t.Fatal("no place ever held a token; cannot provoke a violation")
	}
	limits := make([]int, n.NumPlaces())
	for i := range limits {
		limits[i] = -1
	}
	limits[busiest] = peak - 1
	ds := NewDecisionStream(n, 3)
	rm, err := RunRobust(prog, events, rtos.DefaultCostModel(),
		RobustConfig{Limits: limits}, Hooks{Resolver: ds.Resolver()})
	if err != nil {
		t.Fatal(err)
	}
	if rm.BoundViolations == 0 {
		t.Fatalf("limit %d below observed peak %d did not trip the checker", peak-1, peak)
	}
	if len(rm.Violations) != rm.BoundViolations {
		t.Fatalf("Violations length %d != BoundViolations %d", len(rm.Violations), rm.BoundViolations)
	}
	if rm.Violations[0].Bound != peak-1 || rm.Violations[0].Observed != peak {
		t.Fatalf("violation detail: %+v", rm.Violations[0])
	}
	if rm.Violations[0].String() == "" {
		t.Fatal("empty violation string")
	}
}

func TestRunRobustStepBudget(t *testing.T) {
	n := figures.Figure4()
	prog := qssProgram(t, n)
	t1, _ := n.TransitionByName("t1")
	events := rtos.Periodic(t1, 10, 0, 100)
	ds := NewDecisionStream(n, 1)
	rm, err := RunRobust(prog, events, rtos.DefaultCostModel(),
		RobustConfig{StepBudget: 20}, Hooks{Resolver: ds.Resolver()})
	if err == nil {
		t.Fatal("a 20-op budget over 100 events must be exhausted")
	}
	if !errors.Is(err, core.ErrBudgetExceeded) {
		t.Fatalf("error %v is not core.ErrBudgetExceeded", err)
	}
	if rm == nil || !rm.BudgetExhausted {
		t.Fatalf("partial metrics missing or not flagged: %+v", rm)
	}
	if rm.Steps < 20 {
		t.Fatalf("steps=%d below the budget it exhausted", rm.Steps)
	}
	if rm.Events >= 100 {
		t.Fatalf("served all %d events despite the budget", rm.Events)
	}
}

func TestZeroEventFastPaths(t *testing.T) {
	n := figures.Figure4()
	prog := qssProgram(t, n)
	cost := rtos.DefaultCostModel()

	qm, err := RunQSS(prog, nil, cost, 1)
	if err != nil || qm.Events != 0 || qm.Cycles != 0 {
		t.Fatalf("RunQSS zero events: %+v, %v", qm, err)
	}
	if len(qm.Fired) != n.NumTransitions() || qm.PerTask == nil {
		t.Fatalf("empty metrics not fully shaped: %+v", qm)
	}
	rm, err := RunRobust(prog, nil, cost, RobustConfig{}, Hooks{})
	if err != nil || rm.Events != 0 || rm.Makespan != 0 {
		t.Fatalf("RunRobust zero events: %+v, %v", rm, err)
	}
	// The peak counters of an idle run are the initial marking.
	if !reflect.DeepEqual(rm.PeakCounters, []int(n.InitialMarking())) {
		t.Fatalf("idle peaks %v != initial marking %v", rm.PeakCounters, n.InitialMarking())
	}
}

func TestRunRobustModularCascade(t *testing.T) {
	n := figures.Figure4()
	prog := qssProgram(t, n)
	t1, _ := n.TransitionByName("t1")
	events := rtos.Periodic(t1, 10, 0, 10)
	ds := NewDecisionStream(n, 5)
	rm, err := RunRobust(prog, events, rtos.DefaultCostModel(),
		RobustConfig{Modular: true}, Hooks{Resolver: ds.Resolver()})
	if err != nil {
		t.Fatal(err)
	}
	if rm.Events != 10 {
		t.Fatalf("served %d", rm.Events)
	}
}

// The TestRunTimed tests exercise RunRobust as a timed single-CPU
// simulator: events arrive at their workload timestamps, and one that
// arrives while the CPU is busy queues.

func TestRunTimedBasics(t *testing.T) {
	n := figures.Figure4()
	prog := qssProgram(t, n)
	t1, _ := n.TransitionByName("t1")
	// Sparse arrivals: no queueing, response == service time.
	events := rtos.Periodic(t1, 1000, 0, 10)
	ds := NewDecisionStream(n, 3)
	tm, err := RunRobust(prog, events, rtos.DefaultCostModel(),
		RobustConfig{CyclesPerTick: 10}, Hooks{Resolver: ds.Resolver()})
	if err != nil {
		t.Fatal(err)
	}
	if tm.Events != 10 {
		t.Fatalf("events = %d", tm.Events)
	}
	if tm.ResponseMax <= 0 || tm.ResponseAvg <= 0 || tm.ResponseMax < tm.ResponseAvg {
		t.Fatalf("responses: max=%d avg=%d", tm.ResponseMax, tm.ResponseAvg)
	}
	if u := utilisation(tm); u <= 0 || u >= 100 {
		t.Fatalf("sparse load utilisation = %.1f%%", u)
	}
	if tm.CPUBusy > tm.Makespan {
		t.Fatalf("busy %d > makespan %d", tm.CPUBusy, tm.Makespan)
	}
	if tm.DeadlineMisses != 0 {
		t.Fatal("no deadline configured, no misses possible")
	}
}

func TestRunTimedQueueingUnderLoad(t *testing.T) {
	n := figures.Figure4()
	prog := qssProgram(t, n)
	t1, _ := n.TransitionByName("t1")
	ds1 := NewDecisionStream(n, 3)
	ds2 := NewDecisionStream(n, 3)
	// Back-to-back arrivals: queueing delays accumulate, so the worst
	// response under overload strictly exceeds the sparse case.
	sparse, err := RunRobust(prog, rtos.Periodic(t1, 1000, 0, 20), rtos.DefaultCostModel(),
		RobustConfig{CyclesPerTick: 10}, Hooks{Resolver: ds1.Resolver()})
	if err != nil {
		t.Fatal(err)
	}
	packed, err := RunRobust(prog, rtos.Periodic(t1, 1, 0, 20), rtos.DefaultCostModel(),
		RobustConfig{CyclesPerTick: 10}, Hooks{Resolver: ds2.Resolver()})
	if err != nil {
		t.Fatal(err)
	}
	if packed.ResponseMax <= sparse.ResponseMax {
		t.Fatalf("overload max response %d must exceed sparse %d",
			packed.ResponseMax, sparse.ResponseMax)
	}
	if utilisation(packed) <= utilisation(sparse) {
		t.Fatalf("overload utilisation %.1f must exceed sparse %.1f",
			utilisation(packed), utilisation(sparse))
	}
	// Deadline accounting: with a deadline below the packed worst case
	// there must be misses.
	ds3 := NewDecisionStream(n, 3)
	strict, err := RunRobust(prog, rtos.Periodic(t1, 1, 0, 20), rtos.DefaultCostModel(),
		RobustConfig{CyclesPerTick: 10, Deadline: packed.ResponseMax - 1},
		Hooks{Resolver: ds3.Resolver()})
	if err != nil {
		t.Fatal(err)
	}
	if strict.DeadlineMisses == 0 {
		t.Fatal("expected deadline misses under overload")
	}
}

func TestRunTimedModularWorstCaseResponse(t *testing.T) {
	// On the same workload, the modular baseline's per-event service time
	// includes the dynamic-scheduler cascade, so its worst-case response
	// exceeds QSS's — the real-time argument for quasi-static scheduling.
	n := figures.Figure4()
	t1, _ := n.TransitionByName("t1")
	modProg := figure4Modular(t, n)
	events := rtos.Periodic(t1, 50, 0, 25)
	cost := rtos.DefaultCostModel()
	dsQ := NewDecisionStream(n, 9)
	qssT, err := RunRobust(qssProgram(t, n), events, cost,
		RobustConfig{CyclesPerTick: 10}, Hooks{Resolver: dsQ.Resolver()})
	if err != nil {
		t.Fatal(err)
	}
	dsM := NewDecisionStream(n, 9)
	modT, err := RunRobust(modProg, events, cost,
		RobustConfig{CyclesPerTick: 10, Modular: true}, Hooks{Resolver: dsM.Resolver()})
	if err != nil {
		t.Fatal(err)
	}
	if modT.ResponseMax <= qssT.ResponseMax {
		t.Fatalf("modular worst response %d must exceed QSS %d",
			modT.ResponseMax, qssT.ResponseMax)
	}
}

// TestRunTimedSimultaneousArrivalsKeepInputOrder pins the tie-breaking
// rule: events with equal Event.Time serve in input-slice order (the sort
// is stable), not by source id or any other hidden key. Reordering the
// tied entries reorders service — callers who care must order their
// streams (rtos.Merge is itself stable).
func TestRunTimedSimultaneousArrivalsKeepInputOrder(t *testing.T) {
	n := figures.Figure5() // two independent sources: t1 and t8
	prog := qssProgram(t, n)
	t1, _ := n.TransitionByName("t1")
	t8, _ := n.TransitionByName("t8")

	serveOrder := func(events []rtos.Event) []rtos.Event {
		var got []rtos.Event
		ds := NewDecisionStream(n, 5)
		_, err := RunRobust(prog, events, rtos.DefaultCostModel(),
			RobustConfig{CyclesPerTick: 10}, Hooks{
				Resolver:    ds.Resolver(),
				BeforeEvent: func(ev rtos.Event) { got = append(got, ev) },
			})
		if err != nil {
			t.Fatal(err)
		}
		return got
	}

	// Three ties at t=5 plus one earlier arrival listed out of order: the
	// early event serves first, the ties keep their slice order.
	got := serveOrder([]rtos.Event{
		{Time: 5, Source: t8},
		{Time: 5, Source: t1},
		{Time: 0, Source: t1},
		{Time: 5, Source: t8},
	})
	want := []rtos.Event{
		{Time: 0, Source: t1},
		{Time: 5, Source: t8},
		{Time: 5, Source: t1},
		{Time: 5, Source: t8},
	}
	if len(got) != len(want) {
		t.Fatalf("served %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("serve order[%d] = %+v, want %+v (full order %v)", i, got[i], want[i], got)
		}
	}

	// Swapping the tied entries swaps the service order: the tie-break
	// really is input position, not source identity.
	swapped := serveOrder([]rtos.Event{
		{Time: 5, Source: t1},
		{Time: 5, Source: t8},
	})
	if swapped[0].Source != t1 || swapped[1].Source != t8 {
		t.Fatalf("swapped tie order = %v", swapped)
	}
}

// TestRunTimedZeroDeadline pins the zero-Deadline path: no deadline means
// no misses even under heavy backlog, and an (m,k) verdict over an
// all-hit stream is satisfied with zero misses — a no-deadline run, not
// an always-miss run.
func TestRunTimedZeroDeadline(t *testing.T) {
	n := figures.Figure4()
	prog := qssProgram(t, n)
	t1, _ := n.TransitionByName("t1")
	ds := NewDecisionStream(n, 3)
	// Back-to-back arrivals guarantee queueing delays; with Deadline 0
	// they still never count as misses.
	tm, err := RunRobust(prog, rtos.Periodic(t1, 1, 0, 12), rtos.DefaultCostModel(),
		RobustConfig{CyclesPerTick: 1, MK: timing.Constraint{M: 2, K: 3}},
		Hooks{Resolver: ds.Resolver()})
	if err != nil {
		t.Fatal(err)
	}
	if tm.DeadlineMisses != 0 {
		t.Fatalf("zero deadline produced %d misses", tm.DeadlineMisses)
	}
	if tm.Timing == nil || !tm.Timing.Satisfied || tm.Timing.Misses != 0 || tm.Timing.Events != 12 {
		t.Fatalf("zero-deadline verdict = %+v", tm.Timing)
	}
	// Without a constraint there is no verdict at all.
	ds2 := NewDecisionStream(n, 3)
	tm2, err := RunRobust(prog, rtos.Periodic(t1, 1, 0, 12), rtos.DefaultCostModel(),
		RobustConfig{CyclesPerTick: 1}, Hooks{Resolver: ds2.Resolver()})
	if err != nil {
		t.Fatal(err)
	}
	if tm2.Timing != nil {
		t.Fatalf("disabled MK must yield nil verdict, got %+v", tm2.Timing)
	}
}

// TestRunTimedMKVerdict drives the monitor through a run where every
// event misses: the verdict must pin the first violating window and agree
// with the scalar miss counters.
func TestRunTimedMKVerdict(t *testing.T) {
	n := figures.Figure4()
	prog := qssProgram(t, n)
	t1, _ := n.TransitionByName("t1")
	ds := NewDecisionStream(n, 3)
	tm, err := RunRobust(prog, rtos.Periodic(t1, 1, 0, 12), rtos.DefaultCostModel(),
		RobustConfig{CyclesPerTick: 1, Deadline: 1, MK: timing.Constraint{M: 1, K: 2}},
		Hooks{Resolver: ds.Resolver()})
	if err != nil {
		t.Fatal(err)
	}
	v := tm.Timing
	if v == nil || v.Satisfied {
		t.Fatalf("all-miss run must violate (1,2): %+v", v)
	}
	if int64(v.Misses) != tm.DeadlineMisses || v.Misses != 12 {
		t.Fatalf("verdict misses %d vs counter %d", v.Misses, tm.DeadlineMisses)
	}
	if v.Violation.End != 1 || v.Violation.Window != "00" {
		t.Fatalf("violation = %+v", v.Violation)
	}
	if v.WorstOverrun != tm.ResponseMax-1 {
		t.Fatalf("worst overrun %d, want %d", v.WorstOverrun, tm.ResponseMax-1)
	}
}

func TestRunTimedValidation(t *testing.T) {
	n := figures.Figure4()
	prog := qssProgram(t, n)
	t1, _ := n.TransitionByName("t1")
	events := rtos.Periodic(t1, 10, 0, 10)
	// A zero CyclesPerTick means one cycle per workload tick.
	run := func(cfg RobustConfig) *RobustMetrics {
		rm, err := RunRobust(prog, events, rtos.DefaultCostModel(), cfg,
			Hooks{Resolver: NewDecisionStream(n, 1).Resolver()})
		if err != nil {
			t.Fatal(err)
		}
		return rm
	}
	if zero, one := run(RobustConfig{}), run(RobustConfig{CyclesPerTick: 1}); !reflect.DeepEqual(zero, one) {
		t.Fatalf("CyclesPerTick 0 must default to 1:\n%+v\n%+v", zero, one)
	}
	t2, _ := n.TransitionByName("t2")
	if _, err := RunRobust(prog, []rtos.Event{{Source: t2}}, rtos.DefaultCostModel(),
		RobustConfig{CyclesPerTick: 1}, Hooks{Resolver: NewDecisionStream(n, 1).Resolver()}); err == nil {
		t.Fatal("non-source event accepted")
	}
}

// utilisation is the percentage of the makespan the CPU spent serving.
func utilisation(rm *RobustMetrics) float64 {
	return 100 * float64(rm.CPUBusy) / float64(rm.Makespan)
}
