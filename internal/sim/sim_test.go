package sim

import (
	"testing"

	"fcpn/internal/codegen"
	"fcpn/internal/core"
	"fcpn/internal/figures"
	"fcpn/internal/petri"
	"fcpn/internal/rtos"
)

// compileQSS solves the net and lowers its schedule and task partition
// to task code.
func compileQSS(n *petri.Net) (*codegen.Program, error) {
	s, err := core.Solve(n, core.Options{})
	if err != nil {
		return nil, err
	}
	tp, err := core.PartitionTasks(n, core.Options{})
	if err != nil {
		return nil, err
	}
	return codegen.Generate(s, tp)
}

func qssProgram(t *testing.T, n *petri.Net) *codegen.Program {
	t.Helper()
	prog, err := compileQSS(n)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// figure4Modular is Figure 4's functional baseline: one task per module.
func figure4Modular(t *testing.T, n *petri.Net) *codegen.Program {
	t.Helper()
	tr := func(name string) petri.Transition {
		x, _ := n.TransitionByName(name)
		return x
	}
	prog, err := codegen.GenerateModular(n, []codegen.Module{
		{Name: "in", Transitions: []petri.Transition{tr("t1")}},
		{Name: "branch", Transitions: []petri.Transition{tr("t2"), tr("t3")}},
		{Name: "out", Transitions: []petri.Transition{tr("t4"), tr("t5")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// runModular drives a program through the dynamic-scheduler cascade with
// a seeded decision stream.
func runModular(t *testing.T, prog *codegen.Program, events []rtos.Event, cost rtos.CostModel, seed uint64) *RobustMetrics {
	t.Helper()
	rm, err := RunRobust(prog, events, cost, RobustConfig{Modular: true},
		Hooks{Resolver: NewDecisionStream(prog.Net, seed).Resolver()})
	if err != nil {
		t.Fatal(err)
	}
	return rm
}

func TestRunQSSFigure4(t *testing.T) {
	n := figures.Figure4()
	prog := qssProgram(t, n)
	t1, _ := n.TransitionByName("t1")
	events := rtos.Periodic(t1, 10, 0, 20)
	cost := rtos.DefaultCostModel()
	m, err := RunQSS(prog, events, cost, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Events != 20 || m.Activations != 20 {
		t.Fatalf("events=%d activations=%d", m.Events, m.Activations)
	}
	if m.Cycles <= 0 {
		t.Fatal("no cycles charged")
	}
	// t1 fires once per event.
	if m.Fired[t1] != 20 {
		t.Fatalf("t1 fired %d", m.Fired[t1])
	}
	// The branch split is seed-deterministic: t2+t3 == 20.
	t2, _ := n.TransitionByName("t2")
	t3, _ := n.TransitionByName("t3")
	if m.Fired[t2]+m.Fired[t3] != 20 {
		t.Fatalf("branches = %d + %d", m.Fired[t2], m.Fired[t3])
	}
	// Determinism.
	m2, err := RunQSS(prog, events, cost, 1)
	if err != nil || m2.Cycles != m.Cycles {
		t.Fatalf("non-deterministic run: %d vs %d (%v)", m.Cycles, m2.Cycles, err)
	}
	// Different seed → different decisions (almost surely different cycle
	// count because branch costs differ).
	m3, err := RunQSS(prog, events, cost, 99)
	if err != nil {
		t.Fatal(err)
	}
	if m3.Fired[t2] == m.Fired[t2] && m3.Fired[t3] == m.Fired[t3] {
		t.Log("warning: same branch counts for different seeds (possible but unlikely)")
	}
}

func TestRunQSSUnknownSource(t *testing.T) {
	n := figures.Figure4()
	prog := qssProgram(t, n)
	t2, _ := n.TransitionByName("t2")
	if _, err := RunQSS(prog, []rtos.Event{{Source: t2}}, rtos.DefaultCostModel(), 1); err == nil {
		t.Fatal("event on non-source must fail")
	}
}

func TestDecisionStreamConsistency(t *testing.T) {
	n := figures.Figure4()
	p1, _ := n.PlaceByName("p1")
	t2, _ := n.TransitionByName("t2")
	t3, _ := n.TransitionByName("t3")
	ds1 := NewDecisionStream(n, 7)
	ds2 := NewDecisionStream(n, 7)
	r1 := ds1.Resolver()
	r2 := ds2.Resolver()
	// Same (place, k) must resolve identically even when the alternative
	// lists are presented in different orders.
	for k := 0; k < 50; k++ {
		a := r1(p1, []petri.Transition{t2, t3})
		b := r2(p1, []petri.Transition{t3, t2})
		ta := []petri.Transition{t2, t3}[a]
		tb := []petri.Transition{t3, t2}[b]
		if ta != tb {
			t.Fatalf("k=%d: decision differs across orderings", k)
		}
	}
}

func TestDecisionStreamBias(t *testing.T) {
	n := figures.Figure4()
	p1, _ := n.PlaceByName("p1")
	t2, _ := n.TransitionByName("t2")
	t3, _ := n.TransitionByName("t3")
	ds := NewDecisionStream(n, 7)
	ds.Bias = map[petri.Place][]int{p1: {1, 0}} // always the first consumer (t2)
	r := ds.Resolver()
	for k := 0; k < 20; k++ {
		if got := r(p1, []petri.Transition{t2, t3}); got != 0 {
			t.Fatalf("bias ignored at k=%d", k)
		}
	}
	// Zero-total bias falls back to uniform without panicking.
	ds2 := NewDecisionStream(n, 7)
	ds2.Bias = map[petri.Place][]int{p1: {0, 0}}
	r2 := ds2.Resolver()
	if got := r2(p1, []petri.Transition{t2, t3}); got != 0 && got != 1 {
		t.Fatalf("fallback pick = %d", got)
	}
}

func TestRunModularFigure4(t *testing.T) {
	n := figures.Figure4()
	t1, _ := n.TransitionByName("t1")
	events := rtos.Periodic(t1, 10, 0, 20)
	cost := rtos.DefaultCostModel()
	mm := runModular(t, figure4Modular(t, n), events, cost, 1)
	qp := qssProgram(t, n)
	qm, err := RunQSS(qp, events, cost, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Same decision stream → identical functional behaviour (firings)…
	for tr := 0; tr < n.NumTransitions(); tr++ {
		if mm.Fired[tr] != qm.Fired[tr] {
			t.Fatalf("firing counts diverge at %s: %d vs %d",
				n.TransitionName(petri.Transition(tr)), mm.Fired[tr], qm.Fired[tr])
		}
	}
	// …but more activations and more cycles for the modular split (the
	// paper's Table I effect).
	if mm.Activations <= qm.Activations {
		t.Fatalf("modular activations (%d) must exceed QSS (%d)", mm.Activations, qm.Activations)
	}
	if mm.Cycles <= qm.Cycles {
		t.Fatalf("modular cycles (%d) must exceed QSS (%d)", mm.Cycles, qm.Cycles)
	}
	if mm.Polls == 0 {
		t.Fatal("dynamic scheduler must record polls")
	}
}

func TestHooksBeforeEvent(t *testing.T) {
	n := figures.Figure4()
	prog := qssProgram(t, n)
	t1, _ := n.TransitionByName("t1")
	count := 0
	fired := 0
	ds := NewDecisionStream(n, 3)
	_, err := RunRobust(prog, rtos.Periodic(t1, 1, 0, 5), rtos.DefaultCostModel(), RobustConfig{}, Hooks{
		Resolver:    ds.Resolver(),
		OnFire:      func(petri.Transition) { fired++ },
		BeforeEvent: func(rtos.Event) { count++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Fatalf("BeforeEvent called %d times", count)
	}
	if fired == 0 {
		t.Fatal("OnFire never called")
	}
}

func TestLatencyMetrics(t *testing.T) {
	n := figures.Figure4()
	prog := qssProgram(t, n)
	t1, _ := n.TransitionByName("t1")
	events := rtos.Periodic(t1, 10, 0, 25)
	m, err := RunQSS(prog, events, rtos.DefaultCostModel(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if m.LatencyMax <= 0 || m.LatencyAvg <= 0 {
		t.Fatalf("latency not recorded: max=%d avg=%d", m.LatencyMax, m.LatencyAvg)
	}
	if m.LatencyMax < m.LatencyAvg {
		t.Fatalf("max %d < avg %d", m.LatencyMax, m.LatencyAvg)
	}
	if m.LatencyAvg*int64(m.Events) > m.Cycles {
		t.Fatalf("avg latency * events (%d) exceeds total cycles (%d)",
			m.LatencyAvg*int64(m.Events), m.Cycles)
	}
}

func TestModularLatencyExceedsQSS(t *testing.T) {
	// Under the same workload, the baseline's per-event response time
	// includes scheduler cascades: its worst case must exceed QSS's.
	n := figures.Figure4()
	t1, _ := n.TransitionByName("t1")
	events := rtos.Periodic(t1, 10, 0, 25)
	cost := rtos.DefaultCostModel()
	mm := runModular(t, figure4Modular(t, n), events, cost, 5)
	qm, err := RunQSS(qssProgram(t, n), events, cost, 5)
	if err != nil {
		t.Fatal(err)
	}
	if mm.LatencyMax <= qm.LatencyMax {
		t.Fatalf("modular max latency %d must exceed QSS %d", mm.LatencyMax, qm.LatencyMax)
	}
}

// TestDurationAnnotationsChargePerFiring checks the timed-net duration
// annotations end to end: the simulator charges a transition's duration
// once per firing through the interpreter's OnFire hook, on top of the
// uniform Fire cost, and any user OnFire hook still runs.
func TestDurationAnnotationsChargePerFiring(t *testing.T) {
	n := figures.Figure4()
	prog := qssProgram(t, n)
	t1, _ := n.TransitionByName("t1")
	events := rtos.Periodic(t1, 10, 0, 15)
	base := rtos.DefaultCostModel()
	annotated := base
	annotated.Durations = map[petri.Transition]int64{t1: 500}
	const wantDelta = 500 * 15 // t1 fires once per event

	run := func(cost rtos.CostModel) (int64, int) {
		ds := NewDecisionStream(n, 7)
		fired := 0
		m, err := RunRobust(prog, events, cost, RobustConfig{}, Hooks{
			Resolver: ds.Resolver(),
			OnFire:   func(petri.Transition) { fired++ },
		})
		if err != nil {
			t.Fatal(err)
		}
		return m.Cycles, fired
	}
	plain, firedPlain := run(base)
	rich, firedRich := run(annotated)
	if firedPlain != firedRich || firedPlain == 0 {
		t.Fatalf("user OnFire hook lost under annotations: %d vs %d", firedPlain, firedRich)
	}
	if rich-plain != wantDelta {
		t.Fatalf("duration charge = %d, want %d", rich-plain, wantDelta)
	}
}
