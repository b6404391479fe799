package codegen

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"fcpn/internal/core"
	"fcpn/internal/figures"
	"fcpn/internal/petri"
)

// fixedResolver always picks the same branch index.
func fixedResolver(idx int) ChoiceResolver {
	return func(petri.Place, []petri.Transition) int { return idx }
}

// lcgResolver derives pseudo-random picks from a seed, deterministically.
func lcgResolver(seed uint64) ChoiceResolver {
	state := seed*6364136223846793005 + 1442695040888963407
	return func(_ petri.Place, alts []petri.Transition) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(len(alts)))
	}
}

func TestInterpFigure4BranchA(t *testing.T) {
	prog := generate(t, figures.Figure4())
	n := prog.Net
	t1, _ := n.TransitionByName("t1")
	in := NewInterp(prog, fixedResolver(0)) // always t2
	// Two passes: t4 fires on the second (needs two tokens in p2).
	for i := 0; i < 2; i++ {
		if err := in.RunSource(t1); err != nil {
			t.Fatal(err)
		}
	}
	t2i, _ := n.TransitionByName("t2")
	t4i, _ := n.TransitionByName("t4")
	if in.Stats.Fired[t2i] != 2 || in.Stats.Fired[t4i] != 1 {
		t.Fatalf("fired = %v", in.Stats.Fired)
	}
	if err := in.StateEquationCheck(); err != nil {
		t.Fatal(err)
	}
	p2, _ := n.PlaceByName("p2")
	if in.Counters[p2] != 0 {
		t.Fatalf("p2 counter = %d after t4 consumed", in.Counters[p2])
	}
}

func TestInterpFigure4BranchB(t *testing.T) {
	prog := generate(t, figures.Figure4())
	n := prog.Net
	t1, _ := n.TransitionByName("t1")
	in := NewInterp(prog, fixedResolver(1)) // always t3
	if err := in.RunSource(t1); err != nil {
		t.Fatal(err)
	}
	t5i, _ := n.TransitionByName("t5")
	if in.Stats.Fired[t5i] != 2 {
		t.Fatalf("t5 fired %d times, want 2 (t3 produces two tokens)", in.Stats.Fired[t5i])
	}
	if err := in.StateEquationCheck(); err != nil {
		t.Fatal(err)
	}
}

func TestInterpFigure5SharedT6(t *testing.T) {
	prog := generate(t, figures.Figure5())
	n := prog.Net
	t1, _ := n.TransitionByName("t1")
	t8, _ := n.TransitionByName("t8")
	t6, _ := n.TransitionByName("t6")
	in := NewInterp(prog, fixedResolver(0)) // choice → t2 branch
	if err := in.RunSource(t1); err != nil {
		t.Fatal(err)
	}
	if in.Stats.Fired[t6] != 4 {
		t.Fatalf("after t1 event: t6 fired %d, want 4", in.Stats.Fired[t6])
	}
	if err := in.RunSource(t8); err != nil {
		t.Fatal(err)
	}
	if in.Stats.Fired[t6] != 5 {
		t.Fatalf("after t8 event: t6 fired %d, want 5 (paper's cycle fires t6 five times)", in.Stats.Fired[t6])
	}
	if err := in.StateEquationCheck(); err != nil {
		t.Fatal(err)
	}
}

func TestInterpUnknownSource(t *testing.T) {
	prog := generate(t, figures.Figure4())
	in := NewInterp(prog, fixedResolver(0))
	if err := in.RunSource(petri.Transition(1)); err == nil {
		t.Fatal("non-source must be rejected")
	}
}

func TestRunTaskBounds(t *testing.T) {
	prog := generate(t, figures.Figure4())
	in := NewInterp(prog, fixedResolver(0))
	if _, err := in.RunTask(99); err == nil {
		t.Fatal("task index out of range accepted")
	}
	fired, err := in.RunTask(0)
	if err != nil || fired {
		t.Fatalf("empty residual must fire nothing: %v %v", fired, err)
	}
}

// TestInterpEquivalenceProperty drives the generated code with random
// choice outcomes and checks, after every event, that the code's counters
// satisfy the net's state equation and never go negative — the functional
// equivalence of the synthesised software and the FCPN (Section 4).
func TestInterpEquivalenceProperty(t *testing.T) {
	nets := []*petri.Net{figures.Figure3a(), figures.Figure4(), figures.Figure5()}
	progs := make([]*Program, len(nets))
	for i, n := range nets {
		progs[i] = generate(t, n)
	}
	f := func(seed uint64, eventsRaw uint8) bool {
		events := int(eventsRaw%40) + 1
		for _, prog := range progs {
			in := NewInterp(prog, lcgResolver(seed))
			sources := prog.Net.SourceTransitions()
			state := seed
			for e := 0; e < events; e++ {
				state = state*2862933555777941757 + 3037000493
				src := sources[int((state>>33)%uint64(len(sources)))]
				if err := in.RunSource(src); err != nil {
					t.Logf("net %s: %v", prog.Net.Name(), err)
					return false
				}
				if err := in.StateEquationCheck(); err != nil {
					t.Logf("net %s: %v", prog.Net.Name(), err)
					return false
				}
			}
			// Bounded memory: counters cannot exceed the static bound of
			// the largest arc weight times two for these nets.
			if in.Stats.MaxCounter > 4 {
				t.Logf("net %s: counter reached %d", prog.Net.Name(), in.Stats.MaxCounter)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestModularEquivalenceProperty checks the modular baseline against the
// same state-equation oracle, with the RTOS-style drain loop: after a
// source event, keep invoking tasks until quiescence.
func TestModularEquivalenceProperty(t *testing.T) {
	n := figures.Figure4()
	t1, _ := n.TransitionByName("t1")
	t2, _ := n.TransitionByName("t2")
	t3, _ := n.TransitionByName("t3")
	t4, _ := n.TransitionByName("t4")
	t5, _ := n.TransitionByName("t5")
	prog, err := GenerateModular(n, []Module{
		{Name: "input", Transitions: []petri.Transition{t1}},
		{Name: "branch", Transitions: []petri.Transition{t2, t3}},
		{Name: "drain", Transitions: []petri.Transition{t4, t5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed uint64, eventsRaw uint8) bool {
		events := int(eventsRaw%30) + 1
		in := NewInterp(prog, lcgResolver(seed))
		for e := 0; e < events; e++ {
			if err := in.RunSource(t1); err != nil {
				return false
			}
			// Drain: run module tasks until no progress (the dynamic
			// scheduler's job in the baseline implementation).
			for {
				progress := false
				for ti := range prog.Tasks {
					fired, err := in.RunTask(ti)
					if err != nil {
						return false
					}
					progress = progress || fired
				}
				if !progress {
					break
				}
			}
			if err := in.StateEquationCheck(); err != nil {
				t.Log(err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRunawayGuard(t *testing.T) {
	// Hand-built pathological program: while (n >= 0) {} on a counter
	// place — not producible by the generator, but the interpreter must
	// bail out rather than hang.
	b := petri.NewBuilder("x")
	p := b.MarkedPlace("p", 1)
	tr := b.Transition("t")
	b.Arc(p, tr)
	n := b.Build()
	prog := &Program{Net: n, HasCounter: []bool{true}}
	prog.Tasks = []*TaskCode{{
		Task: core.Task{Name: "task_bad"},
		Residual: []Node{GuardNode{
			Conds: []Cond{{0, 1}},
			Loop:  true,
			Body:  []Node{IncNode{0, 1}, DecNode{0, 1}},
		}},
	}}
	in := NewInterp(prog, fixedResolver(0))
	in.MaxLoop = 100
	if _, err := in.RunTask(0); err == nil {
		t.Fatal("runaway loop must be detected")
	}
}

func TestTrace(t *testing.T) {
	prog := generate(t, figures.Figure4())
	n := prog.Net
	t1, _ := n.TransitionByName("t1")
	in := NewInterp(prog, fixedResolver(1)) // t3 branch: t3 then t5 twice
	in.StartTrace()
	if err := in.RunSource(t1); err != nil {
		t.Fatal(err)
	}
	tail := in.TraceTail()
	if len(tail) == 0 {
		t.Fatal("no trace recorded")
	}
	var rendered []string
	for _, e := range tail {
		rendered = append(rendered, e.String(n))
	}
	joined := strings.Join(rendered, "; ")
	for _, frag := range []string{"fire t1", "fire t3", "inc p3 +2", "fire t5", "dec p3 -1"} {
		if !strings.Contains(joined, frag) {
			t.Fatalf("trace missing %q: %s", frag, joined)
		}
	}
	// The ring keeps only the most recent steps.
	for i := 0; i < 200; i++ {
		if err := in.RunSource(t1); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(in.TraceTail()); got != traceCap {
		t.Fatalf("trace length = %d, want cap %d", got, traceCap)
	}
	// Tracing off by default.
	in2 := NewInterp(prog, fixedResolver(0))
	if err := in2.RunSource(t1); err != nil {
		t.Fatal(err)
	}
	if len(in2.TraceTail()) != 0 {
		t.Fatal("trace recorded without StartTrace")
	}
}

// TestInterpReset: an interpreter reset after one run replays a second
// run exactly as a fresh interpreter does: counters, statistics and
// source dispatch.
func TestInterpReset(t *testing.T) {
	prog := generate(t, figures.Figure5())
	sources := prog.Net.SourceTransitions()
	run := func(in *Interp) {
		t.Helper()
		for i := 0; i < 40; i++ {
			if err := in.RunSource(sources[i%len(sources)]); err != nil {
				t.Fatal(err)
			}
		}
	}
	reused := NewInterp(prog, lcgResolver(3))
	run(reused)
	reused.StartTrace()
	run(reused)
	reused.Reset(lcgResolver(9))
	run(reused)
	fresh := NewInterp(prog, lcgResolver(9))
	run(fresh)
	if !reflect.DeepEqual(reused.Counters, fresh.Counters) || !reflect.DeepEqual(reused.Stats, fresh.Stats) {
		t.Fatalf("reset run differs from a fresh one:\n%+v %+v\n%+v %+v", reused.Counters, reused.Stats, fresh.Counters, fresh.Stats)
	}
	if len(reused.TraceTail()) != 0 {
		t.Fatal("Reset left tracing on")
	}
	for _, src := range sources {
		if got, want := reused.SourceTask(src), prog.TaskBySource(src); got != want {
			t.Fatalf("SourceTask(%d) = %d, TaskBySource %d", src, got, want)
		}
	}
	if reused.SourceTask(-1) != -1 || reused.SourceTask(petri.Transition(prog.Net.NumTransitions())) != -1 {
		t.Fatal("SourceTask accepted an out-of-range transition")
	}
}
