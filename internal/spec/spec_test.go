package spec

import (
	"strings"
	"testing"

	"fcpn/internal/codegen"
	"fcpn/internal/core"
	"fcpn/internal/petri"
)

// buildPacketHandler builds a small protocol handler: parse each frame,
// branch on its kind, acknowledge data frames, ignore keep-alives.
func buildPacketHandler(t *testing.T) *petri.Net {
	t.Helper()
	s := NewSystem("packets")
	frame := s.Input("Frame")
	ack := s.Output("Ack")
	s.Process("handler").
		Receive(frame).
		Run("parse").
		If("kind",
			Branch{Label: "data", Body: func(p *Process) {
				p.Run("store").Send(ack)
			}},
			Branch{Label: "keepalive", Body: func(p *Process) {
				p.Run("touch_timer")
			}},
		)
	n, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestCompilePacketHandler(t *testing.T) {
	n := buildPacketHandler(t)
	if !n.IsFreeChoice() {
		t.Fatal("compiled net must be free-choice")
	}
	srcs := n.SourceTransitions()
	if len(srcs) != 1 || n.TransitionName(srcs[0]) != "Frame" {
		t.Fatalf("sources = %v", n.SequenceNames(srcs))
	}
	if len(n.FreeChoiceSets()) != 1 {
		t.Fatalf("choices = %d", len(n.FreeChoiceSets()))
	}
	s, err := core.Solve(n, core.Options{})
	if err != nil {
		t.Fatalf("must be schedulable: %v", err)
	}
	if len(s.Cycles) != 2 {
		t.Fatalf("cycles = %d", len(s.Cycles))
	}
}

func TestCompiledSpecSynthesises(t *testing.T) {
	n := buildPacketHandler(t)
	sched, err := core.Solve(n, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tp, err := core.PartitionTasks(n, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := codegen.Generate(sched, tp)
	if err != nil {
		t.Fatal(err)
	}
	src := codegen.EmitC(prog, codegen.CConfig{})
	for _, frag := range []string{"parse();", "read_kind()", "store();", "env_Ack();"} {
		if !strings.Contains(src, frag) {
			t.Fatalf("C missing %q:\n%s", frag, src)
		}
	}
}

func TestRepeatCompilesToMultirate(t *testing.T) {
	// Figure 4's pattern through the frontend: per input, run the body
	// twice, then finalise.
	s := NewSystem("rep")
	in := s.Input("In")
	out := s.Output("Out")
	s.Process("p").
		Receive(in).
		Run("prepare").
		Repeat(2, func(b *Process) { b.Run("step") }).
		Run("finalise").
		Send(out)
	n, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	sched, err := core.Solve(n, core.Options{})
	if err != nil {
		t.Fatalf("must be schedulable: %v", err)
	}
	if len(sched.Cycles) != 1 {
		t.Fatalf("cycles = %d", len(sched.Cycles))
	}
	// step fires twice per input, finalise once.
	step, _ := n.TransitionByName("step")
	prep, _ := n.TransitionByName("prepare")
	if sched.Cycles[0].Counts[step] != 2*sched.Cycles[0].Counts[prep] {
		t.Fatalf("counts = %v", sched.Cycles[0].Counts)
	}
}

func TestTwoProcessPipeline(t *testing.T) {
	// Producer filters samples to a channel; consumer batches 2 per frame.
	s := NewSystem("pipe")
	sample := s.Input("Sample")
	mid := s.Channel("mid")
	frame := s.Output("FrameOut")
	s.Process("producer").
		Receive(sample).
		Run("filter").
		Send(mid)
	s.Process("consumer").
		ReceiveN(mid, 2).
		Run("assemble").
		Send(frame)
	n, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	sched, err := core.Solve(n, core.Options{})
	if err != nil {
		t.Fatalf("must be schedulable: %v", err)
	}
	// Per cycle: 2 samples, 1 frame.
	smp, _ := n.TransitionByName("Sample")
	asm, _ := n.TransitionByName("assemble")
	if sched.Cycles[0].Counts[smp] != 2 || sched.Cycles[0].Counts[asm] != 1 {
		t.Fatalf("counts = %v", sched.Cycles[0].Counts)
	}
	tp, err := core.PartitionTasks(n, core.Options{})
	if err != nil || tp.NumTasks() != 1 {
		t.Fatalf("tasks = %v (%v): one rate-dependent input group", tp, err)
	}
}

func TestIndependentInputsTwoTasks(t *testing.T) {
	s := NewSystem("indep")
	a := s.Input("A")
	bIn := s.Input("B")
	outA := s.Output("OutA")
	outB := s.Output("OutB")
	s.Process("pa").Receive(a).Run("fa").Send(outA)
	s.Process("pb").Receive(bIn).Run("fb").Send(outB)
	n, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	tp, err := core.PartitionTasks(n, core.Options{})
	if err != nil || tp.NumTasks() != 2 {
		t.Fatalf("tasks = %d (%v)", tp.NumTasks(), err)
	}
}

func TestCompileIsDeterministic(t *testing.T) {
	// Source and sink transitions are numbered in channel declaration
	// order, so every compile of the same system yields the same net text.
	// Map iteration used to number them at random: with two inputs and two
	// outputs, 50 compiles all agreeing by chance has odds of about 2^-49.
	build := func() *petri.Net {
		s := NewSystem("twoway")
		a := s.Input("A")
		bIn := s.Input("B")
		outA := s.Output("OutA")
		outB := s.Output("OutB")
		s.Process("pa").Receive(a).Run("fa").Send(outA)
		s.Process("pb").Receive(bIn).Run("fb").Send(outB)
		n, err := s.Compile()
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	n := build()
	if got := n.SequenceNames(n.SourceTransitions()); strings.Join(got, ",") != "A,B" {
		t.Fatalf("sources = %v, want declaration order A,B", got)
	}
	want := petri.Format(n)
	for i := 0; i < 50; i++ {
		if got := petri.Format(build()); got != want {
			t.Fatalf("compile %d differs:\n%s\nwant:\n%s", i, got, want)
		}
	}
}

func TestNestedIfAtBranchEnd(t *testing.T) {
	// An If whose branch ends with another If: every leaf must re-join
	// the continuation.
	s := NewSystem("nested")
	in := s.Input("In")
	out := s.Output("Out")
	s.Process("p").
		Receive(in).
		Run("start").
		If("outer",
			Branch{Label: "x", Body: func(b *Process) {
				b.Run("x1").If("inner",
					Branch{Label: "p", Body: func(b2 *Process) { b2.Run("deep_p") }},
					Branch{Label: "q", Body: func(b2 *Process) { b2.Run("deep_q") }},
				)
			}},
			Branch{Label: "y", Body: func(b *Process) { b.Run("y1") }},
		).
		Run("done").
		Send(out)
	n, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	sched, err := core.Solve(n, core.Options{})
	if err != nil {
		t.Fatalf("must be schedulable: %v", err)
	}
	// Three leaves: x→p, x→q, y.
	if len(sched.Cycles) != 3 {
		t.Fatalf("cycles = %d, want 3", len(sched.Cycles))
	}
	// 'done' runs in every cycle.
	done, _ := n.TransitionByName("done")
	for _, c := range sched.Cycles {
		if c.Counts[done] != 1 {
			t.Fatalf("done missing from a cycle: %v", c.Counts)
		}
	}
}

func TestCompileErrors(t *testing.T) {
	cases := []struct {
		name string
		sys  func() *System
		frag string
	}{
		{"no processes", func() *System { return NewSystem("x") }, "no processes"},
		{"empty body", func() *System {
			s := NewSystem("x")
			s.Process("p")
			return s
		}, "empty body"},
		{"no trigger", func() *System {
			s := NewSystem("x")
			s.Process("p").Run("a")
			return s
		}, "must start with Receive"},
		{"trailing receive", func() *System {
			s := NewSystem("x")
			in := s.Input("In")
			s.Process("p").Receive(in)
			return s
		}, "trailing Receive"},
		{"send before run", func() *System {
			s := NewSystem("x")
			in := s.Input("In")
			out := s.Output("Out")
			s.Process("p").Receive(in).Send(out).Run("a")
			return s
		}, "Send before any computation"},
		{"one-armed if", func() *System {
			s := NewSystem("x")
			in := s.Input("In")
			s.Process("p").Receive(in).Run("a").
				If("c", Branch{Label: "only", Body: func(b *Process) { b.Run("z") }})
			return s
		}, "at least two branches"},
		{"receive before if", func() *System {
			s := NewSystem("x")
			in := s.Input("In")
			ch := s.Channel("ch")
			s.Process("feeder").Receive(in).Run("f").Send(ch)
			s.Process("p").Receive(in).Run("a").Receive(ch).
				If("c",
					Branch{Label: "l", Body: func(b *Process) { b.Run("z1") }},
					Branch{Label: "r", Body: func(b *Process) { b.Run("z2") }})
			return s
		}, "Receive immediately before If"},
		{"zero repeat", func() *System {
			s := NewSystem("x")
			in := s.Input("In")
			s.Process("p").Receive(in).Run("a").Repeat(0, func(b *Process) { b.Run("z") })
			return s
		}, "Repeat needs k >= 1"},
		{"repeat without run", func() *System {
			s := NewSystem("x")
			in := s.Input("In")
			out := s.Output("Out")
			s.Process("p").Receive(in).Run("a").
				Repeat(2, func(b *Process) { b.Send(out) })
			return s
		}, "Repeat body must start with Run"},
		{"bad receiven", func() *System {
			s := NewSystem("x")
			in := s.Input("In")
			s.Process("p").ReceiveN(in, 0).Run("a")
			return s
		}, "ReceiveN needs k >= 1"},
		{"bad sendn", func() *System {
			s := NewSystem("x")
			in := s.Input("In")
			out := s.Output("Out")
			s.Process("p").Receive(in).Run("a").SendN(out, 0)
			return s
		}, "SendN needs k >= 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.sys().Compile()
			if err == nil {
				t.Fatalf("expected error containing %q", tc.frag)
			}
			if !strings.Contains(err.Error(), tc.frag) {
				t.Fatalf("error %q does not contain %q", err, tc.frag)
			}
		})
	}
}

func TestParForkJoin(t *testing.T) {
	s := NewSystem("fork")
	in := s.Input("In")
	out := s.Output("Out")
	s.Process("p").
		Receive(in).
		Run("split").
		Par("work",
			func(b *Process) { b.Run("left") },
			func(b *Process) { b.Run("right").Run("right2") },
		).
		Run("merge").
		Send(out)
	n, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	sched, err := core.Solve(n, core.Options{})
	if err != nil {
		t.Fatalf("fork-join must be schedulable: %v", err)
	}
	if len(sched.Cycles) != 1 {
		t.Fatalf("cycles = %d", len(sched.Cycles))
	}
	// Every branch and the join run exactly once per input.
	for _, name := range []string{"left", "right", "right2", "merge"} {
		tr, ok := n.TransitionByName(name)
		if !ok {
			t.Fatalf("missing %s", name)
		}
		if sched.Cycles[0].Counts[tr] != 1 {
			t.Fatalf("%s fired %d times", name, sched.Cycles[0].Counts[tr])
		}
	}
	// And the synthesised code is equivalent to the net.
	tp, err := core.PartitionTasks(n, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := codegen.Generate(sched, tp)
	if err != nil {
		t.Fatal(err)
	}
	inTr, _ := n.TransitionByName("In")
	it := codegen.NewInterp(prog, func(petri.Place, []petri.Transition) int { return 0 })
	for i := 0; i < 5; i++ {
		if err := it.RunSource(inTr); err != nil {
			t.Fatal(err)
		}
		if err := it.StateEquationCheck(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestParWithNestedIf(t *testing.T) {
	s := NewSystem("forkif")
	in := s.Input("In")
	s.Process("p").
		Receive(in).
		Run("start").
		Par("fan",
			func(b *Process) {
				b.Run("a1").If("cond",
					Branch{Label: "x", Body: func(b2 *Process) { b2.Run("ax") }},
					Branch{Label: "y", Body: func(b2 *Process) { b2.Run("ay") }},
				)
			},
			func(b *Process) { b.Run("b1") },
		).
		Run("done")
	n, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	sched, err := core.Solve(n, core.Options{})
	if err != nil {
		t.Fatalf("must be schedulable: %v", err)
	}
	if len(sched.Cycles) != 2 {
		t.Fatalf("cycles = %d (one per If outcome)", len(sched.Cycles))
	}
	done, _ := n.TransitionByName("done")
	for _, c := range sched.Cycles {
		if c.Counts[done] != 1 {
			t.Fatalf("done must fire once per cycle: %v", c.Counts)
		}
	}
}

func TestParErrors(t *testing.T) {
	mk := func(build func(p *Process)) error {
		s := NewSystem("x")
		in := s.Input("In")
		p := s.Process("p").Receive(in).Run("a")
		build(p)
		_, err := s.Compile()
		return err
	}
	if err := mk(func(p *Process) {
		p.Par("one", func(b *Process) { b.Run("z") })
	}); err == nil || !strings.Contains(err.Error(), "at least two branches") {
		t.Fatalf("one-branch Par: %v", err)
	}
	if err := mk(func(p *Process) {
		p.Par("empty", func(b *Process) {}, func(b *Process) { b.Run("z") })
	}); err == nil || !strings.Contains(err.Error(), "empty Par branch") {
		t.Fatalf("empty branch: %v", err)
	}
	if err := mk(func(p *Process) {
		p.Par("bad", func(b *Process) { b.Send(0) }, func(b *Process) { b.Run("z") })
	}); err == nil || !strings.Contains(err.Error(), "must start with Run") {
		t.Fatalf("non-Run head: %v", err)
	}
}

func TestDanglingChannelErrors(t *testing.T) {
	// Unused output.
	s := NewSystem("x")
	in := s.Input("In")
	s.Output("Out")
	s.Process("p").Receive(in).Run("a")
	if _, err := s.Compile(); err == nil || !strings.Contains(err.Error(), `sends to output "Out"`) {
		t.Fatalf("err = %v", err)
	}
	// Channel with a consumer but no producer.
	s2 := NewSystem("x")
	in2 := s2.Input("In")
	ch := s2.Channel("ch")
	s2.Process("p").Receive(in2).Run("a")
	s2.Process("q").Receive(ch).Run("b")
	if _, err := s2.Compile(); err == nil || !strings.Contains(err.Error(), `sends to channel "ch"`) {
		t.Fatalf("err = %v", err)
	}
	// Channel with a producer but no consumer.
	s3 := NewSystem("x")
	in3 := s3.Input("In")
	ch3 := s3.Channel("ch")
	s3.Process("p").Receive(in3).Run("a").Send(ch3)
	if _, err := s3.Compile(); err == nil || !strings.Contains(err.Error(), `receives from channel "ch"`) {
		t.Fatalf("err = %v", err)
	}
	// Input nobody reads.
	s4 := NewSystem("x")
	s4.Input("In")
	in4b := s4.Input("In2")
	s4.Process("p").Receive(in4b).Run("a")
	if _, err := s4.Compile(); err == nil || !strings.Contains(err.Error(), `receives from input "In"`) {
		t.Fatalf("err = %v", err)
	}
}
