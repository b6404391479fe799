package core

import (
	"errors"
	"testing"
	"testing/quick"

	"fcpn/internal/figures"
	"fcpn/internal/petri"
)

func TestFindCompleteCycleFigure2(t *testing.T) {
	n := figures.Figure2()
	seq, err := FindCompleteCycle(n, []int{4, 2, 1}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != 7 {
		t.Fatalf("len = %d", len(seq))
	}
	if err := VerifyCompleteCycle(n, seq); err != nil {
		t.Fatal(err)
	}
}

func TestFindCompleteCycleRejectsNonInvariant(t *testing.T) {
	n := figures.Figure2()
	// (1,0,0) fires t1 once and leaves a token: greedy completes the
	// firings but the marking check must fail.
	if _, err := FindCompleteCycle(n, []int{1, 0, 0}, 1000); err == nil {
		t.Fatal("non-invariant accepted")
	}
}

func TestFindCompleteCycleDeadlock(t *testing.T) {
	// Unmarked cycle: counts (1,1) are a T-invariant but nothing can fire.
	b := petri.NewBuilder("dead")
	t1 := b.Transition("t1")
	t2 := b.Transition("t2")
	p := b.Place("p")
	q := b.Place("q")
	b.Chain(t1, p, t2, q, t1)
	n := b.Build()
	_, err := FindCompleteCycle(n, []int{1, 1}, 1000)
	if !errors.Is(err, ErrCycleDeadlock) {
		t.Fatalf("err = %v, want deadlock", err)
	}
}

func TestFindCompleteCycleValidation(t *testing.T) {
	n := figures.Figure2()
	if _, err := FindCompleteCycle(n, []int{1}, 1000); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := FindCompleteCycle(n, []int{-1, 0, 0}, 1000); err == nil {
		t.Fatal("negative count accepted")
	}
	if _, err := FindCompleteCycle(n, []int{4, 2, 1}, 3); err == nil {
		t.Fatal("cap ignored")
	}
	if _, err := FindCompleteCycle(figures.Figure3a(), []int{1, 1, 0, 1, 0}, 100); err == nil {
		t.Fatal("non-conflict-free net accepted")
	}
}

func TestVerifyCompleteCycleFailures(t *testing.T) {
	n := figures.Figure2()
	t2, _ := n.TransitionByName("t2")
	if err := VerifyCompleteCycle(n, []petri.Transition{t2}); err == nil {
		t.Fatal("disabled firing accepted")
	}
	t1, _ := n.TransitionByName("t1")
	if err := VerifyCompleteCycle(n, []petri.Transition{t1}); err == nil {
		t.Fatal("non-returning sequence accepted")
	}
}

func TestEnumerateAllocationsShape(t *testing.T) {
	n := figures.Figure5()
	allocs, err := EnumerateAllocations(n, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(allocs) != 2 {
		t.Fatalf("allocations = %d", len(allocs))
	}
	if CountAllocations(n) != 2 {
		t.Fatalf("CountAllocations = %d", CountAllocations(n))
	}
	// Marked graph: exactly one (empty) allocation.
	mg := figures.Figure2()
	allocs, err = EnumerateAllocations(mg, 100)
	if err != nil || len(allocs) != 1 || len(allocs[0].Chosen) != 0 {
		t.Fatalf("marked graph allocations = %v, %v", allocs, err)
	}
	if CountAllocations(mg) != 1 {
		t.Fatal("CountAllocations of MG must be 1")
	}
}

func TestAllocated(t *testing.T) {
	n := figures.Figure3a()
	allocs, _ := EnumerateAllocations(n, 100)
	t1, _ := n.TransitionByName("t1")
	t2, _ := n.TransitionByName("t2")
	t3, _ := n.TransitionByName("t3")
	for _, a := range allocs {
		if !a.Allocated(t1) {
			t.Fatal("non-conflict transitions are always allocated")
		}
		if a.Allocated(t2) == a.Allocated(t3) {
			t.Fatal("exactly one of t2/t3 is allocated")
		}
	}
}

func TestAllocationCapCombinatorial(t *testing.T) {
	// A net with 12 binary choices has 4096 allocations.
	b := petri.NewBuilder("big")
	for i := 0; i < 12; i++ {
		src := b.Transition(tname("s", i))
		p := b.Place(tname("p", i))
		b.ArcTP(src, p)
		b.Arc(p, b.Transition(tname("a", i)))
		b.Arc(p, b.Transition(tname("b", i)))
	}
	n := b.Build()
	if got := CountAllocations(n); got != 4096 {
		t.Fatalf("CountAllocations = %d", got)
	}
	if _, err := EnumerateAllocations(n, 100); !errors.Is(err, ErrTooManyAllocations) {
		t.Fatal("cap must trigger")
	}
	allocs, err := EnumerateAllocations(n, 5000)
	if err != nil || len(allocs) != 4096 {
		t.Fatalf("enumeration = %d, %v", len(allocs), err)
	}
}

func tname(prefix string, i int) string {
	return prefix + string(rune('A'+i))
}

// Property: for every schedulable figure net, every cycle returned by
// Solve is a verified finite complete cycle whose counts are a T-invariant
// realisation covering the reduction.
func TestSolveCyclesAlwaysValidProperty(t *testing.T) {
	nets := []*petri.Net{figures.Figure2(), figures.Figure3a(), figures.Figure4(), figures.Figure5()}
	for _, n := range nets {
		s, err := Solve(n, Options{})
		if err != nil {
			t.Fatalf("%s: %v", n.Name(), err)
		}
		for i, c := range s.Cycles {
			if err := VerifyCompleteCycle(n, c.Sequence); err != nil {
				t.Fatalf("%s: %v", n.Name(), err)
			}
			// Every transition of the reduction occurs at least once
			// (Theorem 3.1's requirement).
			counts := n.FiringCount(c.Sequence)
			for _, pt := range s.Reports[i].Reduction.KeptTransitions() {
				if counts[pt] == 0 {
					t.Fatalf("%s: transition %s of the reduction missing from cycle",
						n.Name(), n.TransitionName(pt))
				}
			}
		}
	}
}

// Property: random two-branch pipeline nets are schedulable exactly when
// both branches drain to sinks without re-synchronising.
func TestRandomChoicePipelinesProperty(t *testing.T) {
	f := func(w1Raw, w2Raw uint8, resync bool) bool {
		w1 := int(w1Raw%3) + 1
		w2 := int(w2Raw%3) + 1
		b := petri.NewBuilder("rand")
		t1 := b.Transition("t1")
		t2 := b.Transition("t2")
		t3 := b.Transition("t3")
		t4 := b.Transition("t4")
		p1 := b.Place("p1")
		p2 := b.Place("p2")
		p3 := b.Place("p3")
		b.ArcTP(t1, p1)
		b.Arc(p1, t2)
		b.Arc(p1, t3)
		b.WeightedArcTP(t2, p2, w1)
		b.WeightedArcTP(t3, p3, w2)
		if resync {
			// Both branches feed the same consumer: not schedulable.
			b.WeightedArc(p2, t4, w1)
			b.WeightedArc(p3, t4, w2)
		} else {
			t5 := b.Transition("t5")
			b.WeightedArc(p2, t4, w1)
			b.WeightedArc(p3, t5, w2)
		}
		n := b.Build()
		got := Schedulable(n, Options{})
		return got == !resync
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// deadCycleNet has a consistent T-reduction that deadlocks: choosing b
// feeds the token-free cycle r1 → u → r2 → v → r1, which nothing ever
// marks. That reduction removes qa, the first place of the net, so its
// deadlock diagnosis prints a marking and a remaining vector over the
// reduction's nodes that differ from the parent net's.
func deadCycleNet() *petri.Net {
	b := petri.NewBuilder("deadcycle")
	qa := b.Place("qa")
	pc := b.Place("pc")
	qb := b.Place("qb")
	r1 := b.Place("r1")
	r2 := b.Place("r2")
	src := b.Transition("src")
	tb := b.Transition("b")
	ta := b.Transition("a")
	sink := b.Transition("ta")
	u := b.Transition("u")
	v := b.Transition("v")
	b.ArcTP(src, pc)
	b.Arc(pc, tb)
	b.Arc(pc, ta)
	b.ArcTP(ta, qa)
	b.Arc(qa, sink)
	b.ArcTP(tb, qb)
	b.Arc(qb, u)
	b.Arc(r1, u)
	b.ArcTP(u, r2)
	b.Arc(r2, v)
	b.ArcTP(v, r1)
	return b.Build()
}

func TestDeadlockDiagnosisGolden(t *testing.T) {
	// Recorded from the subnet-based check: the marking lists the kept
	// places (pc, qb, r1, r2) and remaining counts src, b, u, v.
	const want = "T-reduction \"deadcycle/pc→b\" deadlocks: core: deadlock while realising T-invariant: " +
		"2 of 4 firings done, stuck at (0,1,0,0) with remaining [0 0 1 1]"
	for _, opt := range []Options{{}, {KeepDuplicateReductions: true}} {
		_, err := Solve(deadCycleNet(), opt)
		var nse *NotSchedulableError
		if !errors.As(err, &nse) || !errors.Is(err, ErrCycleDeadlock) {
			t.Fatalf("%+v: err = %v, want a deadlock diagnosis", opt, err)
		}
		if got := nse.Report.FailReason; got != want {
			t.Fatalf("%+v: FailReason\n got %q\nwant %q", opt, got, want)
		}
	}
}
