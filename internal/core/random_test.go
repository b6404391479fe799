package core

import (
	"errors"
	"testing"

	"fcpn/internal/figures"
	"fcpn/internal/netgen"
	"fcpn/internal/petri"
)

// TestRandomPipelinesAlwaysSchedulable: nets from the constrained
// generator are quasi-statically schedulable by construction; every cycle
// of every schedule must verify as a finite complete cycle containing all
// of its reduction's transitions, and the buffer bounds must be finite.
func TestRandomPipelinesAlwaysSchedulable(t *testing.T) {
	for seed := uint64(0); seed < 150; seed++ {
		n := netgen.RandomSchedulablePipeline(seed, netgen.DefaultConfig())
		s, err := Solve(n, Options{})
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, n)
		}
		for i, c := range s.Cycles {
			if err := VerifyCompleteCycle(n, c.Sequence); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			counts := n.FiringCount(c.Sequence)
			for _, pt := range s.Reports[i].Reduction.KeptTransitions() {
				if counts[pt] == 0 {
					t.Fatalf("seed %d: cycle misses reduction transition %s",
						seed, n.TransitionName(pt))
				}
			}
		}
		if _, err := s.BufferBounds(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// The partition covers at least the sources.
		tp, err := PartitionTasks(n, Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if tp.NumTasks() < 1 || tp.NumTasks() > len(n.SourceTransitions()) {
			t.Fatalf("seed %d: %d tasks for %d sources",
				seed, tp.NumTasks(), len(n.SourceTransitions()))
		}
	}
}

// TestRandomSyncNetsDiagnosed: the unconstrained generator's synchronising
// variants must either schedule cleanly or fail with a diagnosable
// NotSchedulableError — never panic, never return an unclassified error.
func TestRandomSyncNetsDiagnosed(t *testing.T) {
	sched, unsched := 0, 0
	for seed := uint64(0); seed < 150; seed++ {
		n := netgen.RandomNet(seed, netgen.DefaultConfig())
		_, err := Solve(n, Options{})
		switch {
		case err == nil:
			sched++
		default:
			var nse *NotSchedulableError
			if !errors.As(err, &nse) {
				t.Fatalf("seed %d: unclassified error %v", seed, err)
			}
			if nse.Report.FailReason == "" {
				t.Fatalf("seed %d: empty diagnosis", seed)
			}
			unsched++
		}
	}
	if sched == 0 || unsched == 0 {
		t.Fatalf("want both outcomes, got schedulable=%d unschedulable=%d", sched, unsched)
	}
}

// TestSimplifyPreservesSchedulability: Murata's reduction rules preserve
// liveness and boundedness, so the quasi-static schedulability verdict
// must survive simplification on both the figure nets and random nets.
func TestSimplifyPreservesSchedulability(t *testing.T) {
	check := func(name string, n *petri.Net) {
		t.Helper()
		before := Schedulable(n, Options{})
		red, trace := petri.Simplify(n)
		if err := red.Validate(); err != nil {
			t.Fatalf("%s: simplified net invalid: %v (trace %v)", name, err, trace)
		}
		after := Schedulable(red, Options{})
		if before != after {
			t.Fatalf("%s: schedulability changed %v -> %v (trace %v)\nbefore:\n%s\nafter:\n%s",
				name, before, after, trace, petri.Format(n), petri.Format(red))
		}
	}
	// Fixed order, not a map range: a failure must name the same net on
	// every run.
	for _, tc := range []struct {
		name string
		net  *petri.Net
	}{
		{"figure3a", figures.Figure3a()},
		{"figure3b", figures.Figure3b()},
		{"figure4", figures.Figure4()},
		{"figure5", figures.Figure5()},
		{"figure7", figures.Figure7()},
	} {
		check(tc.name, tc.net)
	}
	for seed := uint64(0); seed < 60; seed++ {
		check("rand", netgen.RandomSchedulablePipeline(seed, netgen.DefaultConfig()))
	}
}
