package core

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"fcpn/internal/figures"
	"fcpn/internal/invariant"
	"fcpn/internal/netgen"
	"fcpn/internal/petri"
	"fcpn/internal/trace"
)

func names(n *petri.Net, ts []petri.Transition) []string { return n.SequenceNames(ts) }

func mustSolve(t *testing.T, n *petri.Net) *Schedule {
	t.Helper()
	s, err := Solve(n, Options{})
	if err != nil {
		t.Fatalf("Solve(%s): %v", n.Name(), err)
	}
	return s
}

func sortedNames(xs []string) []string {
	out := append([]string(nil), xs...)
	sort.Strings(out)
	return out
}

func TestFigure3aSchedulable(t *testing.T) {
	n := figures.Figure3a()
	s := mustSolve(t, n)
	if len(s.Cycles) != 2 {
		t.Fatalf("cycles = %d, want 2 (one per choice outcome)", len(s.Cycles))
	}
	got := map[string]bool{}
	for _, c := range s.Cycles {
		key := ""
		for _, nm := range n.SequenceNames(c.Sequence) {
			key += nm + " "
		}
		got[key] = true
	}
	// Paper: S = {(t1 t2 t4), (t1 t3 t5)}.
	if !got["t1 t2 t4 "] || !got["t1 t3 t5 "] {
		t.Fatalf("cycles = %v, want paper's {(t1 t2 t4),(t1 t3 t5)}", got)
	}
	if s.AllocationCount != 2 {
		t.Fatalf("AllocationCount = %d", s.AllocationCount)
	}
}

func TestFigure3bNotSchedulable(t *testing.T) {
	n := figures.Figure3b()
	_, err := Solve(n, Options{})
	var nse *NotSchedulableError
	if !errors.As(err, &nse) {
		t.Fatalf("err = %v, want NotSchedulableError", err)
	}
	if nse.Report.Consistent {
		t.Fatal("figure 3b reductions must be inconsistent (t4 needs both branches)")
	}
	if nse.Error() == "" {
		t.Fatal("empty error message")
	}
	if Schedulable(n, Options{}) {
		t.Fatal("Schedulable must agree")
	}
}

func TestFigure4Schedule(t *testing.T) {
	n := figures.Figure4()
	s := mustSolve(t, n)
	if len(s.Cycles) != 2 {
		t.Fatalf("cycles = %d, want 2", len(s.Cycles))
	}
	// Paper: S = {(t1 t2 t1 t2 t4), (t1 t3 t5 t5)}. Counts must match
	// exactly; the order of our deterministic simulation may differ but
	// must be a valid complete cycle.
	wantCounts := map[string][]int{
		"t2": {2, 2, 0, 1, 0},
		"t3": {1, 0, 1, 0, 2},
	}
	for _, c := range s.Cycles {
		chosen := n.TransitionName(c.Allocation.Chosen[0])
		want, ok := wantCounts[chosen]
		if !ok {
			t.Fatalf("unexpected allocation %q", chosen)
		}
		if counts := n.FiringCount(c.Sequence); !reflect.DeepEqual(counts, want) {
			t.Fatalf("allocation %s: counts = %v, want %v", chosen, counts, want)
		}
		if err := VerifyCompleteCycle(n, c.Sequence); err != nil {
			t.Fatalf("cycle invalid: %v", err)
		}
	}
	// The paper's own sequences replay successfully too.
	t1, _ := n.TransitionByName("t1")
	t2, _ := n.TransitionByName("t2")
	t3, _ := n.TransitionByName("t3")
	t4, _ := n.TransitionByName("t4")
	t5, _ := n.TransitionByName("t5")
	for _, seq := range [][]petri.Transition{
		{t1, t2, t1, t2, t4},
		{t1, t3, t5, t5},
	} {
		if err := VerifyCompleteCycle(n, seq); err != nil {
			t.Fatalf("paper sequence %v: %v", names(n, seq), err)
		}
	}
}

func TestFigure5Schedule(t *testing.T) {
	n := figures.Figure5()
	s := mustSolve(t, n)
	if len(s.Cycles) != 2 {
		t.Fatalf("cycles = %d, want 2", len(s.Cycles))
	}
	// Paper's valid schedule: {(t1 t2 t4 t4 t6 t6 t6 t6 t8 t9 t6),
	// (t1 t3 t5 t7 t7 t8 t9 t6)}. Check firing counts per reduction.
	wantCounts := map[string][]int{
		//       t1 t2 t3 t4 t5 t6 t7 t8 t9
		"t2": {1, 1, 0, 2, 0, 5, 0, 1, 1},
		"t3": {1, 0, 1, 0, 1, 1, 2, 1, 1},
	}
	for _, c := range s.Cycles {
		chosen := n.TransitionName(c.Allocation.Chosen[0])
		if counts := n.FiringCount(c.Sequence); !reflect.DeepEqual(counts, wantCounts[chosen]) {
			t.Fatalf("allocation %s: counts = %v, want %v", chosen, counts, wantCounts[chosen])
		}
		if err := VerifyCompleteCycle(n, c.Sequence); err != nil {
			t.Fatalf("cycle invalid: %v", err)
		}
	}
	// And the paper's printed sequences are themselves valid cycles.
	seqByName := func(namesList ...string) []petri.Transition {
		out := make([]petri.Transition, len(namesList))
		for i, nm := range namesList {
			tr, ok := n.TransitionByName(nm)
			if !ok {
				t.Fatalf("unknown transition %q", nm)
			}
			out[i] = tr
		}
		return out
	}
	for _, seq := range [][]petri.Transition{
		seqByName("t1", "t2", "t4", "t4", "t6", "t6", "t6", "t6", "t8", "t9", "t6"),
		seqByName("t1", "t3", "t5", "t7", "t7", "t8", "t9", "t6"),
	} {
		if err := VerifyCompleteCycle(n, seq); err != nil {
			t.Fatalf("paper sequence %v: %v", names(n, seq), err)
		}
	}
}

func TestFigure5ReductionR1(t *testing.T) {
	n := figures.Figure5()
	allocs, err := EnumerateAllocations(n, 0x1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(allocs) != 2 {
		t.Fatalf("allocations = %d, want 2", len(allocs))
	}
	var r1 *Reduction
	for _, a := range allocs {
		if n.TransitionName(a.Chosen[0]) == "t2" {
			r1 = Reduce(n, a)
		}
	}
	if r1 == nil {
		t.Fatal("allocation choosing t2 not found")
	}
	// Figure 6: R1 keeps {t1,t2,t4,t6,t8,t9} and {p1,p2,p4,p7}.
	wantT := []string{"t1", "t2", "t4", "t6", "t8", "t9"}
	if got := r1.KeptTransitionNames(n); !reflect.DeepEqual(got, wantT) {
		t.Fatalf("R1 transitions = %v, want %v", got, wantT)
	}
	wantP := []string{"p1", "p2", "p4", "p7"}
	if got := r1.KeptPlaceNames(n); !reflect.DeepEqual(got, wantP) {
		t.Fatalf("R1 places = %v, want %v", got, wantP)
	}
	if !r1.Subnet().IsConflictFree() {
		t.Fatal("T-reduction must be conflict-free")
	}
	// T-invariants of R1 (paper): (1,1,0,2,0,4,0,0,0) and
	// (0,0,0,0,0,1,0,1,1) — in R1's index space {t1,t2,t4,t6,t8,t9}:
	// (1,1,2,4,0,0) and (0,0,0,1,1,1).
	report := CheckReduction(n, r1, Options{})
	if !report.Schedulable {
		t.Fatalf("R1 must be schedulable: %s", report.FailReason)
	}
	if len(report.Invariants) != 2 {
		t.Fatalf("R1 invariants = %v, want 2", report.Invariants)
	}
	got := map[string]bool{}
	for _, ti := range report.Invariants {
		got[ti.String()] = true
	}
	if !got["[1 1 2 4 0 0]"] || !got["[0 0 0 1 1 1]"] {
		t.Fatalf("R1 invariants = %v, want paper's two invariants", got)
	}
}

func TestFigure6ReductionSteps(t *testing.T) {
	n := figures.Figure5()
	allocs, _ := EnumerateAllocations(n, 0x1000)
	var r1 *Reduction
	for _, a := range allocs {
		if n.TransitionName(a.Chosen[0]) == "t2" {
			r1 = Reduce(n, a)
		}
	}
	// Figure 6's removal order: t3 (unallocated), p3, t5, p5, p6, t7.
	want := map[string]bool{
		"remove t3 (unallocated)": true, "remove p3": true,
		"remove t5 (no input place)": true, "remove p5": true,
		"remove p6": true, "remove t7 (no input place)": true,
		"remove t7 (all inputs are source places)": true,
	}
	steps := r1.Steps()
	if len(steps) != 6 {
		t.Fatalf("steps = %v, want 6 removals", steps)
	}
	if steps[0] != "remove t3 (unallocated)" || steps[1] != "remove p3" {
		t.Fatalf("first steps = %v", steps[:2])
	}
	for _, s := range steps {
		if !want[s] {
			t.Fatalf("unexpected step %q in %v", s, steps)
		}
	}
}

func TestFigure7NotSchedulable(t *testing.T) {
	n := figures.Figure7()
	_, err := Solve(n, Options{})
	var nse *NotSchedulableError
	if !errors.As(err, &nse) {
		t.Fatalf("err = %v, want NotSchedulableError", err)
	}
	if nse.Report.Consistent {
		t.Fatal("figure 7 reductions must be inconsistent (paper: both R1 and R2)")
	}
}

func TestFigure7Reductions(t *testing.T) {
	n := figures.Figure7()
	allocs, _ := EnumerateAllocations(n, 0x1000)
	if len(allocs) != 2 {
		t.Fatalf("allocations = %d", len(allocs))
	}
	for _, a := range allocs {
		red := Reduce(n, a)
		chosen := n.TransitionName(a.Chosen[0])
		gotT := sortedNames(red.KeptTransitionNames(n))
		gotP := sortedNames(red.KeptPlaceNames(n))
		switch chosen {
		case "t2": // Paper's R1: t1 p1 t2 p2 t4 p4 p5 t6
			if want := []string{"t1", "t2", "t4", "t6"}; !reflect.DeepEqual(gotT, want) {
				t.Fatalf("R1 transitions = %v, want %v", gotT, want)
			}
			if want := []string{"p1", "p2", "p4", "p5"}; !reflect.DeepEqual(gotP, want) {
				t.Fatalf("R1 places = %v, want %v", gotP, want)
			}
		case "t3": // Paper's R2: t1 p1 t3 p3 t5 p4 p5 p6 t6 t7
			if want := []string{"t1", "t3", "t5", "t6", "t7"}; !reflect.DeepEqual(gotT, want) {
				t.Fatalf("R2 transitions = %v, want %v", gotT, want)
			}
			if want := []string{"p1", "p3", "p4", "p5", "p6"}; !reflect.DeepEqual(gotP, want) {
				t.Fatalf("R2 places = %v, want %v", gotP, want)
			}
		}
		report := CheckReduction(n, red, Options{})
		if report.Schedulable || report.Consistent {
			t.Fatalf("reduction %s must be inconsistent: %+v", chosen, report)
		}
	}
}

// partialCoverNet is inconsistent under both allocations, yet each
// reduction keeps the T-invariant s2 y, so its diagnosis names only some of
// the kept transitions. Each reduction removes a transition (b or a)
// indexed before s2 and y, so the covered transitions have different
// reduction and parent indices: a witness list built in the wrong index
// space names different transitions.
func partialCoverNet() *petri.Net {
	b := petri.NewBuilder("partial")
	ta := b.Transition("a")
	x := b.Transition("x")
	s1 := b.Transition("s1")
	tb := b.Transition("b")
	j := b.Transition("j")
	s2 := b.Transition("s2")
	y := b.Transition("y")
	qa := b.Place("qa")
	qj := b.Place("qj")
	pc := b.Place("pc")
	qb := b.Place("qb")
	r := b.Place("r")
	b.ArcTP(s1, pc)
	b.Arc(pc, ta)
	b.Arc(pc, tb)
	b.ArcTP(ta, qa)
	b.Arc(qa, x)
	b.ArcTP(ta, qj)
	b.Arc(qj, j)
	b.ArcTP(tb, qb)
	b.Arc(qb, j)
	b.ArcTP(s2, r)
	b.Arc(r, y)
	return b.Build()
}

// chainNet is the one-place chain p → t: t can never fire, so its only
// reduction has no T-invariant and t is the inconsistency witness.
func chainNet() *petri.Net {
	b := petri.NewBuilder("inconsistent")
	p := b.Place("p")
	tr := b.Transition("t")
	b.Arc(p, tr)
	return b.Build()
}

// TestInconsistencyDiagnosisGolden pins each inconsistent reduction's
// witnesses (Uncovered, in parent transitions), its invariants (in
// reduction indices) and its full diagnosis, on the sweep's kept-set path
// and on the from-scratch path, and pins what Solve reports.
func TestInconsistencyDiagnosisGolden(t *testing.T) {
	type golden struct {
		invariants [][]int
		uncovered  []string
		reason     string
	}
	// Recorded from the subnet-based check.
	for _, tc := range []struct {
		n    *petri.Net
		want map[string]golden // by chosen transitions
		diag string            // the reduction Solve diagnoses
	}{
		{partialCoverNet(), map[string]golden{
			"a": {[][]int{{0, 0, 0, 0, 1, 1}}, []string{"a", "x", "s1", "j"},
				`T-reduction "partial/pc→a" is not consistent: transitions {a, x, s1, j} are in no T-invariant`},
			"b": {[][]int{{0, 0, 0, 1, 1}}, []string{"s1", "b", "j"},
				`T-reduction "partial/pc→b" is not consistent: transitions {s1, b, j} are in no T-invariant`},
		}, "a"},
		{chainNet(), map[string]golden{
			"": {nil, []string{"t"},
				`T-reduction "inconsistent/" is not consistent: transitions {t} are in no T-invariant`},
		}, ""},
	} {
		n := tc.n
		check := func(what string, r *ReductionReport, w golden) {
			t.Helper()
			var invs [][]int
			for _, ti := range r.Invariants {
				invs = append(invs, ti.Counts)
			}
			if r.Consistent || r.Schedulable {
				t.Fatalf("%s: reduction must be inconsistent", what)
			}
			if !reflect.DeepEqual(invs, w.invariants) {
				t.Fatalf("%s: Invariants = %v, want %v", what, invs, w.invariants)
			}
			if got := names(n, r.Uncovered); !reflect.DeepEqual(got, w.uncovered) {
				t.Fatalf("%s: Uncovered = %v, want %v", what, got, w.uncovered)
			}
			if r.FailReason != w.reason {
				t.Fatalf("%s: FailReason\n got %q\nwant %q", what, r.FailReason, w.reason)
			}
		}
		parentTIs, err := invariant.TInvariants(n, invariant.Options{})
		if err != nil {
			t.Fatal(err)
		}
		reds, err := EnumerateDistinctReductions(n, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(reds) != len(tc.want) {
			t.Fatalf("%s: %d reductions, want %d", n.Name(), len(reds), len(tc.want))
		}
		for _, red := range reds {
			chosen := strings.Join(names(n, red.Allocation.Chosen), " ")
			w, ok := tc.want[chosen]
			if !ok {
				t.Fatalf("%s: unexpected allocation %q", n.Name(), chosen)
			}
			for _, aids := range []checkAids{{}, {parentTIs: parentTIs, haveParent: true}} {
				what := fmt.Sprintf("%s/%s parent=%v", n.Name(), chosen, aids.haveParent)
				check(what, checkReduction(n, red, Options{}, aids), w)
			}
		}
		for _, opt := range []Options{{}, {KeepDuplicateReductions: true}} {
			_, err := Solve(n, opt)
			var nse *NotSchedulableError
			if !errors.As(err, &nse) {
				t.Fatalf("%s %+v: err = %v, want NotSchedulableError", n.Name(), opt, err)
			}
			check(fmt.Sprintf("%s Solve %+v", n.Name(), opt), nse.Report, tc.want[tc.diag])
		}
	}
}

func TestFigure2StaticScheduleViaQSS(t *testing.T) {
	// A marked graph has a single (empty-choice) allocation; QSS
	// degenerates to static scheduling with cycle counts (4,2,1).
	n := figures.Figure2()
	s := mustSolve(t, n)
	if len(s.Cycles) != 1 {
		t.Fatalf("cycles = %d", len(s.Cycles))
	}
	if counts, want := n.FiringCount(s.Cycles[0].Sequence), []int{4, 2, 1}; !reflect.DeepEqual(counts, want) {
		t.Fatalf("counts = %v, want %v", counts, want)
	}
}

func TestNonFreeChoiceRejected(t *testing.T) {
	if _, err := Solve(figures.Figure1b(), Options{}); !errors.Is(err, ErrNotFreeChoice) {
		t.Fatalf("err = %v, want not-free-choice", err)
	}
}

func TestBufferBounds(t *testing.T) {
	n := figures.Figure4()
	s := mustSolve(t, n)
	bounds, err := s.BufferBounds()
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := n.PlaceByName("p2")
	p3, _ := n.PlaceByName("p3")
	if bounds[p2] != 2 {
		t.Fatalf("bound(p2) = %d, want 2 (t4 waits for two tokens)", bounds[p2])
	}
	if bounds[p3] != 2 {
		t.Fatalf("bound(p3) = %d, want 2 (t3 produces two at once)", bounds[p3])
	}
}

func TestCycleStrings(t *testing.T) {
	s := mustSolve(t, figures.Figure3a())
	strs := s.CycleStrings()
	if len(strs) != 2 || len(strs[0]) != 3 {
		t.Fatalf("CycleStrings = %v", strs)
	}
}

func TestAllocationCap(t *testing.T) {
	n := figures.Figure3a()
	if _, err := Solve(n, Options{MaxAllocations: 1}); !errors.Is(err, ErrTooManyAllocations) {
		t.Fatalf("expected allocation cap error")
	}
}

func TestKeepDuplicateReductions(t *testing.T) {
	// Figure 3a's two allocations yield two distinct reductions; with a
	// net whose second choice is downstream-equivalent the dedup matters —
	// here we simply check the option keeps the same two cycles.
	s, err := Solve(figures.Figure3a(), Options{KeepDuplicateReductions: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Cycles) != 2 {
		t.Fatalf("cycles = %d", len(s.Cycles))
	}
}

func TestThreeWayChoice(t *testing.T) {
	// A 3-alternative choice: three reductions, three cycles, switch-style
	// codegen downstream; the schedule covers each alternative exactly
	// once.
	b := petri.NewBuilder("tri")
	src := b.Transition("src")
	p := b.Place("p")
	b.ArcTP(src, p)
	for _, nm := range []string{"x", "y", "z"} {
		alt := b.Transition(nm)
		b.Arc(p, alt)
		q := b.Place("q_" + nm)
		sink := b.Transition("out_" + nm)
		b.Chain(alt, q, sink)
	}
	n := b.Build()
	s := mustSolve(t, n)
	if len(s.Cycles) != 3 || s.AllocationCount != 3 {
		t.Fatalf("cycles = %d, allocations = %d", len(s.Cycles), s.AllocationCount)
	}
	seen := map[string]bool{}
	for _, c := range s.Cycles {
		counts := n.FiringCount(c.Sequence)
		for _, nm := range []string{"x", "y", "z"} {
			tr, _ := n.TransitionByName(nm)
			if counts[tr] == 1 {
				seen[nm] = true
			}
		}
	}
	if len(seen) != 3 {
		t.Fatalf("alternatives covered: %v", seen)
	}
	tree := s.DecisionTree()
	if len(tree.Children) != 3 {
		t.Fatalf("tree children = %d", len(tree.Children))
	}
}

func TestNestedChoices(t *testing.T) {
	// Choice under a choice: 3 leaf behaviours, 3 distinct reductions.
	b := petri.NewBuilder("nest")
	src := b.Transition("src")
	p := b.Place("p")
	b.ArcTP(src, p)
	a := b.Transition("a")
	c := b.Transition("c")
	b.Arc(p, a)
	b.Arc(p, c)
	q := b.Place("q")
	b.ArcTP(a, q)
	a1 := b.Transition("a1")
	a2 := b.Transition("a2")
	b.Arc(q, a1)
	b.Arc(q, a2)
	n := b.Build()
	s := mustSolve(t, n)
	if len(s.Cycles) != 3 {
		t.Fatalf("cycles = %d, want 3 (a→a1, a→a2, c)", len(s.Cycles))
	}
	if s.AllocationCount != 4 {
		t.Fatalf("allocations = %d, want 2×2", s.AllocationCount)
	}
}

// TestSweepStopsAtFirstFailure pins the sweep's early return: by Theorem
// 3.1 the first reduction that fails settles the verdict, so the sweep
// checks reductions only up to it (one core/check span each) and
// diagnoses that one. The diagnoses are the ones a sweep that checks
// every reduction reports.
func TestSweepStopsAtFirstFailure(t *testing.T) {
	for _, tc := range []struct {
		n          *petri.Net
		wantChecks int64
		wantErr    string
	}{
		{figures.Figure1a(), 1, `core: net is not quasi-statically schedulable: T-reduction "figure1a/p→t1" is not consistent: transitions {t1} are in no T-invariant`},
		{figures.Figure3b(), 1, `core: net is not quasi-statically schedulable: T-reduction "figure3b/p1→t2" is not consistent: transitions {t1, t2, t4} are in no T-invariant`},
		{figures.Figure7(), 1, `core: net is not quasi-statically schedulable: T-reduction "figure7/p1→t2" is not consistent: transitions {t1, t2, t4, t6} are in no T-invariant`},
		{netgen.RandomNet(6, netgen.DefaultConfig()), 3, `core: net is not quasi-statically schedulable: T-reduction "rand6_sync/p2→t3, p12→t13, p20→t21, p22→t25" is not consistent: transitions {src15, t17, t19, t21, t25, sync_join} are in no T-invariant`},
	} {
		n := tc.n
		// The first failing reduction in sweep order, found by checking
		// each reduction on its own.
		reds, err := EnumerateDistinctReductions(n, 0)
		if err != nil {
			t.Fatalf("%s: %v", n.Name(), err)
		}
		first := -1
		for i, red := range reds {
			if !CheckReduction(n, red, Options{}).Schedulable {
				first = i
				break
			}
		}
		if first < 0 {
			t.Fatalf("%s: no reduction fails", n.Name())
		}
		tr := trace.New()
		_, err = Solve(n, Options{Trace: tr})
		var nse *NotSchedulableError
		if !errors.As(err, &nse) {
			t.Fatalf("%s: err = %v, want NotSchedulableError", n.Name(), err)
		}
		if err.Error() != tc.wantErr {
			t.Errorf("%s: diagnosis\n got %q\nwant %q", n.Name(), err, tc.wantErr)
		}
		check, _ := tr.Report().Phase("core/check")
		if check.Count != int64(first+1) || check.Count != tc.wantChecks {
			t.Errorf("%s: %d core/check spans, want %d (first failure at position %d of %d)",
				n.Name(), check.Count, tc.wantChecks, first, len(reds))
		}
	}
}
