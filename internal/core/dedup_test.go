package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"math"
	"strings"
	"testing"

	"fcpn/internal/figures"
	"fcpn/internal/invariant"
	"fcpn/internal/netgen"
	"fcpn/internal/petri"
)

// distillOutcome flattens everything observable about a (Schedule, error)
// solver outcome — cycles, per-report invariants, diagnosis — into a
// comparable string, so the equivalence tests below can assert that two
// sweep configurations produce *identical* results, not merely equivalent
// ones.
func distillOutcome(s *Schedule, err error) string {
	if err != nil {
		var nse *NotSchedulableError
		if errors.As(err, &nse) {
			r := nse.Report
			return fmt.Sprintf("notsched consistent=%v uncovered=%v srcs=%v missing=%v reason=%q",
				r.Consistent, r.Uncovered, r.SourcesCovered, r.MissingSources, r.FailReason)
		}
		return "err " + err.Error()
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "alloc=%d sat=%v\n", s.AllocationCount, s.AllocationCountSaturated)
	for i, c := range s.Cycles {
		r := s.Reports[i]
		fmt.Fprintf(&sb, "cycle %v counts=%v inv=%v cover=%v\n",
			s.Net.SequenceNames(c.Sequence), c.Counts, r.Invariants, r.CoveringCounts)
	}
	return sb.String()
}

// corpus returns the nets the equivalence tests sweep: every paper figure
// plus seeded netgen nets (both the schedulable-by-construction pipelines
// and the unconstrained generator, which yields non-schedulable nets too).
func equivalenceCorpus(t *testing.T) map[string]*petri.Net {
	t.Helper()
	nets := map[string]*petri.Net{}
	for name, n := range figures.All() {
		if n.Validate() == nil {
			nets[name] = n
		}
	}
	for seed := uint64(1); seed <= 12; seed++ {
		nets[fmt.Sprintf("pipe%d", seed)] = netgen.RandomSchedulablePipeline(seed, netgen.DefaultConfig())
		if n := netgen.RandomNet(seed, netgen.DefaultConfig()); n.Validate() == nil {
			nets[fmt.Sprintf("rand%d", seed)] = n
		}
	}
	return nets
}

// TestDedupMatchesFromScratch holds Solve's sweep — the distinct-reduction
// search plus parent-semiflow restriction — to the paper's reference sweep
// (KeepDuplicateReductions: one reduction per allocation, every check from
// scratch) on every corpus net small enough to enumerate its allocations.
func TestDedupMatchesFromScratch(t *testing.T) {
	compared := 0
	for name, n := range equivalenceCorpus(t) {
		allocs, err := EnumerateAllocations(n, 4096)
		if err != nil {
			continue
		}
		compared++
		// The lazy search must find exactly the transition sets that
		// reducing every allocation finds, each once.
		want := map[string]bool{}
		for _, a := range allocs {
			want[Reduce(n, a).TransitionSetKey()] = true
		}
		reds, err := EnumerateDistinctReductions(n, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := map[string]bool{}
		for _, r := range reds {
			got[r.TransitionSetKey()] = true
		}
		if len(got) != len(reds) || !maps.Equal(got, want) {
			t.Errorf("%s: distinct search found %d reductions (%d keys), reference %d keys",
				name, len(reds), len(got), len(want))
		}
		// Theorem 3.1 needs one verdict per distinct reduction, so the
		// verdict cannot depend on which sweep produced it.
		_, err = Solve(n, Options{})
		_, refErr := Solve(n, Options{KeepDuplicateReductions: true})
		if (err == nil) != (refErr == nil) {
			t.Errorf("%s: Solve err=%v, reference sweep err=%v", name, err, refErr)
		}
	}
	if compared < 20 {
		t.Fatalf("only %d corpus nets compared against the reference sweep", compared)
	}
}

func TestSweepPathsByteIdentical(t *testing.T) {
	// The schedulability sweep resolves each reduction's invariants either
	// by restricting the parent's semiflows (parent aids present) or by a
	// from-scratch Farkas run, and the choice must be invisible in the
	// output. Running the same reduction set through the sweep with and
	// without parent aids must produce byte-identical schedules, including
	// every report's invariant set.
	for name, n := range equivalenceCorpus(t) {
		reds, err := EnumerateDistinctReductions(n, 0)
		if err != nil {
			continue
		}
		parentTIs, perr := invariant.TInvariants(n, invariant.Options{})
		if perr != nil {
			continue
		}
		noAids := distillOutcome(solveReductions(n, reds, Options{}, checkAids{}))
		withAids := distillOutcome(solveReductions(n, reds, Options{}, checkAids{parentTIs: parentTIs, haveParent: true}))
		if noAids != withAids {
			t.Errorf("%s: sweep output depends on the invariant path:\nno aids: %s\n   aids: %s", name, noAids, withAids)
		}
		parallel := distillOutcome(solveReductions(n, reds, Options{Workers: 4}, checkAids{parentTIs: parentTIs, haveParent: true}))
		if parallel != withAids {
			t.Errorf("%s: parallel sweep diverges from serial:\n got: %s\nwant: %s", name, parallel, withAids)
		}
	}
}

// chainOfChoices builds a net with k independent binary free-choice
// clusters (source → choice place → {a_i, b_i} → sink chains), so the
// allocation product and the distinct-reduction count are both exactly 2^k.
func chainOfChoices(k int) *petri.Net {
	b := petri.NewBuilder("choices")
	for i := 0; i < k; i++ {
		src := b.Transition(fmt.Sprintf("src%d", i))
		p := b.Place(fmt.Sprintf("p%d", i))
		b.ArcTP(src, p)
		for _, nm := range []string{"a", "b"} {
			alt := b.Transition(fmt.Sprintf("%s%d", nm, i))
			b.Arc(p, alt)
		}
	}
	return b.Build()
}

func TestEnumerateAllocationsExactBoundary(t *testing.T) {
	// 3 binary clusters: exactly 8 allocations. The cap must admit
	// max == 8 and reject max == 7 — the old guard's off-by-one
	// (max/len + 1) made the boundary imprecise.
	n := chainOfChoices(3)
	allocs, err := EnumerateAllocations(n, 8)
	if err != nil || len(allocs) != 8 {
		t.Fatalf("max=8: len=%d err=%v, want 8/nil", len(allocs), err)
	}
	if _, err := EnumerateAllocations(n, 7); !errors.Is(err, ErrTooManyAllocations) {
		t.Fatalf("max=7: err=%v, want ErrTooManyAllocations", err)
	}
}

func TestEnumerateDistinctReductionsExactBoundary(t *testing.T) {
	n := chainOfChoices(3)
	reds, err := EnumerateDistinctReductions(n, 8)
	if err != nil || len(reds) != 8 {
		t.Fatalf("max=8: len=%d err=%v, want 8/nil", len(reds), err)
	}
	if _, err := EnumerateDistinctReductions(n, 7); !errors.Is(err, ErrTooManyAllocations) {
		t.Fatalf("max=7: err=%v, want ErrTooManyAllocations", err)
	}
}

func TestCountAllocationsSaturates(t *testing.T) {
	// 63 binary clusters: 2^63 > math.MaxInt on 64-bit (and far beyond it
	// on 32-bit GOARCH, where the old 1<<62 constant did not even fit in
	// int). The count must saturate at math.MaxInt with the flag set.
	n := chainOfChoices(63)
	count, saturated := CountAllocationsSat(n)
	if !saturated || count != math.MaxInt {
		t.Fatalf("CountAllocationsSat = %d,%v, want math.MaxInt,true", count, saturated)
	}
	if CountAllocations(n) != math.MaxInt {
		t.Fatalf("CountAllocations must saturate at math.MaxInt")
	}
	small, sat := CountAllocationsSat(chainOfChoices(3))
	if sat || small != 8 {
		t.Fatalf("CountAllocationsSat(2^3) = %d,%v, want 8,false", small, sat)
	}
	// The saturation marker must survive serialisation so reports never
	// present the ceiling as a real count.
	ex := (&Schedule{Net: n, AllocationCount: count, AllocationCountSaturated: saturated}).Export()
	data, err := json.Marshal(ex)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"allocation_count_saturated":true`) {
		t.Fatalf("export JSON missing saturation marker: %s", data)
	}
	plain, err := json.Marshal((&Schedule{Net: chainOfChoices(1), AllocationCount: 2}).Export())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(plain), "allocation_count_saturated") {
		t.Fatalf("unsaturated export must omit the marker: %s", plain)
	}
}

func TestCoveringCombinationIncompleteCover(t *testing.T) {
	// Regression for the silent `break`: handed a non-covering invariant
	// set, the greedy cover used to return a partial count vector that the
	// cycle search could then "certify". It must now name the uncovered
	// transitions so checkReduction fails the reduction instead.
	tis := []invariant.TInvariant{{Counts: []int{2, 1, 0, 0}}}
	counts, uncovered := coveringCombination(tis, 4)
	if len(uncovered) != 2 || uncovered[0] != 2 || uncovered[1] != 3 {
		t.Fatalf("uncovered = %v, want [2 3]", uncovered)
	}
	if counts[0] != 2 || counts[1] != 1 {
		t.Fatalf("counts = %v, want the covered prefix summed", counts)
	}
	// A covering set keeps the happy path: no uncovered transitions.
	tis = append(tis, invariant.TInvariant{Counts: []int{0, 0, 1, 3}})
	if _, uncovered := coveringCombination(tis, 4); uncovered != nil {
		t.Fatalf("covering set reported uncovered = %v", uncovered)
	}
	// An empty invariant set leaves everything uncovered.
	if _, uncovered := coveringCombination(nil, 2); len(uncovered) != 2 {
		t.Fatalf("empty set: uncovered = %v, want both transitions", uncovered)
	}
}
