package core

import (
	"errors"
	"fmt"
	"strings"

	"fcpn/internal/invariant"
	"fcpn/internal/petri"
)

// ReductionReport is the result of the static-schedulability check of one
// T-reduction (Definition 3.5).
type ReductionReport struct {
	Reduction *Reduction
	// Invariants are the minimal T-semiflows of the reduced net, in
	// reduction transition indices.
	Invariants []invariant.TInvariant
	// Consistent reports whether every transition of the reduction is
	// covered by some T-invariant (Definition 2.1 restricted to the
	// reduction).
	Consistent bool
	// Uncovered lists the reduction's transitions in no invariant, as
	// parent-net transitions (the inconsistency witnesses).
	Uncovered []petri.Transition
	// SourcesCovered reports whether every surviving source transition of
	// the parent net appears in some invariant (Definition 3.5(2)).
	SourcesCovered bool
	// MissingSources lists surviving sources in no invariant.
	MissingSources []petri.Transition
	// CoveringCounts is the firing-count vector (reduction indices) of the
	// non-negative invariant combination chosen to cover every transition.
	CoveringCounts []int
	// Cycle is the deadlock-free finite complete cycle realising
	// CoveringCounts, mapped back to parent-net transitions. Nil when the
	// reduction is not schedulable.
	Cycle []petri.Transition
	// Schedulable is the verdict; FailReason explains a false verdict.
	Schedulable bool
	FailReason  string
	// Cause is the underlying error behind a false verdict, when there is
	// one: a budget trip (wrapping ErrBudgetExceeded), a deadlock
	// (wrapping ErrCycleDeadlock), or a cancellation (wrapping the
	// context cause). NotSchedulableError unwraps to it, keeping the
	// typed error chain intact through the diagnosis.
	Cause error
}

// CheckReduction runs the three-part schedulability test of Definition 3.5
// on a T-reduction: (1) consistency, (2) source coverage, (3) existence of
// a deadlock-free firing sequence realising a covering T-invariant and
// returning to the initial marking.
func CheckReduction(n *petri.Net, red *Reduction, opt Options) *ReductionReport {
	return checkReduction(n, red, opt, checkAids{})
}

// checkAids carries the work a solver sweep can share into one reduction's
// check. The zero value means "from scratch" — exactly CheckReduction.
type checkAids struct {
	// parentTIs are the parent net's minimal T-semiflows; when haveParent
	// is set the check first derives the subnet's invariants by exact
	// restriction (invariant.RestrictTInvariants), falling back to the
	// from-scratch Farkas run when the reduction's shape makes restriction
	// inexact.
	parentTIs  []invariant.TInvariant
	haveParent bool
}

// subnetInvariants resolves a reduction's minimal T-semiflows: restricted
// from the parent when the reduction is restriction-exact, from scratch
// otherwise. Both produce identical output (the byte-identity invariant of
// the sweep); the core/semiflow/* counters record which path ran so the
// restriction fallback rate stays visible in traces.
func subnetInvariants(n *petri.Net, red *Reduction, opt Options, aids checkAids) ([]invariant.TInvariant, error) {
	if aids.haveParent {
		if tis, ok := invariant.RestrictTInvariants(n, red.Subnet(), aids.parentTIs); ok {
			opt.Trace.Add("core/semiflow/restricted", 1)
			return tis, nil
		}
		opt.Trace.Add("core/semiflow/full", 1)
	}
	// Subnet T-semiflows are computed directly, bypassing opt.Semiflows:
	// keying the content-addressed cache costs a canonical-form computation
	// per fresh reduction subnet, and phase traces showed that costing more
	// than the (int64 fast path) Farkas runs it saves. Whole-net Solve
	// results are memoised one level up by internal/engine, so warm
	// analyses never reach this code anyway.
	return invariant.TInvariants(red.Subnet().Net, invariant.Options{MaxRows: opt.MaxRows, Trace: opt.Trace})
}

func checkReduction(n *petri.Net, red *Reduction, opt Options, aids checkAids) *ReductionReport {
	report := &ReductionReport{Reduction: red}

	// Deadline checkpoint: once the job is cancelled the remaining checks
	// of the sweep degrade to stubs — before the subnet is even
	// materialised; SolveReductions surfaces the cancellation instead of
	// any stub verdict.
	if err := opt.cancelled(); err != nil {
		report.FailReason = err.Error()
		report.Cause = err
		return report
	}
	rsub := red.Subnet()
	sub := rsub.Net

	tis, err := subnetInvariants(n, red, opt, aids)
	if err != nil {
		report.FailReason = fmt.Sprintf("invariant computation failed: %v", err)
		report.Cause = err
		return report
	}
	report.Invariants = tis

	// (1) Consistency of the reduction.
	for _, t := range invariant.UncoveredTransitions(sub, tis) {
		report.Uncovered = append(report.Uncovered, rsub.ToParentTransition(t))
	}
	report.Consistent = len(report.Uncovered) == 0 && sub.NumTransitions() > 0

	// (2) Every surviving source transition of N in some invariant.
	report.SourcesCovered = true
	for _, src := range n.SourceTransitions() {
		st, kept := rsub.FromParentTransition(src)
		if !kept {
			// The reduction algorithm never removes sources; a missing
			// source would be a structural anomaly worth reporting.
			report.SourcesCovered = false
			report.MissingSources = append(report.MissingSources, src)
			continue
		}
		found := false
		for _, ti := range tis {
			if ti.Contains(st) {
				found = true
				break
			}
		}
		if !found {
			report.SourcesCovered = false
			report.MissingSources = append(report.MissingSources, src)
		}
	}

	if !report.Consistent {
		report.FailReason = fmt.Sprintf("T-reduction %q is not consistent: transitions %s are in no T-invariant",
			sub.Name(), transitionNames(n, report.Uncovered))
		return report
	}
	if !report.SourcesCovered {
		report.FailReason = fmt.Sprintf("T-reduction %q covers no T-invariant for source transitions %s",
			sub.Name(), transitionNames(n, report.MissingSources))
		return report
	}

	// Covering combination: a small set of minimal invariants whose union
	// of supports covers every transition of the reduction (greedy set
	// cover; consistency guarantees the full set covers, so the greedy
	// loop always completes). An incomplete cover is still surfaced as a
	// non-schedulable verdict rather than silently handing a partial
	// count vector to the cycle search — findCompleteCycle only certifies
	// the counts it is given, so a partial vector could otherwise yield a
	// "schedulable" verdict from a cycle missing transitions.
	counts, uncoveredByGreedy := coveringCombination(tis, sub.NumTransitions())
	if len(uncoveredByGreedy) > 0 {
		for _, t := range uncoveredByGreedy {
			report.Uncovered = append(report.Uncovered, rsub.ToParentTransition(t))
		}
		report.FailReason = fmt.Sprintf("T-reduction %q has no covering T-invariant combination: transitions %s stay uncovered",
			sub.Name(), transitionNames(n, report.Uncovered))
		report.Cause = ErrIncompleteCover
		return report
	}
	report.CoveringCounts = counts

	// (3) Deadlock-free simulation realising the covering counts and
	// returning to the initial marking.
	sp := opt.Trace.StartDetail("core/cycle")
	seq, simErr := findCompleteCycle(opt.Ctx, sub, report.CoveringCounts, opt.maxCycleLength())
	sp.End()
	if simErr != nil {
		report.FailReason = fmt.Sprintf("T-reduction %q deadlocks: %v", sub.Name(), simErr)
		report.Cause = simErr
		return report
	}
	report.Cycle = rsub.MapSequenceToParent(seq)
	report.Schedulable = true
	return report
}

// ErrIncompleteCover is the typed cause of a report whose greedy covering
// combination could not reach every transition. It is unreachable through
// Solve — the consistency check runs first, and a consistent invariant set
// covers by definition — but the covering step no longer trusts that:
// handed a non-covering set it reports the uncovered transitions instead
// of certifying a partial cycle (regression-tested directly).
var ErrIncompleteCover = errors.New("core: no covering T-invariant combination")

// coveringCombination greedily picks minimal invariants until every
// transition is covered, then sums their counts. uncovered lists the
// transitions (in local indices) no invariant could reach; it is empty
// whenever the invariant set is consistent, and the caller must treat a
// non-empty result as a failed check.
func coveringCombination(tis []invariant.TInvariant, numT int) (counts []int, uncovered []petri.Transition) {
	covered := make([]bool, numT)
	counts = make([]int, numT)
	remaining := numT
	for remaining > 0 {
		best, bestGain := -1, 0
		for i, ti := range tis {
			gain := 0
			for t, c := range ti.Counts {
				if c > 0 && !covered[t] {
					gain++
				}
			}
			if gain > bestGain {
				best, bestGain = i, gain
			}
		}
		if best < 0 {
			// No invariant reaches the remaining transitions: the set does
			// not cover. Report instead of returning a partial vector.
			for t, c := range covered {
				if !c {
					uncovered = append(uncovered, petri.Transition(t))
				}
			}
			return counts, uncovered
		}
		for t, c := range tis[best].Counts {
			counts[t] += c
			if c > 0 && !covered[t] {
				covered[t] = true
				remaining--
			}
		}
	}
	return counts, nil
}

func transitionNames(n *petri.Net, ts []petri.Transition) string {
	names := make([]string, len(ts))
	for i, t := range ts {
		names[i] = n.TransitionName(t)
	}
	return "{" + strings.Join(names, ", ") + "}"
}
