// Package core implements the paper's primary contribution: quasi-static
// scheduling (QSS) of Free-Choice Petri Nets (Sgroi, Lavagno, Watanabe,
// Sangiovanni-Vincentelli, DAC 1999).
//
// The pipeline follows Section 3 of the paper:
//
//  1. Enumerate the T-allocations of the net — one chosen successor per
//     free-choice place (allocation.go).
//  2. For each allocation, compute the T-reduction with the modified Hack
//     reduction algorithm; the result is a conflict-free subnet
//     (reduction.go). Reductions that coincide on their transition sets are
//     deduplicated.
//  3. Check that every T-reduction is statically schedulable
//     (Definition 3.5): consistent, covering every surviving source
//     transition with a T-invariant, and able to complete a deadlock-free
//     finite cycle returning to the initial marking (schedulability.go,
//     cycle.go).
//  4. If every reduction is schedulable, assemble the valid schedule: one
//     finite complete cycle per distinct T-reduction (Theorem 3.1).
//  5. Partition the transitions into tasks, one per group of
//     dependent-rate source transitions (tasks.go).
package core

import (
	"context"
	"errors"
	"fmt"

	"fcpn/internal/invariant"
	"fcpn/internal/petri"
	"fcpn/internal/trace"
)

// Options tunes the solver. The zero value uses sensible defaults.
type Options struct {
	// MaxAllocations caps the number of distinct T-reductions the sweep
	// enumerates (default 65536); under KeepDuplicateReductions it caps
	// the T-allocations instead, whose count is exponential in the number
	// of free-choice places. Nets beyond the cap return
	// ErrTooManyAllocations.
	MaxAllocations int
	// MaxRows caps the Farkas semiflow enumeration (default from
	// internal/invariant).
	MaxRows int
	// KeepDuplicateReductions disables T-reduction deduplication, keeping
	// one cycle per allocation even when reductions coincide. It also
	// disables the parent-semiflow restriction, so every check runs Farkas
	// from scratch: this is the paper's unoptimised sweep, the reference
	// the equivalence tests and ablation benchmarks compare against.
	KeepDuplicateReductions bool
	// Trace optionally records detail spans for the pipeline's inner
	// steps: "core/enumerate" (allocation/reduction enumeration),
	// "core/check" (one per reduction checked; the sweep stops at the
	// first failing one), "core/cycle" (finite-complete-cycle search) and
	// the invariant package's spans, plus the core/semiflow/* counters
	// (see docs/TRACING.md). Nil disables collection. Every span runs on
	// the calling goroutine: the solver starts none of its own.
	Trace *trace.Tracer
	// Ctx optionally cancels the pipeline's long loops — reduction
	// enumeration, the schedulability sweep, finite-complete-cycle
	// search, tradeoff exploration. When the context is done, the
	// pipeline returns an error wrapping context.Cause(Ctx) at the next
	// checkpoint (internal/engine uses this for per-job deadlines,
	// passing its typed ErrJobTimeout as the cause). Nil never cancels.
	Ctx context.Context
}

// cancelled returns nil while opt.Ctx is live and an error wrapping
// context.Cause once it is done. It is the single cancellation checkpoint
// of the pipeline, so every cancellation error is errors.Is-testable
// against the caller's cause.
func (o Options) cancelled() error {
	return ctxErr(o.Ctx)
}

func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		return fmt.Errorf("core: cancelled: %w", context.Cause(ctx))
	default:
		return nil
	}
}

func (o Options) maxAllocations() int {
	if o.MaxAllocations <= 0 {
		return 65536
	}
	return o.MaxAllocations
}

// maxCycleLength caps finite-complete-cycle realisation as a safety
// net: a cycle of more firings fails with ErrBudgetExceeded.
const maxCycleLength = 1 << 20

// ErrTooManyAllocations is returned when the choice structure exceeds
// Options.MaxAllocations: more distinct T-reductions, or more
// T-allocations under KeepDuplicateReductions, than the cap.
var ErrTooManyAllocations = errors.New("core: too many T-allocations")

// ErrBudgetExceeded is the typed cause for every structured step budget in
// the pipeline: cycle realisation past 2^20 firings, interpreter
// execution past its op budget (codegen.Interp.MaxOps), and robust
// simulation past its step budget all wrap it, so hostile or
// non-schedulable inputs terminate with errors.Is(err, ErrBudgetExceeded)
// instead of running away.
var ErrBudgetExceeded = errors.New("step budget exceeded")

// ErrNotFreeChoice wraps structural validation failures.
var ErrNotFreeChoice = petri.ErrNotFreeChoice

// NotSchedulableError reports why a net has no valid schedule: the first
// failing T-reduction and its diagnosis.
type NotSchedulableError struct {
	// Report is the failing reduction's schedulability report.
	Report *ReductionReport
}

func (e *NotSchedulableError) Error() string {
	return fmt.Sprintf("core: net is not quasi-statically schedulable: %s", e.Report.FailReason)
}

// Unwrap exposes the failing check's underlying error (the report's
// Cause), so budget trips and cancellations stay errors.Is-testable —
// errors.Is(err, ErrBudgetExceeded) holds for a cycle search that blew
// its firing cap even after the diagnosis is wrapped in this type.
func (e *NotSchedulableError) Unwrap() error { return e.Report.Cause }

// Cycle is one finite complete cycle of the valid schedule: a firing
// sequence over the original net that starts and ends at the initial
// marking and contains every transition of its T-reduction at least once.
// Its firing-count vector f(σ) is Net.FiringCount(Sequence), and the
// T-reduction it statically schedules is Reduce(Net, Allocation).
type Cycle struct {
	// Sequence is the firing order, in original-net transition indices.
	Sequence []petri.Transition
	// Allocation is the T-allocation whose reduction the cycle schedules.
	Allocation *Allocation
}

// Schedule is a valid schedule (Definition 3.1/3.2): a complete set of
// finite complete cycles, one per distinct T-reduction, guaranteeing
// bounded-memory infinite execution for every resolution of the choices.
type Schedule struct {
	Net    *petri.Net
	Cycles []Cycle
	// Reports holds one schedulability report per distinct T-reduction, in
	// the same order as Cycles.
	Reports []*ReductionReport
	// AllocationCount is the number of T-allocations enumerated before
	// deduplication, saturating at math.MaxInt; AllocationCountSaturated
	// marks the saturated case so serialised reports never present the
	// ceiling as a real count.
	AllocationCount          int
	AllocationCountSaturated bool
}

// Solve checks quasi-static schedulability of (net, initial marking) and
// returns the valid schedule. A *NotSchedulableError is returned when some
// T-reduction is not statically schedulable (Theorem 3.1: this is exactly
// when no valid schedule exists).
func Solve(n *petri.Net, opt Options) (*Schedule, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	sp := opt.Trace.StartDetail("core/enumerate")
	var reductions []*Reduction
	var err error
	if opt.KeepDuplicateReductions {
		// Ablation path: one reduction per allocation, duplicates kept.
		reductions, err = reduceEveryAllocation(n, opt)
	} else {
		// Output-sensitive search: only distinct T-reductions are built,
		// without touching the exponential allocation product.
		reductions, err = EnumerateDistinctReductionsCtx(opt.Ctx, n, opt.maxAllocations())
	}
	sp.End()
	if err != nil {
		return nil, err
	}
	return SolveReductions(n, reductions, opt)
}

// reduceEveryAllocation reduces the net under every T-allocation, in
// allocation order.
func reduceEveryAllocation(n *petri.Net, opt Options) ([]*Reduction, error) {
	allocs, err := EnumerateAllocations(n, opt.maxAllocations())
	if err != nil {
		return nil, err
	}
	reductions := make([]*Reduction, len(allocs))
	for i, a := range allocs {
		reductions[i] = Reduce(n, a)
	}
	return reductions, nil
}

// SolveReductions is the schedulability sweep of Solve over an
// already-enumerated reduction set. Callers that hold the reductions for
// other purposes (internal/engine enumerates them for its report) pass
// them here instead of paying a second enumeration inside Solve; the
// result is identical to Solve on the same net when the set is the one
// EnumerateDistinctReductions produces.
func SolveReductions(n *petri.Net, reductions []*Reduction, opt Options) (*Schedule, error) {
	if !opt.KeepDuplicateReductions && len(reductions) > 0 {
		// The parent's minimal T-semiflows are computed once per sweep and
		// restricted to each reduction (restriction beats a from-scratch
		// Farkas run per reduction). A failed computation (e.g.
		// invariant.ErrTooComplex) only disables the sharing: every check
		// then runs from scratch.
		if parentTIs, err := invariant.TInvariants(n, invariant.Options{MaxRows: opt.MaxRows, Trace: opt.Trace}); err == nil {
			return SolveReductionsWithSemiflows(n, reductions, parentTIs, opt)
		}
	}
	return solveReductions(n, reductions, opt, checkAids{})
}

// SolveReductionsWithSemiflows is SolveReductions given the parent net's
// minimal T-semiflows, which must be what invariant.TInvariants returns on
// n: the sweep then runs no Farkas elimination at all. internal/engine
// passes the semiflows its report already computed. Under
// KeepDuplicateReductions the semiflows are ignored and every check runs
// from scratch, as in SolveReductions.
func SolveReductionsWithSemiflows(n *petri.Net, reductions []*Reduction, parentTIs []invariant.TInvariant, opt Options) (*Schedule, error) {
	return solveReductions(n, reductions, opt, checkAids{parentTIs: parentTIs, haveParent: !opt.KeepDuplicateReductions})
}

func solveReductions(n *petri.Net, reductions []*Reduction, opt Options, aids checkAids) (*Schedule, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	count, saturated := CountAllocationsSat(n)
	sched := &Schedule{Net: n, AllocationCount: count, AllocationCountSaturated: saturated}
	aids.sources = n.SourceTransitions()
	// Schedulability sweep, in the order the reductions are given. By
	// Theorem 3.1 the net is schedulable exactly when every reduction is,
	// so the first failing reduction settles the verdict and is the one
	// diagnosed: the sweep stops there.
	for _, red := range reductions {
		sp := opt.Trace.StartDetail("core/check")
		report := checkReduction(n, red, opt, aids)
		sp.End()
		if !report.Schedulable {
			// A cancelled check leaves a stub report behind; surface the
			// cancellation instead of misreading the stub as "not
			// schedulable".
			if err := opt.cancelled(); err != nil {
				return nil, err
			}
			return nil, &NotSchedulableError{Report: report}
		}
		sched.Cycles = append(sched.Cycles, Cycle{Sequence: report.Cycle, Allocation: red.Allocation})
		sched.Reports = append(sched.Reports, report)
	}
	return sched, nil
}

// Schedulable is a convenience wrapper: it reports whether the net has a
// valid schedule, swallowing the diagnostic.
func Schedulable(n *petri.Net, opt Options) bool {
	_, err := Solve(n, opt)
	return err == nil
}

// BufferBounds replays every cycle of the schedule and reports, per place,
// the maximum number of tokens observed: the statically allocatable buffer
// sizes for a single-cycle execution. (Interleavings of different cycles
// cannot exceed the sum of per-cycle bounds on shared places; for the
// common case of choice-private places the per-cycle maximum is exact.)
func (s *Schedule) BufferBounds() ([]int, error) {
	bounds := make([]int, s.Net.NumPlaces())
	init := s.Net.InitialMarking()
	for i := range bounds {
		bounds[i] = init[i]
	}
	for _, c := range s.Cycles {
		m := s.Net.InitialMarking()
		for _, t := range c.Sequence {
			if err := s.Net.Fire(m, t); err != nil {
				return nil, fmt.Errorf("core: replaying cycle: %w", err)
			}
			for p, k := range m {
				if k > bounds[p] {
					bounds[p] = k
				}
			}
		}
		if !m.Equal(init) {
			return nil, fmt.Errorf("core: cycle does not return to the initial marking: %v", m)
		}
	}
	return bounds, nil
}

// CycleStrings renders every cycle as transition names for reports and
// golden tests.
func (s *Schedule) CycleStrings() [][]string {
	out := make([][]string, len(s.Cycles))
	for i, c := range s.Cycles {
		out[i] = s.Net.SequenceNames(c.Sequence)
	}
	return out
}

// ScheduleStats summarises a valid schedule for reports.
type ScheduleStats struct {
	// Cycles is the number of finite complete cycles (distinct
	// T-reductions).
	Cycles int
	// MaxCycleLen and TotalFirings describe the firing sequences.
	MaxCycleLen, TotalFirings int
	// TotalBufferBound is the sum of per-place buffer bounds; MaxBuffer
	// the largest single place bound.
	TotalBufferBound, MaxBuffer int
}

// Stats computes the schedule's summary metrics.
func (s *Schedule) Stats() (ScheduleStats, error) {
	st := ScheduleStats{Cycles: len(s.Cycles)}
	for _, c := range s.Cycles {
		if len(c.Sequence) > st.MaxCycleLen {
			st.MaxCycleLen = len(c.Sequence)
		}
		st.TotalFirings += len(c.Sequence)
	}
	bounds, err := s.BufferBounds()
	if err != nil {
		return st, err
	}
	for _, b := range bounds {
		st.TotalBufferBound += b
		if b > st.MaxBuffer {
			st.MaxBuffer = b
		}
	}
	return st, nil
}
