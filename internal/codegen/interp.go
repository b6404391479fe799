package codegen

import (
	"errors"
	"fmt"

	"fcpn/internal/core"
	"fcpn/internal/petri"
)

// ChoiceResolver supplies the run-time value of a control token: it
// returns the index (into alternatives) of the transition the data selects.
// In the real system this is the generated `read_p()` predicate. The
// alternatives slice is only valid for the duration of the call — the
// interpreter reuses its backing array across choices.
type ChoiceResolver func(p petri.Place, alternatives []petri.Transition) int

// ExecStats accumulates observable behaviour of an interpreted program.
type ExecStats struct {
	// Fired[t] counts firings of transition t.
	Fired []int
	// Firings is the sum of Fired, kept as a running total so per-dispatch
	// accounting reads it in O(1).
	Firings int
	// Ops counts interpreter steps (fires + counter updates + guard
	// evaluations): a machine-independent execution-cost proxy.
	Ops int
	// MaxCounter is the largest value any place counter reached.
	MaxCounter int
	// MaxCounters[p] is the peak value of place p's counter over the run
	// (starting from the initial marking): the per-place memory bound
	// actually exercised, checked against static buffer bounds by the
	// robustness layer.
	MaxCounters []int
}

// ErrRunaway is returned when a guard loop exceeds the iteration cap: the
// generated code would not terminate (which a correct QSS program never
// does).
var ErrRunaway = errors.New("codegen: guard loop exceeded iteration cap")

// ErrBudgetExceeded is re-exported from core: the typed cause behind every
// structured step budget. Interp.MaxOps failures wrap it.
var ErrBudgetExceeded = core.ErrBudgetExceeded

// Interp executes generated task code against counter state.
type Interp struct {
	Prog     *Program
	Counters []int
	Stats    ExecStats
	Resolve  ChoiceResolver
	// OnFire, when set, observes every transition execution (used by
	// behavioural models to update their state).
	OnFire func(t petri.Transition)
	// MaxLoop caps iterations of a single while guard (default 1 << 20).
	MaxLoop int
	// MaxOps, when positive, bounds the total interpreter steps of the
	// run; exceeding it returns an error wrapping ErrBudgetExceeded. This
	// is the execution-side analogue of core's 2^20-firing cap on cycle
	// realisation: a hostile workload or a wrong schedule terminates
	// instead of running away.
	MaxOps int

	// Step tracing (see StartTrace / TraceTail).
	tracing    bool
	trace      []TraceEntry
	traceStart int

	// alts is the scratch alternatives slice handed to Resolve; choices
	// fire on every simulated cycle, so it is reused rather than
	// reallocated per ChoiceNode. Safe across the recursive exec: the
	// slice is dead before the chosen branch's body runs.
	alts []petri.Transition

	// entries[t] is transition t's entry point when t is a source, so
	// each dispatch finds its body without scanning the tasks; init is
	// the net's initial marking, which Reset restores.
	entries []entryPoint
	init    []int
}

// entryPoint is the task a source activates (-1 for none) and the body
// it runs.
type entryPoint struct {
	task int
	body []Node
}

// NewInterp prepares an interpreter with counters initialised from the
// net's initial marking.
func NewInterp(prog *Program, resolve ChoiceResolver) *Interp {
	in := &Interp{
		Prog:     prog,
		Counters: prog.Net.InitialMarking(),
		Resolve:  resolve,
		MaxLoop:  1 << 20,
	}
	in.init = append([]int(nil), in.Counters...)
	in.Stats.Fired = make([]int, prog.Net.NumTransitions())
	in.Stats.MaxCounters = append([]int(nil), in.Counters...)
	in.entries = make([]entryPoint, prog.Net.NumTransitions())
	for t := range in.entries {
		in.entries[t].task = -1
	}
	for ti, tc := range prog.Tasks {
		for _, b := range tc.Bodies {
			if e := &in.entries[b.Source]; e.task < 0 {
				*e = entryPoint{task: ti, body: b.Body}
			}
		}
	}
	return in
}

// Reset returns the interpreter to the state NewInterp leaves it in,
// with choices resolved by resolve: counters at the initial marking,
// statistics cleared and tracing off. OnFire, MaxLoop and MaxOps keep
// their values. Reusing one interpreter across runs of a program saves
// rebuilding its state per run.
func (in *Interp) Reset(resolve ChoiceResolver) {
	copy(in.Counters, in.init)
	clear(in.Stats.Fired)
	copy(in.Stats.MaxCounters, in.init)
	in.Stats.Firings, in.Stats.Ops, in.Stats.MaxCounter = 0, 0, 0
	in.Resolve = resolve
	in.tracing, in.trace, in.traceStart = false, in.trace[:0], 0
}

// SourceTask returns the index of the task that source src activates,
// or -1.
func (in *Interp) SourceTask(src petri.Transition) int {
	if int(src) < 0 || int(src) >= len(in.entries) {
		return -1
	}
	return in.entries[src].task
}

// RunSource executes the task body activated by one occurrence of the
// given source event, including the task's residual drains.
func (in *Interp) RunSource(src petri.Transition) error {
	ti := in.SourceTask(src)
	if ti < 0 {
		return fmt.Errorf("codegen: no task handles source %s", in.Prog.Net.TransitionName(src))
	}
	if err := in.exec(in.entries[src].body); err != nil {
		return err
	}
	return in.exec(in.Prog.Tasks[ti].Residual)
}

// RunTask executes a task's residual blocks (used for autonomous tasks and
// for modular tasks activated by pending queue contents). It reports
// whether any transition fired.
func (in *Interp) RunTask(taskIdx int) (bool, error) {
	if taskIdx < 0 || taskIdx >= len(in.Prog.Tasks) {
		return false, fmt.Errorf("codegen: task index %d out of range", taskIdx)
	}
	before := in.Stats.Firings
	if err := in.exec(in.Prog.Tasks[taskIdx].Residual); err != nil {
		return false, err
	}
	return in.Stats.Firings > before, nil
}

func (in *Interp) exec(nodes []Node) error {
	for _, node := range nodes {
		if in.MaxOps > 0 && in.Stats.Ops >= in.MaxOps {
			return fmt.Errorf("codegen: %w after %d interpreter ops", ErrBudgetExceeded, in.Stats.Ops)
		}
		switch x := node.(type) {
		case FireNode:
			in.Stats.Fired[x.T]++
			in.Stats.Firings++
			in.Stats.Ops++
			in.record(TraceEntry{Op: "fire", Transition: x.T})
			if in.OnFire != nil {
				in.OnFire(x.T)
			}
		case IncNode:
			in.Counters[x.P] += x.By
			if in.Counters[x.P] > in.Stats.MaxCounter {
				in.Stats.MaxCounter = in.Counters[x.P]
			}
			if in.Counters[x.P] > in.Stats.MaxCounters[x.P] {
				in.Stats.MaxCounters[x.P] = in.Counters[x.P]
			}
			in.Stats.Ops++
			in.record(TraceEntry{Op: "inc", Place: x.P, By: x.By})
		case DecNode:
			in.Counters[x.P] -= x.By
			in.record(TraceEntry{Op: "dec", Place: x.P, By: x.By})
			if in.Counters[x.P] < 0 {
				return fmt.Errorf("codegen: counter of place %s went negative",
					in.Prog.Net.PlaceName(x.P))
			}
			in.Stats.Ops++
		case GuardNode:
			if !x.Loop {
				in.Stats.Ops++
				if in.holds(x.Conds) {
					if err := in.exec(x.Body); err != nil {
						return err
					}
				}
				continue
			}
			maxLoop := in.MaxLoop
			if maxLoop <= 0 {
				maxLoop = 1 << 20
			}
			// Whether the body can ever release the guard is fixed per
			// node, so it is decided once, after the first pass.
			var noOp bool
			for iter := 0; ; iter++ {
				in.Stats.Ops++
				if !in.holds(x.Conds) {
					break
				}
				if iter >= maxLoop {
					return fmt.Errorf("%w (place guard %v)", ErrRunaway, x.Conds)
				}
				if err := in.exec(x.Body); err != nil {
					return err
				}
				if iter == 0 {
					noOp = in.staticallyNoOp(x.Body)
				}
				if noOp {
					// An empty body can never release the guard.
					break
				}
			}
		case CallNode:
			in.Stats.Ops++
			if x.Helper == nil {
				return fmt.Errorf("codegen: call to unresolved helper %s", x.Name)
			}
			if err := in.exec(x.Helper.Body); err != nil {
				return err
			}
		case ChoiceNode:
			in.alts = in.alts[:0]
			for _, br := range x.Branches {
				in.alts = append(in.alts, br.T)
			}
			in.Stats.Ops++
			pick := in.Resolve(x.P, in.alts)
			if pick < 0 || pick >= len(x.Branches) {
				// Resolution selects a transition outside this node's
				// branches (modular single-branch test): skip.
				continue
			}
			if err := in.exec(x.Branches[pick].Body); err != nil {
				return err
			}
		}
	}
	return nil
}

// staticallyNoOp reports whether the body contains no counter updates or
// fires on any path; such a loop body can never release its guard.
func (in *Interp) staticallyNoOp(body []Node) bool {
	for _, node := range body {
		switch x := node.(type) {
		case FireNode, IncNode, DecNode:
			return false
		case GuardNode:
			if !in.staticallyNoOp(x.Body) {
				return false
			}
		case CallNode:
			if x.Helper != nil && !in.staticallyNoOp(x.Helper.Body) {
				return false
			}
		case ChoiceNode:
			for _, br := range x.Branches {
				if !in.staticallyNoOp(br.Body) {
					return false
				}
			}
		}
	}
	return true
}

func (in *Interp) holds(conds []Cond) bool {
	for _, c := range conds {
		if in.Counters[c.P] < c.W {
			return false
		}
	}
	return true
}

// StateEquationCheck verifies the fundamental equivalence between the
// generated code and the net: for every place, the tracked counter (or 0
// for transient places) must equal μ0(p) + Σ_t Fired[t]·D[t][p]. A mismatch
// means the code fired transitions in an order the net does not allow.
func (in *Interp) StateEquationCheck() error {
	n := in.Prog.Net
	init := n.InitialMarking()
	expect := n.ApplyFiringVector(init, in.Stats.Fired)
	for p := 0; p < n.NumPlaces(); p++ {
		got := in.Counters[p]
		if expect[p] < 0 {
			return fmt.Errorf("codegen: state equation negative at place %s: %d",
				n.PlaceName(petri.Place(p)), expect[p])
		}
		if in.Prog.HasCounter[p] {
			if got != expect[p] {
				return fmt.Errorf("codegen: counter of %s is %d, state equation says %d",
					n.PlaceName(petri.Place(p)), got, expect[p])
			}
		} else if expect[p] != init[p] {
			// A transient (uncounted) place is fully drained within each
			// pass, so between passes it must hold exactly its initial
			// tokens (the generated code never touches those).
			return fmt.Errorf("codegen: transient place %s holds %d tokens between passes, want %d",
				n.PlaceName(petri.Place(p)), expect[p], init[p])
		}
	}
	return nil
}

// TraceEntry is one recorded interpreter step (fires and counter updates).
type TraceEntry struct {
	// Op is "fire", "inc" or "dec".
	Op string
	// Transition is set for fire entries, Place and By for inc/dec.
	Transition petri.Transition
	Place      petri.Place
	By         int
}

// String renders the entry against the program's net.
func (e TraceEntry) String(n *petri.Net) string {
	switch e.Op {
	case "fire":
		return "fire " + n.TransitionName(e.Transition)
	case "inc":
		return fmt.Sprintf("inc %s +%d", n.PlaceName(e.Place), e.By)
	default:
		return fmt.Sprintf("dec %s -%d", n.PlaceName(e.Place), e.By)
	}
}

// traceCap bounds the retained trace (a ring of the most recent steps).
const traceCap = 256

// StartTrace enables step recording; the most recent traceCap steps are
// retained. Useful when diagnosing a state-equation failure.
func (in *Interp) StartTrace() {
	in.tracing = true
	in.trace = in.trace[:0]
}

// TraceTail returns the recorded steps, oldest first.
func (in *Interp) TraceTail() []TraceEntry {
	out := make([]TraceEntry, 0, len(in.trace))
	out = append(out, in.trace[in.traceStart:]...)
	out = append(out, in.trace[:in.traceStart]...)
	return out
}

func (in *Interp) record(e TraceEntry) {
	if !in.tracing {
		return
	}
	if len(in.trace) < traceCap {
		in.trace = append(in.trace, e)
		return
	}
	in.trace[in.traceStart] = e
	in.traceStart = (in.traceStart + 1) % traceCap
}
