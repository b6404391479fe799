package fcpn

import (
	"fmt"
	"io"

	"fcpn/internal/codegen"
	"fcpn/internal/core"
	"fcpn/internal/engine"
	"fcpn/internal/engine/stats"
	"fcpn/internal/petri"
	"fcpn/internal/spec"
	"fcpn/internal/trace"
)

// Re-exported model types. The aliases let callers hold and build nets
// through this package without importing the internal packages.
type (
	// Net is an immutable weighted place/transition net.
	Net = petri.Net
	// Builder incrementally constructs a Net.
	Builder = petri.Builder
	// Place and Transition index a net's nodes.
	Place = petri.Place
	// Transition indexes a net's transitions.
	Transition = petri.Transition
	// Marking is a token-count vector.
	Marking = petri.Marking

	// Options tunes the scheduler (allocation caps, dedup, …).
	Options = core.Options
	// Schedule is a valid quasi-static schedule: one finite complete
	// cycle per distinct T-reduction.
	Schedule = core.Schedule
	// Cycle is one finite complete cycle of a Schedule.
	Cycle = core.Cycle
	// TaskPartition groups transitions into minimum-count tasks.
	TaskPartition = core.TaskPartition
	// Task is one software task (a dependent-rate source group).
	Task = core.Task
	// NotSchedulableError diagnoses why no valid schedule exists.
	NotSchedulableError = core.NotSchedulableError

	// Program is generated task code (C-emittable and interpretable).
	Program = codegen.Program
	// CConfig tunes the C backend.
	CConfig = codegen.CConfig
	// ChoiceResolver supplies run-time values for free choices.
	ChoiceResolver = codegen.ChoiceResolver
	// Interp executes generated task code.
	Interp = codegen.Interp

	// System is a process-network specification that compiles to an FCPN.
	System = spec.System
	// Process is one reactive process of a System.
	Process = spec.Process
	// Branch is one alternative of a Process.If.
	Branch = spec.Branch
	// ChannelID names a System channel, input or output.
	ChannelID = spec.ChannelID
)

// ErrNotFreeChoice is returned for nets outside the FCPN class.
var ErrNotFreeChoice = petri.ErrNotFreeChoice

// NewBuilder starts a new net with the given name.
func NewBuilder(name string) *Builder { return petri.NewBuilder(name) }

// BuildError reports structural misuse during programmatic net
// construction (duplicate names, unknown endpoints, non-positive weights,
// negative markings). Build converts the internal builder's panics into
// this type at the public API boundary.
type BuildError struct {
	// Reason is the builder's diagnosis.
	Reason string
}

func (e *BuildError) Error() string { return "fcpn: invalid net construction: " + e.Reason }

// Build constructs a net programmatically, converting builder panics on
// malformed input into a *BuildError. The internal builder panics by
// design (nets are normally built by trusted code); Build is the safe
// boundary for callers assembling nets from untrusted or computed input:
//
//	net, err := fcpn.Build("demo", func(b *fcpn.Builder) {
//	        p := b.Place(userName) // may panic on duplicates...
//	        b.Arc(p, b.Transition("t"))
//	})                             // ...returned here as *BuildError
func Build(name string, construct func(*Builder)) (n *Net, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &BuildError{Reason: fmt.Sprint(r)}
		}
	}()
	b := petri.NewBuilder(name)
	construct(b)
	return b.Build(), nil
}

// ErrBudgetExceeded is the typed cause behind every structured step
// budget in the pipeline (schedule search caps, interpreter op budgets,
// robust-simulation step budgets). Test with errors.Is.
var ErrBudgetExceeded = core.ErrBudgetExceeded

// NewSystem starts a process-network specification; compile it with
// (*System).Compile and pass the net to Synthesize.
func NewSystem(name string) *System { return spec.NewSystem(name) }

// Parse reads a net in the textual format (see internal/petri.Parse for
// the grammar: net/place/trans/arc directives with '#' comments).
func Parse(r io.Reader) (*Net, error) { return petri.Parse(r) }

// ParseString parses an in-memory net description.
func ParseString(s string) (*Net, error) { return petri.ParseString(s) }

// MustParseString is ParseString, panicking on malformed input; for
// literals in tests and examples.
func MustParseString(s string) *Net {
	n, err := petri.ParseString(s)
	if err != nil {
		panic(err)
	}
	return n
}

// Format renders a net in the textual format.
func Format(n *Net) string { return petri.Format(n) }

// DOT renders a net in Graphviz syntax.
func DOT(n *Net) string { return n.DOT() }

// Solve checks quasi-static schedulability and returns the valid schedule
// (Section 3 of the paper). A *NotSchedulableError explains failures.
func Solve(n *Net, opt Options) (*Schedule, error) { return core.Solve(n, opt) }

// Schedulable reports whether a valid schedule exists.
func Schedulable(n *Net, opt Options) bool { return core.Schedulable(n, opt) }

// PartitionTasks computes the minimum task partition: one task per group
// of dependent-rate source transitions.
func PartitionTasks(n *Net, opt Options) (*TaskPartition, error) {
	return core.PartitionTasks(n, opt)
}

// Generate lowers a schedule and partition to task code.
func Generate(s *Schedule, tp *TaskPartition) (*Program, error) {
	return codegen.Generate(s, tp)
}

// EmitC renders generated code as a C translation unit.
func EmitC(p *Program, cfg CConfig) string { return codegen.EmitC(p, cfg) }

// NewInterp prepares an interpreter over generated code with the given
// choice resolver; counters start at the net's initial marking.
func NewInterp(p *Program, resolve ChoiceResolver) *Interp {
	return codegen.NewInterp(p, resolve)
}

// Synthesis bundles the full result of software synthesis for one net.
type Synthesis struct {
	Net       *Net
	Schedule  *Schedule
	Partition *TaskPartition
	Program   *Program
}

// Synthesize runs the complete pipeline of the paper: schedulability check
// and valid schedule (Section 3), minimum task partition, and code
// generation (Section 4).
func Synthesize(n *Net, opt Options) (*Synthesis, error) {
	sched, err := core.Solve(n, opt)
	if err != nil {
		return nil, err
	}
	tp, err := core.PartitionTasks(n, opt)
	if err != nil {
		return nil, err
	}
	prog, err := codegen.Generate(sched, tp)
	if err != nil {
		return nil, err
	}
	return &Synthesis{Net: n, Schedule: sched, Partition: tp, Program: prog}, nil
}

// C renders the synthesised implementation as C source. With standalone
// set, a main() driving the tasks round-robin is appended (the paper's
// Section 4 listing style); otherwise only the RTOS task functions are
// emitted.
func (s *Synthesis) C(standalone bool) string {
	return codegen.EmitC(s.Program, codegen.CConfig{Standalone: standalone})
}

// NumTasks reports the number of synthesised tasks.
func (s *Synthesis) NumTasks() int { return len(s.Program.Tasks) }

// BufferBounds reports per-place static buffer bounds from the schedule.
func (s *Synthesis) BufferBounds() ([]int, error) { return s.Schedule.BufferBounds() }

// Concurrent analysis engine (see docs/ENGINE.md). The aliases expose the
// engine service through this package.
type (
	// Engine is the long-running, goroutine-safe analysis service with a
	// bounded worker pool and a content-addressed result cache; create
	// with NewEngine, Close when done.
	Engine = engine.Engine
	// EngineConfig tunes an Engine (workers, solver and timing options,
	// submission window, job deadline); the zero value is usable.
	EngineConfig = engine.Config
	// NetReport is the engine's deterministic per-net analysis report.
	NetReport = engine.NetReport
	// EngineResult pairs a NetReport with its wall-clock analysis time.
	EngineResult = engine.Result
	// EngineStats is a snapshot of the engine's counters (jobs, cache
	// hits/misses, worker utilisation) and its lifetime phase trace.
	EngineStats = stats.Snapshot
	// TraceReport is a per-phase timing breakdown (see internal/trace
	// and docs/TRACING.md): per-job in EngineResult.Trace, engine-wide
	// in EngineStats.Trace.
	TraceReport = trace.Report
)

// ErrEngineClosed is returned by engine methods called after Close.
var ErrEngineClosed = engine.ErrEngineClosed

// NewEngine starts a concurrent analysis engine. Results are independent
// of the worker count, and cache hits are byte-identical to cold runs.
func NewEngine(cfg EngineConfig) *Engine { return engine.New(cfg) }

// CanonicalHash returns the net's canonical structural hash, which keys
// the engine's content-addressed cache. Renaming nodes never changes it.
// Reordering declarations can: nodes that colour refinement leaves tied
// are ordered by local index, so such a twin may miss the cache (it is
// never answered wrongly; see docs/ENGINE.md).
func CanonicalHash(n *Net) string { return n.CanonicalHash() }

// Analyze runs the engine's full structural + behavioural analysis of one
// net through an ephemeral engine. For batches or repeated queries, keep
// a NewEngine instance instead so the cache is shared.
func Analyze(n *Net, opt Options) (*NetReport, error) {
	e := engine.New(engine.Config{Workers: 1, Core: opt})
	defer e.Close()
	return e.Analyze(n)
}

// TradeoffPoint re-exports the schedule-exploration result type.
type TradeoffPoint = core.TradeoffPoint

// CycleStrategy selects a cycle-realisation policy for Explore.
type CycleStrategy = core.CycleStrategy

// Cycle strategies (see core.Explore): balanced interleaving, maximal
// batching, eager draining.
const (
	StrategyRoundRobin = core.StrategyRoundRobin
	StrategyBatch      = core.StrategyBatch
	StrategyDemand     = core.StrategyDemand
)

// Explore solves the net once per cycle strategy and reports each
// schedule's buffer/batching tradeoff (the paper's §6 future work).
func Explore(n *Net, opt Options) ([]TradeoffPoint, error) { return core.Explore(n, opt) }

// Simplify applies Murata's structural reduction rules (series/parallel
// fusions, self-loop elimination) with environment-preserving guards,
// returning the reduced net and the rewrite trace. The quasi-static
// schedulability verdict is invariant under Simplify.
func Simplify(n *Net) (*Net, []string) { return petri.Simplify(n) }

// ImportSchedule validates and reconstructs a schedule from its exported
// form (e.g. parsed from the JSON emitted by qss -json).
func ImportSchedule(n *Net, ex *core.ScheduleExport) (*Schedule, error) {
	return core.ImportSchedule(n, ex)
}
