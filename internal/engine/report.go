package engine

import (
	"sort"

	"fcpn/internal/codegen"
	"fcpn/internal/core"
	"fcpn/internal/petri"
)

// NetReport is the engine's complete, deterministic analysis result for
// one net. Every field is derived either from the net itself or from
// canonical cached payloads mapped into the net's index space, so a cache
// hit marshals byte-identically to a cold run — the report is the unit the
// determinism guarantees of docs/ENGINE.md are stated over. Timings and
// cache counters deliberately live elsewhere (Result, stats.Snapshot).
//
// The same type backs `qssd` batch entries and `netinfo -json`.
type NetReport struct {
	Name        string `json:"name"`
	Hash        string `json:"hash"`
	Places      int    `json:"places"`
	Transitions int    `json:"transitions"`
	Arcs        int    `json:"arcs"`
	Class       string `json:"class"`
	FreeChoice  bool   `json:"free_choice"`

	Sources     []string `json:"sources,omitempty"`
	Sinks       []string `json:"sinks,omitempty"`
	FreeChoices int      `json:"free_choices"`

	// Invariant analysis (cache layer: minimal T-/P-semiflows).
	TSemiflows   int  `json:"t_semiflows"`
	PSemiflows   int  `json:"p_semiflows"`
	Consistent   bool `json:"consistent"`
	Conservative bool `json:"conservative"`

	// StructuralBounds maps each structurally bounded place to its
	// P-invariant token bound, derived from the minimal P-semiflows.
	// Places with no structural bound are omitted.
	StructuralBounds map[string]int `json:"structural_bounds,omitempty"`

	// Reductions lists, per distinct T-reduction, the surviving
	// transitions by name (cache layer: canonical T-reductions). Only
	// populated for free-choice nets.
	Reductions [][]string `json:"reductions,omitempty"`

	// Scheduling (cache layer: complete schedules).
	Schedulable   bool   `json:"schedulable"`
	ScheduleError string `json:"schedule_error,omitempty"`
	Allocations   int    `json:"allocations,omitempty"`
	// AllocationsSaturated marks Allocations as the math.MaxInt ceiling of
	// core.CountAllocationsSat rather than a real count.
	AllocationsSaturated bool                 `json:"allocation_count_saturated,omitempty"`
	Schedule             *core.ScheduleExport `json:"schedule,omitempty"`
	// BufferBounds maps each place to its schedule buffer bound.
	BufferBounds map[string]int `json:"buffer_bounds,omitempty"`

	// Tasks is the minimum task partition.
	Tasks []TaskReport `json:"tasks,omitempty"`

	// Timing is the weakly-hard timing-safety result (verdict plus
	// optional overload margins), present when the engine was configured
	// with Config.Timing and the net is schedulable (cache layer: timing
	// verdicts and margins).
	Timing *TimingReport `json:"timing,omitempty"`

	// Errors collects non-fatal analysis failures (e.g. a semiflow
	// enumeration past its size cap); the remaining fields stay valid.
	Errors []string `json:"errors,omitempty"`
}

// TaskReport is one synthesised task in name form.
type TaskReport struct {
	Name        string   `json:"name"`
	Sources     []string `json:"sources,omitempty"`
	Transitions []string `json:"transitions"`
}

// Synthesis bundles the engine's cached full-pipeline result for one net.
type Synthesis struct {
	Schedule  *core.Schedule
	Partition *core.TaskPartition
	Program   *codegen.Program
}

// C renders the synthesised implementation as a C translation unit.
func (s *Synthesis) C(standalone bool) string {
	return codegen.EmitC(s.Program, codegen.CConfig{Standalone: standalone})
}

func names(n *petri.Net, ts []petri.Transition) []string {
	if len(ts) == 0 {
		return nil
	}
	return n.SequenceNames(ts)
}

// sortedNames renders a transition *set* as name-sorted strings. Report
// fields that are sets (sources, sinks, reduction survivors, task
// members) must serialise identically for isomorphic nets, so their
// order cannot come from transition indices — those depend on
// declaration order. Sequences (schedules) keep their semantic order.
func sortedNames(n *petri.Net, ts []petri.Transition) []string {
	out := names(n, ts)
	sort.Strings(out)
	return out
}
