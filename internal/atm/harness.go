package atm

import (
	"fmt"
	"strings"

	"fcpn/internal/codegen"
	"fcpn/internal/core"
	"fcpn/internal/rtos"
	"fcpn/internal/sim"
)

// TableIRow is one column of the paper's Table I.
type TableIRow struct {
	Name        string
	Tasks       int
	LinesOfC    int
	ClockCycles int64
	Activations int64
	Cycles      int // finite complete cycles in the valid schedule (QSS only)
}

// TableIResult is the full reproduction of Table I.
type TableIResult struct {
	QSS        TableIRow
	Functional TableIRow
	// Behaviour statistics from the QSS run (sanity: the server really
	// processed the cells).
	Stats ServerStats
}

// RunTableI builds both implementations of the ATM server — the
// quasi-statically scheduled one (2 tasks) and the functional
// task-partitioning baseline (5 tasks, one per Figure-8 module) — and
// drives both with the same testbench, reproducing Table I.
func RunTableI(wl WorkloadConfig, cost rtos.CostModel) (*TableIResult, error) {
	m := New()

	// QSS implementation.
	sched, err := core.Solve(m.Net, core.Options{})
	if err != nil {
		return nil, fmt.Errorf("atm: schedule: %w", err)
	}
	tp, err := core.PartitionTasks(m.Net, core.Options{})
	if err != nil {
		return nil, fmt.Errorf("atm: partition: %w", err)
	}
	qssProg, err := codegen.Generate(sched, tp)
	if err != nil {
		return nil, fmt.Errorf("atm: codegen: %w", err)
	}

	// Functional baseline: one task per module.
	var modules []codegen.Module
	for _, mod := range m.Modules() {
		modules = append(modules, codegen.Module{Name: mod.Name, Transitions: mod.Transitions})
	}
	funProg, err := codegen.GenerateModular(m.Net, modules)
	if err != nil {
		return nil, fmt.Errorf("atm: modular codegen: %w", err)
	}

	w := NewWorkload(m, wl)

	// Both runs use behaviour-backed choice resolution over the same cell
	// stream, each with its own server instance (each implementation owns
	// its state, as the real systems would).
	qssServer := NewServer(m, DefaultConfig())
	qssMetrics, err := sim.RunRobust(qssProg, w.Events, cost, sim.RobustConfig{}, sim.Hooks{
		Resolver:    qssServer.Resolver(),
		OnFire:      qssServer.OnFire,
		BeforeEvent: w.CellFeeder(m, qssServer),
	})
	if err != nil {
		return nil, fmt.Errorf("atm: QSS run: %w", err)
	}

	funServer := NewServer(m, DefaultConfig())
	funMetrics, err := sim.RunRobust(funProg, w.Events, cost, sim.RobustConfig{Modular: true}, sim.Hooks{
		Resolver:    funServer.Resolver(),
		OnFire:      funServer.OnFire,
		BeforeEvent: w.CellFeeder(m, funServer),
	})
	if err != nil {
		return nil, fmt.Errorf("atm: functional run: %w", err)
	}

	res := &TableIResult{
		QSS: TableIRow{
			Name:        "QSS",
			Tasks:       len(qssProg.Tasks),
			LinesOfC:    codegen.LineCount(codegen.EmitC(qssProg, codegen.CConfig{})),
			ClockCycles: qssMetrics.Cycles,
			Activations: qssMetrics.Activations,
			Cycles:      len(sched.Cycles),
		},
		Functional: TableIRow{
			Name:        "Functional task partitioning",
			Tasks:       len(funProg.Tasks),
			LinesOfC:    codegen.LineCount(codegen.EmitC(funProg, codegen.CConfig{})),
			ClockCycles: funMetrics.Cycles,
			Activations: funMetrics.Activations,
		},
		Stats: qssServer.Stats,
	}
	return res, nil
}

// Format renders the result in the paper's Table I layout.
func (r *TableIResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %12s %28s\n", "Sw implementation", "QSS", "Functional task partitioning")
	fmt.Fprintf(&b, "%-24s %12d %28d\n", "Number of tasks", r.QSS.Tasks, r.Functional.Tasks)
	fmt.Fprintf(&b, "%-24s %12d %28d\n", "Lines of C code", r.QSS.LinesOfC, r.Functional.LinesOfC)
	fmt.Fprintf(&b, "%-24s %12d %28d\n", "Clock cycles", r.QSS.ClockCycles, r.Functional.ClockCycles)
	fmt.Fprintf(&b, "%-24s %12d %28d\n", "Task activations", r.QSS.Activations, r.Functional.Activations)
	return b.String()
}

// ResponseRow summarises a timed single-CPU run of one implementation.
type ResponseRow struct {
	Name                     string
	ResponseMax, ResponseAvg int64
	Utilisation              float64
	DeadlineMisses           int
}

// ResponseResult compares per-event response times of the two
// implementations under real arrival times — the real-time facet of the
// paper's motivation (quasi-static scheduling minimises run-time overhead,
// hence response time, on a single processor).
type ResponseResult struct {
	QSS, Functional ResponseRow
}

// RunResponseTimes drives both implementations with the same timed
// workload on a single CPU and reports worst/average response and
// deadline misses. cyclesPerTick converts workload time to cycles;
// deadline (cycles) may be 0 to disable miss accounting.
func RunResponseTimes(wl WorkloadConfig, cost rtos.CostModel, cyclesPerTick, deadline int64) (*ResponseResult, error) {
	m := New()
	sched, err := core.Solve(m.Net, core.Options{})
	if err != nil {
		return nil, err
	}
	tp, err := core.PartitionTasks(m.Net, core.Options{})
	if err != nil {
		return nil, err
	}
	qssProg, err := codegen.Generate(sched, tp)
	if err != nil {
		return nil, err
	}
	var modules []codegen.Module
	for _, mod := range m.Modules() {
		modules = append(modules, codegen.Module{Name: mod.Name, Transitions: mod.Transitions})
	}
	funProg, err := codegen.GenerateModular(m.Net, modules)
	if err != nil {
		return nil, err
	}

	w := NewWorkload(m, wl)
	run := func(prog *codegen.Program, modular bool) (*sim.RobustMetrics, error) {
		server := NewServer(m, DefaultConfig())
		return sim.RunRobust(prog, w.Events, cost, sim.RobustConfig{
			CyclesPerTick: cyclesPerTick,
			Deadline:      deadline,
			Modular:       modular,
		}, sim.Hooks{
			Resolver:    server.Resolver(),
			OnFire:      server.OnFire,
			BeforeEvent: w.CellFeeder(m, server),
		})
	}
	qm, err := run(qssProg, false)
	if err != nil {
		return nil, err
	}
	fm, err := run(funProg, true)
	if err != nil {
		return nil, err
	}
	row := func(name string, rm *sim.RobustMetrics) ResponseRow {
		return ResponseRow{Name: name, ResponseMax: rm.ResponseMax, ResponseAvg: rm.ResponseAvg,
			Utilisation: 100 * float64(rm.CPUBusy) / float64(rm.Makespan), DeadlineMisses: int(rm.DeadlineMisses)}
	}
	return &ResponseResult{QSS: row("QSS", qm), Functional: row("Functional", fm)}, nil
}
