package modem

import (
	"fmt"

	"fcpn/internal/codegen"
	"fcpn/internal/core"
	"fcpn/internal/rtos"
	"fcpn/internal/sim"
	"fcpn/internal/timing"
)

// ComparisonRow is one implementation's measurements.
type ComparisonRow struct {
	Name        string
	Tasks       int
	LinesOfC    int
	ClockCycles int64
	Activations int64
}

// ComparisonResult is the modem's Table-I-style experiment: QSS (2 tasks)
// versus the functional three-module baseline, driven by the same
// synthetic line.
type ComparisonResult struct {
	QSS, Functional ComparisonRow
	Stats           LineStats
	Cycles          int // finite complete cycles in the valid schedule
}

// WorkloadConfig sizes the testbench.
type WorkloadConfig struct {
	// Samples is the number of ADC samples; Cmds the number of host
	// commands interleaved with them.
	Samples, Cmds int
	// SamplePeriod and CmdMeanGap set the input rates.
	SamplePeriod, CmdMeanGap int64
	// Seed drives the command arrival jitter.
	Seed uint64
}

// DefaultWorkload is 200 samples with 12 host commands.
func DefaultWorkload() WorkloadConfig {
	return WorkloadConfig{Samples: 200, Cmds: 12, SamplePeriod: 5, CmdMeanGap: 80, Seed: 0x51CA}
}

// TimingSafetyResult is the modem's weakly-hard timing experiment: the
// nominal verdict under a calibrated deadline plus one overload-margin
// frontier per requested kind. Deterministic for a given (workload, seed).
type TimingSafetyResult struct {
	MK       string
	Deadline int64
	Verdict  *timing.Verdict
	Margins  []*sim.OverloadMargin `json:",omitempty"`
}

// RunTimingSafety synthesises the QSS modem and checks its deadline
// hit/miss stream against the weakly-hard (m,k) constraint, then
// binary-searches the overload margin for each requested kind. A zero
// deadline is calibrated to sim.DefaultDeadlineFactor x the fault-free
// worst response.
func RunTimingSafety(wl WorkloadConfig, cost rtos.CostModel, mk timing.Constraint, deadline int64, kinds []sim.OverloadKind, seed uint64) (*TimingSafetyResult, error) {
	if err := mk.Validate(); err != nil {
		return nil, fmt.Errorf("modem: %w", err)
	}
	m, err := New()
	if err != nil {
		return nil, err
	}
	sched, err := core.Solve(m.Net, core.Options{})
	if err != nil {
		return nil, fmt.Errorf("modem: schedule: %w", err)
	}
	tp, err := core.PartitionTasks(m.Net, core.Options{})
	if err != nil {
		return nil, err
	}
	prog, err := codegen.Generate(sched, tp)
	if err != nil {
		return nil, err
	}
	events := rtos.Merge(
		rtos.Periodic(m.Sample, wl.SamplePeriod, 0, wl.Samples),
		rtos.Bursty(m.Cmd, wl.CmdMeanGap, wl.Cmds, wl.Seed),
	)
	// Fresh line state per run: calibration and every margin probe replay
	// the same testbench.
	hooks := func() sim.Hooks {
		l := NewLine(m)
		return sim.Hooks{
			Resolver: l.Resolver(),
			OnFire:   l.OnFire,
			BeforeEvent: func(ev rtos.Event) {
				switch ev.Source {
				case m.Sample:
					l.BeginSample()
				case m.Cmd:
					l.BeginCmd()
				}
			},
		}
	}
	// One fault-free run gives the calibrated deadline, the verdict and
	// every margin search's level 0.
	nom := sim.RunNominal(prog, events, cost, sim.MarginConfig{
		MK:     mk,
		Seed:   seed,
		Robust: sim.RobustConfig{CyclesPerTick: 1},
		Hooks:  hooks,
	})
	if deadline == 0 {
		if deadline, err = nom.Deadline(sim.DefaultDeadlineFactor); err != nil {
			return nil, fmt.Errorf("modem: calibrating deadline: %w", err)
		}
	}
	verdict, err := nom.Verdict(deadline)
	if err != nil {
		return nil, err
	}
	res := &TimingSafetyResult{MK: mk.String(), Deadline: deadline, Verdict: verdict}
	for _, kind := range kinds {
		om, err := nom.SearchMargin(kind, deadline)
		if err != nil {
			return nil, fmt.Errorf("modem: margin %s: %w", kind, err)
		}
		res.Margins = append(res.Margins, om)
	}
	return res, nil
}

// RunComparison synthesises both implementations and drives them with the
// same workload and line behaviour.
func RunComparison(wl WorkloadConfig, cost rtos.CostModel) (*ComparisonResult, error) {
	m, err := New()
	if err != nil {
		return nil, err
	}
	sched, err := core.Solve(m.Net, core.Options{})
	if err != nil {
		return nil, fmt.Errorf("modem: schedule: %w", err)
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

	events := rtos.Merge(
		rtos.Periodic(m.Sample, wl.SamplePeriod, 0, wl.Samples),
		rtos.Bursty(m.Cmd, wl.CmdMeanGap, wl.Cmds, wl.Seed),
	)
	feeder := func(l *Line) func(rtos.Event) {
		return func(ev rtos.Event) {
			switch ev.Source {
			case m.Sample:
				l.BeginSample()
			case m.Cmd:
				l.BeginCmd()
			}
		}
	}

	qssLine := NewLine(m)
	qm, err := sim.RunRobust(qssProg, events, cost, sim.RobustConfig{}, sim.Hooks{
		Resolver:    qssLine.Resolver(),
		OnFire:      qssLine.OnFire,
		BeforeEvent: feeder(qssLine),
	})
	if err != nil {
		return nil, err
	}
	funLine := NewLine(m)
	fm, err := sim.RunRobust(funProg, events, cost, sim.RobustConfig{Modular: true}, sim.Hooks{
		Resolver:    funLine.Resolver(),
		OnFire:      funLine.OnFire,
		BeforeEvent: feeder(funLine),
	})
	if err != nil {
		return nil, err
	}

	return &ComparisonResult{
		QSS: ComparisonRow{
			Name:        "QSS",
			Tasks:       len(qssProg.Tasks),
			LinesOfC:    codegen.LineCount(codegen.EmitC(qssProg, codegen.CConfig{})),
			ClockCycles: qm.Cycles,
			Activations: qm.Activations,
		},
		Functional: ComparisonRow{
			Name:        "Functional (3 modules)",
			Tasks:       len(funProg.Tasks),
			LinesOfC:    codegen.LineCount(codegen.EmitC(funProg, codegen.CConfig{})),
			ClockCycles: fm.Cycles,
			Activations: fm.Activations,
		},
		Stats:  qssLine.Stats,
		Cycles: len(sched.Cycles),
	}, nil
}
