package sim

import (
	"errors"
	"fmt"
	"strings"

	"fcpn/internal/codegen"
	"fcpn/internal/fault"
	"fcpn/internal/rtos"
	"fcpn/internal/timing"
)

// OverloadKind selects the fault-injection axis an overload-margin search
// scales. Each kind maps an integer intensity level to one seeded
// injector configuration; level 0 is always the unperturbed workload.
type OverloadKind int

const (
	// OverloadBurst scales burst length: every event arrives with level
	// extra back-to-back copies (an interrupt storm of growing depth).
	OverloadBurst OverloadKind = iota
	// OverloadJitter scales timer jitter: event timestamps move by up to
	// level ticks and the stream re-sorts (clock drift, deferred ISRs).
	OverloadJitter
	// OverloadDrop scales event loss: level percent of events vanish
	// (capped at 100).
	OverloadDrop
	// OverloadOverrun scales task overruns: each dispatch runs up to
	// level percent slower than the nominal cost model.
	OverloadOverrun
)

// String names the kind as accepted by ParseOverloadKind.
func (k OverloadKind) String() string {
	switch k {
	case OverloadBurst:
		return "burst"
	case OverloadJitter:
		return "jitter"
	case OverloadDrop:
		return "drop"
	case OverloadOverrun:
		return "overrun"
	}
	return fmt.Sprintf("OverloadKind(%d)", int(k))
}

// ParseOverloadKind parses an overload kind name (burst, jitter, drop,
// overrun).
func ParseOverloadKind(s string) (OverloadKind, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "burst":
		return OverloadBurst, nil
	case "jitter":
		return OverloadJitter, nil
	case "drop":
		return OverloadDrop, nil
	case "overrun":
		return OverloadOverrun, nil
	}
	return 0, fmt.Errorf("sim: unknown overload kind %q (want burst, jitter, drop or overrun)", s)
}

// defaultCeiling bounds the search per kind: bursts deeper than 64 copies
// or overruns past 8x nominal are far outside any sensible operating
// envelope, and drop is a percentage by construction.
func (k OverloadKind) defaultCeiling() int {
	switch k {
	case OverloadBurst:
		return 64
	case OverloadJitter:
		return 1 << 12
	case OverloadDrop:
		return 100
	case OverloadOverrun:
		return 700
	}
	return 64
}

// DefaultDeadlineFactor is the calibration multiplier: when no deadline
// is configured, the per-event budget becomes this many times the
// fault-free worst response.
const DefaultDeadlineFactor = 2

// MarginConfig parameterises an overload-margin search.
type MarginConfig struct {
	// Kind is the overload axis to scale.
	Kind OverloadKind
	// MK is the weakly-hard constraint that defines "still safe". Must
	// be enabled.
	MK timing.Constraint
	// Seed drives the injectors and (absent custom Hooks) the decision
	// stream; the whole search is a pure function of it.
	Seed uint64
	// Ceiling bounds the intensity levels probed (0 = per-kind default).
	Ceiling int
	// Robust configures the underlying runs. Deadline == 0 auto-
	// calibrates to DefaultDeadlineFactor x the fault-free worst
	// response. The Jitter field is owned by the search under
	// OverloadOverrun and must be nil.
	Robust RobustConfig
	// Hooks, when set, builds fresh run hooks per probe (decision
	// streams are stateful, so each probe needs its own). Nil uses a
	// seeded DecisionStream.
	Hooks func() Hooks
}

func (cfg MarginConfig) hooks(prog *codegen.Program) Hooks {
	if cfg.Hooks != nil {
		return cfg.Hooks()
	}
	return Hooks{Resolver: NewDecisionStream(prog.Net, cfg.Seed).Resolver()}
}

// OverloadMargin is the outcome of one overload-margin search: the
// calibrated deadline and the bisection result (the highest intensity
// level at which the (m,k) constraint still holds).
type OverloadMargin struct {
	Kind     string               `json:"kind"`
	Deadline int64                `json:"deadline"`
	Result   *timing.MarginResult `json:"result"`
	// ProbeStops counts the probes that ended at their first violating
	// window; ProbeEvents counts the events the probes served, the full
	// replay of the reported Fail level included. They measure the
	// search's work, not its outcome, so they stay out of the JSON form.
	ProbeStops  int   `json:"-"`
	ProbeEvents int64 `json:"-"`
}

// String renders a one-line summary.
func (om *OverloadMargin) String() string {
	return fmt.Sprintf("%s deadline=%d %s", om.Kind, om.Deadline, om.Result)
}

// CalibrateDeadline derives a per-event response budget from the
// fault-free run: factor times the nominal worst response, minimum one
// cycle. It makes margins meaningful without hand-tuning a deadline per
// net — level 0 always passes under the calibrated budget.
func CalibrateDeadline(prog *codegen.Program, events []rtos.Event, cost rtos.CostModel, cfg RobustConfig, hooks Hooks, factor int64) (int64, error) {
	nom := RunNominal(prog, events, cost, MarginConfig{Robust: cfg, Hooks: func() Hooks { return hooks }})
	return nom.Deadline(factor)
}

// Nominal is one fault-free run of a program's workload: no deadline, no
// cost perturbation, no (m,k) monitor, and each served event's response
// time recorded. The watchdog only observes, so the run serves exactly
// what a run with any deadline serves. The calibrated deadline, the
// (m,k) verdict at any deadline and every overload kind's level 0 are
// therefore read off it instead of simulated again. Its margin searches
// reuse its interpreter, kernel and monitor, so it is not safe for
// concurrent use.
type Nominal struct {
	prog *codegen.Program
	cfg  MarginConfig
	// raw is the workload as given and events the same in time order.
	raw, events []rtos.Event
	r           *runner
	responses   []int64
	maxResponse int64
	// err is the error the run ended with, as RunRobust returns it.
	err error
}

// RunNominal serves the workload once under cfg.Robust with its
// Deadline, MK and Jitter cleared, through hooks built by cfg's hook
// factory. cfg.Kind and cfg.Robust.Deadline are not read: they belong to
// each search made from the run (see SearchMargin), which takes every
// other field from cfg. An error the run ends with is kept and reported
// by Deadline, Verdict and SearchMargin.
func RunNominal(prog *codegen.Program, events []rtos.Event, cost rtos.CostModel, cfg MarginConfig) *Nominal {
	n := &Nominal{prog: prog, cfg: cfg, raw: events, events: timeOrdered(events), r: newRunner(prog, cost)}
	rcfg := cfg.Robust
	rcfg.Deadline, rcfg.MK, rcfg.Jitter = 0, timing.Constraint{}, nil
	n.r.record = true
	err := n.r.run(n.events, 1, rcfg, cfg.hooks(prog), false)
	n.r.record = false
	n.responses, n.r.responses = n.r.responses, nil
	n.maxResponse = n.r.response.max
	if errors.Is(err, codegen.ErrBudgetExceeded) {
		err = budgetError(err)
	}
	n.err = err
	return n
}

// Deadline is factor times the run's worst response, minimum one cycle.
func (n *Nominal) Deadline(factor int64) (int64, error) {
	if n.err != nil {
		return 0, fmt.Errorf("sim: deadline calibration: %w", n.err)
	}
	return max(factor*n.maxResponse, 1), nil
}

// Verdict is the (m,k) verdict, under cfg.MK, of the run judged against
// the given deadline, with the error the run ended with: what RunRobust
// reports for the same run with that deadline and constraint.
func (n *Nominal) Verdict(deadline int64) (*timing.Verdict, error) {
	mon := timing.NewMonitor(n.cfg.MK)
	for _, resp := range n.responses {
		miss := deadline > 0 && resp > deadline
		if miss {
			mon.ObserveOverrun(resp - deadline)
		}
		mon.Observe(miss)
	}
	return mon.Verdict(), n.err
}

// SearchOverloadMargin binary-searches the fault-injector intensity for
// the highest level at which the weakly-hard constraint still holds:
// the overload the implementation tolerates before its timing safety
// breaks. Deterministic for a given (workload, seed, config); every
// probe replays the same seeded injector at a different intensity.
//
// It runs the workload fault-free once (RunNominal) and searches from
// that run, so the calibration and level 0 share it.
func SearchOverloadMargin(prog *codegen.Program, events []rtos.Event, cost rtos.CostModel, cfg MarginConfig) (*OverloadMargin, error) {
	if _, err := cfg.ceiling(); err != nil {
		return nil, err
	}
	return RunNominal(prog, events, cost, cfg).SearchMargin(cfg.Kind, cfg.Robust.Deadline)
}

// SearchMargin searches the margin of one overload kind over the run's
// workload and configuration, against the given deadline (0 calibrates
// it to DefaultDeadlineFactor x the run's worst response). Level 0 is
// the run itself.
//
// The bisection reads only each probe's Satisfied bit, which is final
// once the monitor latches a violating window, so a failing probe stops
// there. The reported Fail level is then replayed in full, outside the
// probe count, so the result is the one full-length probes give.
func (n *Nominal) SearchMargin(kind OverloadKind, deadline int64) (*OverloadMargin, error) {
	cfg := n.cfg
	cfg.Kind = kind
	ceiling, err := cfg.ceiling()
	if err != nil {
		return nil, err
	}
	if deadline == 0 {
		if deadline, err = n.Deadline(DefaultDeadlineFactor); err != nil {
			return nil, err
		}
	}
	rcfg := cfg.Robust
	rcfg.Deadline, rcfg.MK = deadline, cfg.MK
	om := &OverloadMargin{Kind: kind.String(), Deadline: deadline}
	stopped := make(map[int]bool) // levels whose probe stopped early
	probe := func(level int, stopAtViolation bool) (*timing.Verdict, error) {
		if level == 0 {
			v, err := n.Verdict(deadline)
			return probeVerdict(0, v, err)
		}
		events, copies, pcfg := n.probeInput(kind, rcfg, level)
		err := n.r.run(events, copies, pcfg, cfg.hooks(n.prog), stopAtViolation)
		om.ProbeEvents += n.r.service.n
		if n.r.stopped {
			om.ProbeStops++
			stopped[level] = true
		}
		return probeVerdict(level, n.r.mon.Verdict(), err)
	}

	res, err := timing.SearchMargin(ceiling, func(level int) (*timing.Verdict, error) {
		return probe(level, true)
	})
	if err != nil {
		return nil, err
	}
	if res.Fail != nil && stopped[res.Level+1] {
		if res.Fail, err = probe(res.Level+1, false); err != nil {
			return nil, fmt.Errorf("sim: margin replay: %w", err)
		}
	}
	om.Result = res
	return om, nil
}

// ceiling validates the search and resolves its ceiling.
func (cfg MarginConfig) ceiling() (int, error) {
	if err := cfg.MK.Validate(); err != nil {
		return 0, fmt.Errorf("sim: margin search needs a valid (m,k) constraint: %w", err)
	}
	if cfg.Robust.Jitter != nil {
		return 0, fmt.Errorf("sim: margin search owns RobustConfig.Jitter; configure OverloadOverrun instead")
	}
	switch cfg.Kind {
	case OverloadBurst, OverloadJitter, OverloadDrop, OverloadOverrun:
	default:
		return 0, fmt.Errorf("sim: unknown overload kind %v", cfg.Kind)
	}
	ceiling := cfg.Ceiling
	if ceiling <= 0 {
		ceiling = cfg.Kind.defaultCeiling()
	}
	if cfg.Kind == OverloadDrop && ceiling > 100 {
		ceiling = 100
	}
	return ceiling, nil
}

// probeInput builds one probe's workload and run configuration at a
// level above 0: the time-ordered stream, how many times each of its
// events arrives, and the seeded injector of the kind at that intensity.
// A burst of level L is every event arriving L+1 times back to back. That
// is exactly the stream fault.Burst{Pct: 100, Extra: L} makes, since its
// draws cannot change it, so the nominal stream is served L+1 times
// instead of being copied.
func (n *Nominal) probeInput(kind OverloadKind, cfg RobustConfig, level int) ([]rtos.Event, int, RobustConfig) {
	var inj fault.Injector
	switch kind {
	case OverloadBurst:
		return n.events, level + 1, cfg
	case OverloadJitter:
		inj = fault.JitterTicks{Window: int64(level), Source: fault.AnySource}
	case OverloadDrop:
		inj = fault.Drop{Pct: level, Source: fault.AnySource}
	case OverloadOverrun:
		cfg.Jitter = &fault.CostJitter{Seed: n.cfg.Seed, MaxPct: level}
		return n.events, 1, cfg
	}
	return timeOrdered(fault.Scenario{
		Name: "margin-" + kind.String(), Seed: n.cfg.Seed, Injectors: []fault.Injector{inj},
	}.Apply(n.raw)), 1, cfg
}

// probeVerdict turns one probe run into its verdict. A probe that
// exhausts its step budget is a system that cannot keep up with the
// injected overload: it reports a failed level, not a search abort.
func probeVerdict(level int, v *timing.Verdict, err error) (*timing.Verdict, error) {
	if err != nil {
		if errors.Is(err, codegen.ErrBudgetExceeded) && v != nil {
			failed := *v
			failed.Satisfied = false
			return &failed, nil
		}
		return nil, fmt.Errorf("sim: margin probe level %d: %w", level, err)
	}
	return v, nil
}
