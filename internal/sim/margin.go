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
	cfg.Deadline = 0
	cfg.MK = timing.Constraint{}
	cfg.Jitter = nil
	rm, err := RunRobust(prog, events, cost, cfg, hooks)
	if err != nil {
		return 0, fmt.Errorf("sim: deadline calibration: %w", err)
	}
	d := factor * rm.ResponseMax
	if d < 1 {
		d = 1
	}
	return d, nil
}

// SearchOverloadMargin binary-searches the fault-injector intensity for
// the highest level at which the weakly-hard constraint still holds:
// the overload the implementation tolerates before its timing safety
// breaks. Deterministic for a given (workload, seed, config); every
// probe replays the same seeded injector at a different intensity.
//
// The bisection reads only each probe's Satisfied bit, which is final
// once the monitor latches a violating window, so a failing probe stops
// there. The reported Fail level is then replayed in full, outside the
// probe count, so the result is the one full-length probes give.
func SearchOverloadMargin(prog *codegen.Program, events []rtos.Event, cost rtos.CostModel, cfg MarginConfig) (*OverloadMargin, error) {
	ceiling, deadline, err := cfg.prepare(prog, events, cost)
	if err != nil {
		return nil, err
	}
	om := &OverloadMargin{Kind: cfg.Kind.String(), Deadline: deadline}
	stopped := make(map[int]bool) // levels whose probe stopped early
	probe := func(level int, stopAtViolation bool) (*timing.Verdict, error) {
		stream, rcfg := cfg.probeInput(events, deadline, level)
		rm, stop, err := runRobust(prog, stream, cost, rcfg, cfg.hooks(prog), stopAtViolation)
		if rm != nil {
			om.ProbeEvents += int64(rm.Events)
		}
		if stop {
			om.ProbeStops++
			stopped[level] = true
		}
		return probeVerdict(level, rm, err)
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

// prepare validates the search and resolves its ceiling and deadline.
func (cfg MarginConfig) prepare(prog *codegen.Program, events []rtos.Event, cost rtos.CostModel) (ceiling int, deadline int64, err error) {
	if err := cfg.MK.Validate(); err != nil {
		return 0, 0, fmt.Errorf("sim: margin search needs a valid (m,k) constraint: %w", err)
	}
	if cfg.Robust.Jitter != nil {
		return 0, 0, fmt.Errorf("sim: margin search owns RobustConfig.Jitter; configure OverloadOverrun instead")
	}
	switch cfg.Kind {
	case OverloadBurst, OverloadJitter, OverloadDrop, OverloadOverrun:
	default:
		return 0, 0, fmt.Errorf("sim: unknown overload kind %v", cfg.Kind)
	}
	ceiling = cfg.Ceiling
	if ceiling <= 0 {
		ceiling = cfg.Kind.defaultCeiling()
	}
	if cfg.Kind == OverloadDrop && ceiling > 100 {
		ceiling = 100
	}
	deadline = cfg.Robust.Deadline
	if deadline == 0 {
		deadline, err = CalibrateDeadline(prog, events, cost, cfg.Robust, cfg.hooks(prog), DefaultDeadlineFactor)
		if err != nil {
			return 0, 0, err
		}
	}
	return ceiling, deadline, nil
}

// probeInput builds one probe's workload and run configuration: the
// seeded injector of the search's kind at the given intensity.
func (cfg MarginConfig) probeInput(events []rtos.Event, deadline int64, level int) ([]rtos.Event, RobustConfig) {
	rcfg := cfg.Robust
	rcfg.Deadline = deadline
	rcfg.MK = cfg.MK
	var inj fault.Injector
	switch cfg.Kind {
	case OverloadBurst:
		inj = fault.Burst{Pct: 100, Extra: level, Source: fault.AnySource}
	case OverloadJitter:
		inj = fault.JitterTicks{Window: int64(level), Source: fault.AnySource}
	case OverloadDrop:
		inj = fault.Drop{Pct: level, Source: fault.AnySource}
	case OverloadOverrun:
		rcfg.Jitter = &fault.CostJitter{Seed: cfg.Seed, MaxPct: level}
		return events, rcfg
	}
	if level == 0 {
		return events, rcfg
	}
	return fault.Scenario{
		Name: "margin-" + cfg.Kind.String(), Seed: cfg.Seed, Injectors: []fault.Injector{inj},
	}.Apply(events), rcfg
}

// probeVerdict turns one probe run into its verdict. A probe that
// exhausts its step budget is a system that cannot keep up with the
// injected overload: it reports a failed level, not a search abort.
func probeVerdict(level int, rm *RobustMetrics, err error) (*timing.Verdict, error) {
	if err != nil {
		if errors.Is(err, codegen.ErrBudgetExceeded) && rm != nil && rm.Timing != nil {
			v := *rm.Timing
			v.Satisfied = false
			return &v, nil
		}
		return nil, fmt.Errorf("sim: margin probe level %d: %w", level, err)
	}
	return rm.Timing, nil
}
