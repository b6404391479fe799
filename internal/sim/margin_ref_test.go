package sim

import (
	"errors"
	"fmt"

	"fcpn/internal/codegen"
	"fcpn/internal/fault"
	"fcpn/internal/rtos"
	"fcpn/internal/timing"
)

// SearchOverloadMarginFull is the reference for SearchOverloadMargin:
// the same bisection, built only from the package's exported pieces.
// It calibrates the deadline with a RunRobust run of its own, builds
// every probe's stream with fault.Scenario.Apply (bursts included, and
// level 0 too), runs every probe in full through RunRobust and replays
// nothing. The search must marshal to the same JSON for every input.
func SearchOverloadMarginFull(prog *codegen.Program, events []rtos.Event, cost rtos.CostModel, cfg MarginConfig) (*OverloadMargin, error) {
	if err := cfg.MK.Validate(); err != nil {
		return nil, err
	}
	if cfg.Robust.Jitter != nil {
		return nil, errors.New("reference: RobustConfig.Jitter is the search's")
	}
	ceiling := cfg.Ceiling
	if ceiling <= 0 {
		ceiling = map[OverloadKind]int{OverloadBurst: 64, OverloadJitter: 1 << 12, OverloadDrop: 100, OverloadOverrun: 700}[cfg.Kind]
	}
	if cfg.Kind == OverloadDrop && ceiling > 100 {
		ceiling = 100
	}
	hooks := func() Hooks {
		if cfg.Hooks != nil {
			return cfg.Hooks()
		}
		return Hooks{Resolver: NewDecisionStream(prog.Net, cfg.Seed).Resolver()}
	}
	deadline := cfg.Robust.Deadline
	if deadline == 0 {
		nominal := cfg.Robust
		nominal.MK = timing.Constraint{}
		rm, err := RunRobust(prog, events, cost, nominal, hooks())
		if err != nil {
			return nil, fmt.Errorf("reference calibration: %w", err)
		}
		deadline = max(DefaultDeadlineFactor*rm.ResponseMax, 1)
	}
	res, err := timing.SearchMargin(ceiling, func(level int) (*timing.Verdict, error) {
		rcfg := cfg.Robust
		rcfg.Deadline, rcfg.MK = deadline, cfg.MK
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
		default:
			return nil, fmt.Errorf("reference: unknown kind %v", cfg.Kind)
		}
		stream := events
		if inj != nil {
			stream = fault.Scenario{Seed: cfg.Seed, Injectors: []fault.Injector{inj}}.Apply(events)
		}
		rm, err := RunRobust(prog, stream, cost, rcfg, hooks())
		if err != nil {
			// A probe out of step budget fails its level.
			if errors.Is(err, codegen.ErrBudgetExceeded) && rm != nil && rm.Timing != nil {
				v := *rm.Timing
				v.Satisfied = false
				return &v, nil
			}
			return nil, err
		}
		return rm.Timing, nil
	})
	if err != nil {
		return nil, err
	}
	return &OverloadMargin{Kind: cfg.Kind.String(), Deadline: deadline, Result: res}, nil
}
