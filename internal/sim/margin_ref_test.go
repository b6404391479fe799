package sim

import (
	"fcpn/internal/codegen"
	"fcpn/internal/rtos"
	"fcpn/internal/timing"
)

// SearchOverloadMarginFull is the reference for SearchOverloadMargin:
// the same bisection over the same probe inputs, with every probe a
// full RunRobust run and no replay. The early-stopping search must
// marshal to the same JSON for every input.
func SearchOverloadMarginFull(prog *codegen.Program, events []rtos.Event, cost rtos.CostModel, cfg MarginConfig) (*OverloadMargin, error) {
	ceiling, deadline, err := cfg.prepare(prog, events, cost)
	if err != nil {
		return nil, err
	}
	res, err := timing.SearchMargin(ceiling, func(level int) (*timing.Verdict, error) {
		stream, rcfg := cfg.probeInput(events, deadline, level)
		rm, err := RunRobust(prog, stream, cost, rcfg, cfg.hooks(prog))
		return probeVerdict(level, rm, err)
	})
	if err != nil {
		return nil, err
	}
	return &OverloadMargin{Kind: cfg.Kind.String(), Deadline: deadline, Result: res}, nil
}
