package timing

import "fmt"

// Probe runs the system under test at one integer overload level and
// returns the constraint verdict. Level 0 is the nominal (fault-free)
// intensity; higher levels mean harsher overload. Probes must be pure
// in the level (seeded, no shared state across calls) so the search is
// reproducible.
type Probe func(level int) (*Verdict, error)

// MarginResult is the outcome of SearchMargin: the graceful-degradation
// frontier of one overload dimension.
type MarginResult struct {
	// Level is the largest probed intensity whose verdict satisfied the
	// constraint: -1 when even the nominal run (level 0) violates it.
	Level int `json:"level"`
	// Ceiling is the search's upper bound. Level == Ceiling means the
	// constraint held at every probed intensity — the dimension never
	// broke it within the searched range.
	Ceiling int `json:"ceiling"`
	// Probes counts probe invocations (≤ 2 + ⌈log2(Ceiling)⌉: level 0,
	// the ceiling, then one per halving of the open interval).
	Probes int `json:"probes"`
	// Pass is the verdict at Level (nil when Level < 0); Fail is the
	// verdict at the first failing level found, Level+1 after the
	// bisection converges (nil when Level == Ceiling).
	Pass *Verdict `json:"pass,omitempty"`
	Fail *Verdict `json:"fail,omitempty"`
}

// String summarises the frontier for CLI output.
func (r *MarginResult) String() string {
	switch {
	case r.Level < 0:
		return fmt.Sprintf("margin -1 (nominal run already violates; %d probes)", r.Probes)
	case r.Level == r.Ceiling:
		return fmt.Sprintf("margin >= %d (never violated within ceiling; %d probes)", r.Ceiling, r.Probes)
	default:
		return fmt.Sprintf("margin %d of %d (breaks at %d; %d probes)", r.Level, r.Ceiling, r.Level+1, r.Probes)
	}
}

// SearchMargin bisects [0, ceiling] for the largest overload level the
// constraint tolerates. It maintains the invariant pass(lo) ∧ fail(hi):
// for a monotone system the result is the exact frontier; for a
// non-monotone one it is still a well-defined boundary point — a level
// that passes whose successor fails — reached deterministically, so the
// same seeded probe reproduces the same margin.
func SearchMargin(ceiling int, probe Probe) (*MarginResult, error) {
	if ceiling < 0 {
		return nil, fmt.Errorf("timing: margin ceiling must be >= 0, got %d", ceiling)
	}
	res := &MarginResult{Ceiling: ceiling}
	run := func(level int) (*Verdict, error) {
		res.Probes++
		v, err := probe(level)
		if err != nil {
			return nil, fmt.Errorf("timing: margin probe at level %d: %w", level, err)
		}
		if v == nil {
			return nil, fmt.Errorf("timing: margin probe at level %d returned no verdict", level)
		}
		return v, nil
	}

	v0, err := run(0)
	if err != nil {
		return nil, err
	}
	if !v0.Satisfied {
		res.Level = -1
		res.Fail = v0
		return res, nil
	}
	if ceiling == 0 {
		res.Level = 0
		res.Pass = v0
		return res, nil
	}
	vc, err := run(ceiling)
	if err != nil {
		return nil, err
	}
	if vc.Satisfied {
		res.Level = ceiling
		res.Pass = vc
		return res, nil
	}

	lo, hi := 0, ceiling // invariant: lo passes, hi fails
	passV, failV := v0, vc
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		v, err := run(mid)
		if err != nil {
			return nil, err
		}
		if v.Satisfied {
			lo, passV = mid, v
		} else {
			hi, failV = mid, v
		}
	}
	res.Level = lo
	res.Pass = passV
	res.Fail = failV
	return res, nil
}
