package core

import (
	"context"
	"errors"
	"fmt"

	"fcpn/internal/petri"
)

// ErrCycleDeadlock is returned when the firing-count vector cannot be
// realised from the initial marking: the reduction deadlocks (the
// executability failure of the paper's footnote 2).
var ErrCycleDeadlock = errors.New("core: deadlock while realising T-invariant")

// FindCompleteCycle searches a firing sequence of the (conflict-free) net
// that fires each transition t exactly counts[t] times starting and ending
// at the initial marking: a finite complete cycle (Section 2).
//
// Conflict-free nets are persistent — no two transitions share an input
// place, so firing an enabled transition never disables another. Greedy
// simulation is therefore complete: if any realising sequence exists, the
// greedy one succeeds, and getting stuck proves deadlock. Transitions are
// tried in index order, giving a deterministic sequence.
//
// maxLen bounds the sequence length defensively.
func FindCompleteCycle(n *petri.Net, counts []int, maxLen int) ([]petri.Transition, error) {
	return FindCompleteCycleStrategy(n, counts, maxLen, StrategyRoundRobin)
}

// findCompleteCycle is the greedy loop of FindCompleteCycleStrategy on n
// restricted to the kept transitions ts (ascending) and the kept places
// keptP: the induced subnet of a T-reduction, without building it.
// counts and the remaining vector of a deadlock diagnosis are indexed by
// position in ts, diagnosed markings list the kept places only, and the
// sequence is returned in n's transitions. Every place adjacent to a kept
// transition must be kept, as it is in every T-reduction
// (restriction-exactness, docs/ALGORITHM.md §6), so firing on n moves
// tokens exactly as firing on the subnet would. FindCompleteCycleStrategy
// keeps every node. strat picks which enabled transitions each greedy sweep
// fires; the error texts do not depend on it. ctx (nil never cancels) is
// checked once per greedy sweep so a deadline can interrupt a realisation
// of up to maxLen (2^20 in the solver) firings.
func findCompleteCycle(ctx context.Context, n *petri.Net, ts []petri.Transition, keptP petri.NodeSet, counts []int, maxLen int, strat CycleStrategy) ([]petri.Transition, error) {
	if len(counts) != len(ts) {
		return nil, fmt.Errorf("core: counts length %d != %d transitions", len(counts), len(ts))
	}
	if !conflictFree(n, ts) {
		return nil, errors.New("core: FindCompleteCycle requires a conflict-free net")
	}
	total := 0
	for _, c := range counts {
		if c < 0 {
			return nil, fmt.Errorf("core: negative firing count %v", counts)
		}
		total += c
	}
	if total > maxLen {
		return nil, fmt.Errorf("core: cycle of %d firings exceeds cap %d: %w", total, maxLen, ErrBudgetExceeded)
	}
	remaining := append([]int(nil), counts...)
	m := n.InitialMarking()
	seq := make([]petri.Transition, 0, total)
	// fire fires ts[i] once, if it has firings left and is enabled.
	fire := func(i int) bool {
		if remaining[i] == 0 || !n.Enabled(m, ts[i]) {
			return false
		}
		n.MustFire(m, ts[i])
		remaining[i]--
		seq = append(seq, ts[i])
		return true
	}
	for len(seq) < total {
		if err := ctxErr(ctx); err != nil {
			return nil, fmt.Errorf("cycle search interrupted after %d of %d firings: %w", len(seq), total, err)
		}
		fired := false
		switch strat {
		case StrategyBatch:
			// Exhaust the first transition that can fire.
			for i := 0; i < len(ts) && !fired; i++ {
				for fire(i) {
					fired = true
				}
			}
		case StrategyDemand:
			// Fire the deepest transition that can fire, once.
			for i := len(ts) - 1; i >= 0 && !fired; i-- {
				fired = fire(i)
			}
		default: // round-robin
			for i := range ts {
				if fire(i) {
					fired = true
				}
			}
		}
		if !fired {
			return nil, fmt.Errorf("%w: %d of %d firings done, stuck at %s with remaining %v",
				ErrCycleDeadlock, len(seq), total, restrictMarking(m, keptP), remaining)
		}
	}
	init := n.InitialMarking()
	for p := range m {
		if keptP.Has(p) && m[p] != init[p] {
			return nil, fmt.Errorf("core: firing vector is not a T-invariant: final marking %s != initial %s",
				restrictMarking(m, keptP), restrictMarking(init, keptP))
		}
	}
	return seq, nil
}

// conflictFree reports whether no two of the transitions ts share an input
// place.
func conflictFree(n *petri.Net, ts []petri.Transition) bool {
	consumed := petri.NewNodeSet(n.NumPlaces())
	for _, t := range ts {
		for _, a := range n.Pre(t) {
			if consumed.Has(int(a.Place)) {
				return false
			}
			consumed.Add(int(a.Place))
		}
	}
	return true
}

// restrictMarking lists m's token counts on the kept places, in index
// order: the marking of the induced subnet.
func restrictMarking(m petri.Marking, keptP petri.NodeSet) petri.Marking {
	out := make(petri.Marking, 0, len(m))
	for p, k := range m {
		if keptP.Has(p) {
			out = append(out, k)
		}
	}
	return out
}

// VerifyCompleteCycle replays seq on the net from the initial marking and
// checks it is a finite complete cycle: every firing enabled, final
// marking equal to the initial one.
func VerifyCompleteCycle(n *petri.Net, seq []petri.Transition) error {
	m := n.InitialMarking()
	if _, err := n.FireSequence(m, seq); err != nil {
		return err
	}
	if !m.Equal(n.InitialMarking()) {
		return fmt.Errorf("core: sequence ends at %s, not the initial marking %s", m, n.InitialMarking())
	}
	return nil
}
