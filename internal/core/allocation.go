package core

import (
	"context"
	"fmt"
	"math"
	"strings"

	"fcpn/internal/petri"
)

// Allocation is a T-allocation (Definition 3.3): a function choosing
// exactly one successor transition for every place. Non-choice places have
// a unique successor, so an allocation is determined by its decisions at
// the free-choice clusters.
type Allocation struct {
	// Clusters are the free-choice clusters of the net, in the canonical
	// order of petri.FreeChoiceSets.
	Clusters []petri.ConflictCluster
	// Chosen[i] is the transition selected from Clusters[i].
	Chosen []petri.Transition
}

// Allocated reports whether transition t is allocated: every transition is
// allocated except the non-chosen members of the choice clusters.
func (a *Allocation) Allocated(t petri.Transition) bool {
	for i, c := range a.Clusters {
		for _, u := range c.Transitions {
			if u == t {
				return a.Chosen[i] == t
			}
		}
	}
	return true
}

// String renders the allocation as "p1→t2, p5→t9".
func (a *Allocation) describe(n *petri.Net) string {
	parts := make([]string, len(a.Clusters))
	for i, c := range a.Clusters {
		names := make([]string, len(c.Places))
		for j, p := range c.Places {
			names[j] = n.PlaceName(p)
		}
		parts[i] = fmt.Sprintf("%s→%s", strings.Join(names, "+"), n.TransitionName(a.Chosen[i]))
	}
	return strings.Join(parts, ", ")
}

// EnumerateAllocations produces every T-allocation of the net, i.e. the
// cartesian product of the free-choice clusters' alternatives. The result
// is deterministic: clusters in canonical order, alternatives in transition
// index order, first allocation = all-first-alternatives. It fails with
// ErrTooManyAllocations when the product exceeds max.
func EnumerateAllocations(n *petri.Net, max int) ([]*Allocation, error) {
	if max <= 0 {
		max = Options{}.maxAllocations()
	}
	clusters := n.FreeChoiceSets()
	total := 1
	for _, c := range clusters {
		// Exact overflow-free boundary: total*len > max ⟺ total > ⌊max/len⌋.
		if total > max/len(c.Transitions) {
			total = max + 1
			break
		}
		total *= len(c.Transitions)
	}
	if total > max {
		return nil, fmt.Errorf("%w: %d free-choice clusters yield more than %d allocations",
			ErrTooManyAllocations, len(clusters), max)
	}
	out := make([]*Allocation, 0, total)
	choice := make([]int, len(clusters))
	for {
		chosen := make([]petri.Transition, len(clusters))
		for i, c := range clusters {
			chosen[i] = c.Transitions[choice[i]]
		}
		out = append(out, &Allocation{Clusters: clusters, Chosen: chosen})
		// Odometer increment.
		i := len(clusters) - 1
		for ; i >= 0; i-- {
			choice[i]++
			if choice[i] < len(clusters[i].Transitions) {
				break
			}
			choice[i] = 0
		}
		if i < 0 {
			break
		}
	}
	return out, nil
}

// CountAllocations returns the number of T-allocations without enumerating
// them (product of cluster sizes), saturating at math.MaxInt. Callers that
// serialise the count should use CountAllocationsSat and mark saturation
// explicitly rather than report the ceiling as a real count.
func CountAllocations(n *petri.Net) int {
	count, _ := CountAllocationsSat(n)
	return count
}

// CountAllocationsSat is CountAllocations with an explicit saturation
// flag: saturated is true when the true product exceeds math.MaxInt (the
// returned count is then the ceiling, not the real value).
func CountAllocationsSat(n *petri.Net) (count int, saturated bool) {
	total := 1
	for _, c := range n.FreeChoiceSets() {
		if total > math.MaxInt/len(c.Transitions) {
			return math.MaxInt, true
		}
		total *= len(c.Transitions)
	}
	return total, false
}

// EnumerateDistinctReductions produces every *distinct* T-reduction of the
// net without enumerating the full allocation product. It branches lazily:
// starting from the all-first-alternatives allocation, it only splits on
// choice clusters whose choice place actually survives in the current
// reduction — clusters cut away by an upstream decision contribute no new
// reductions, which is why the ATM model's 2¹¹ allocations collapse to a
// few dozen reduce calls. The search is output-sensitive:
// O(distinct reductions × branching) Reduce invocations.
//
// maxReductions caps the result (≤ 0 means Options' allocation default).
func EnumerateDistinctReductions(n *petri.Net, maxReductions int) ([]*Reduction, error) {
	return EnumerateDistinctReductionsCtx(nil, n, maxReductions)
}

// EnumerateDistinctReductionsCtx is EnumerateDistinctReductions with a
// cancellation context (nil never cancels), checked once per Reduce call
// so a per-job deadline can interrupt an adversarial choice structure
// mid-search.
func EnumerateDistinctReductionsCtx(ctx context.Context, n *petri.Net, maxReductions int) ([]*Reduction, error) {
	if maxReductions <= 0 {
		maxReductions = Options{}.maxAllocations()
	}
	clusters := n.FreeChoiceSets()
	var out []*Reduction
	seen := map[string]bool{}
	// One reducer serves the whole search: its scratch buffers (alive
	// masks, producer counts, worklist) are reused across every reduce
	// call, so the enumeration's cost per node is O(arcs) with no
	// per-call allocation beyond the result.
	rd := newReducer(n)

	// assignment[i] = chosen alternative index for cluster i, -1 if the
	// cluster has not been forced by the search yet (defaults to 0).
	var explore func(assignment []int) error
	explore = func(assignment []int) error {
		if err := ctxErr(ctx); err != nil {
			return fmt.Errorf("reduction enumeration interrupted after %d distinct reductions: %w", len(out), err)
		}
		chosen := make([]petri.Transition, len(clusters))
		for i, c := range clusters {
			alt := assignment[i]
			if alt < 0 {
				alt = 0
			}
			chosen[i] = c.Transitions[alt]
		}
		red := rd.reduce(&Allocation{Clusters: clusters, Chosen: chosen})
		// Find the first unforced cluster whose choice place survives:
		// its resolution genuinely matters, so branch on it.
		for i, c := range clusters {
			if assignment[i] >= 0 {
				continue
			}
			kept := false
			for _, p := range c.Places {
				if red.KeepsPlace(p) {
					kept = true
					break
				}
			}
			if !kept {
				continue
			}
			for alt := range c.Transitions {
				next := append([]int(nil), assignment...)
				next[i] = alt
				if err := explore(next); err != nil {
					return err
				}
			}
			return nil
		}
		// Fully determined: record if new.
		key := red.TransitionSetKey()
		if !seen[key] {
			seen[key] = true
			out = append(out, red)
			if len(out) > maxReductions {
				return fmt.Errorf("%w: more than %d distinct T-reductions", ErrTooManyAllocations, maxReductions)
			}
		}
		return nil
	}
	initial := make([]int, len(clusters))
	for i := range initial {
		initial[i] = -1
	}
	if err := explore(initial); err != nil {
		return nil, err
	}
	return out, nil
}
