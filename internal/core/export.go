package core

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"

	"fcpn/internal/petri"
)

// ScheduleExport is the serialisable form of a valid schedule: everything
// a downstream tool needs to regenerate or audit the synthesis, with nodes
// referenced by name.
type ScheduleExport struct {
	Net         string `json:"net"`
	Allocations int    `json:"allocations"`
	// AllocationsSaturated marks Allocations as the math.MaxInt ceiling
	// (the true T-allocation product overflowed int), so downstream tools
	// never mistake the cap for a real count.
	AllocationsSaturated bool          `json:"allocation_count_saturated,omitempty"`
	Cycles               []CycleExport `json:"cycles"`
}

// CycleExport is one finite complete cycle in name form. Choices and
// Counts hold their entries sorted by name, and each marshals as a JSON
// object keyed by name, the object a map would give; Lookup finds a
// name's entry.
type CycleExport struct {
	// Choices maps each choice place to the transition the cycle's
	// T-allocation selected.
	Choices Entries[string] `json:"choices"`
	// Sequence is the firing order.
	Sequence []string `json:"sequence"`
	// Counts is the firing-count vector, transitions with zero count
	// omitted.
	Counts Entries[int] `json:"counts"`
}

// Export converts the schedule to its serialisable form. The transitions
// are sorted by name once per call and the choice places once per
// cluster list the cycles' allocations share, so each cycle costs
// O(places + transitions) and every cycle's names, choices and counts
// come from one backing array each. A cycle's firing counts are tallied
// off its sequence into one scratch vector, which the name-ordered read
// of the counts empties for the next cycle.
func (s *Schedule) Export() *ScheduleExport {
	n := s.Net
	out := &ScheduleExport{
		Net:                  n.Name(),
		Allocations:          s.AllocationCount,
		AllocationsSaturated: s.AllocationCountSaturated,
	}
	if len(s.Cycles) == 0 {
		return out
	}
	// Sizing pass: tally[t] is the last cycle, counted from 1, that fires
	// t, so fired counts each cycle's distinct transitions once.
	tally := make([]int, n.NumTransitions())
	steps, fired := 0, 0
	for i, c := range s.Cycles {
		steps += len(c.Sequence)
		for _, t := range c.Sequence {
			if tally[t] != i+1 {
				tally[t] = i + 1
				fired++
			}
		}
	}
	clear(tally)
	byName := make([]petri.Transition, n.NumTransitions())
	for t := range byName {
		byName[t] = petri.Transition(t)
	}
	slices.SortFunc(byName, func(a, b petri.Transition) int {
		return strings.Compare(n.TransitionName(a), n.TransitionName(b))
	})
	var clusters []petri.ConflictCluster
	var places []choicePlace
	seqNames := make([]string, 0, steps)
	counts := make(Entries[int], 0, fired)
	var choices Entries[string]
	out.Cycles = make([]CycleExport, len(s.Cycles))
	for i, c := range s.Cycles {
		alloc := c.Allocation
		if choices == nil || !sameClusters(alloc.Clusters, clusters) {
			clusters = alloc.Clusters
			places = choicePlaces(n, clusters)
			choices = make(Entries[string], 0, (len(s.Cycles)-i)*len(places))
		}
		start := len(choices)
		for _, cp := range places {
			choices = append(choices, Entry[string]{cp.name, n.TransitionName(alloc.Chosen[cp.cluster])})
		}
		ce := &out.Cycles[i]
		ce.Choices = choices[start:len(choices):len(choices)]
		start = len(seqNames)
		for _, t := range c.Sequence {
			seqNames = append(seqNames, n.TransitionName(t))
			tally[t]++
		}
		ce.Sequence = seqNames[start:len(seqNames):len(seqNames)]
		start = len(counts)
		for _, t := range byName {
			if k := tally[t]; k > 0 {
				counts = append(counts, Entry[int]{n.TransitionName(t), k})
				tally[t] = 0
			}
		}
		ce.Counts = counts[start:len(counts):len(counts)]
	}
	return out
}

// choicePlace is a choice place's name and the index of its cluster.
type choicePlace struct {
	name    string
	cluster int
}

// choicePlaces lists the places of the clusters sorted by name.
func choicePlaces(n *petri.Net, clusters []petri.ConflictCluster) []choicePlace {
	var out []choicePlace
	for i, c := range clusters {
		for _, p := range c.Places {
			out = append(out, choicePlace{n.PlaceName(p), i})
		}
	}
	slices.SortFunc(out, func(a, b choicePlace) int { return strings.Compare(a.name, b.name) })
	return out
}

// sameClusters reports whether a and b are the same cluster list: the
// allocations of one schedule share the net's FreeChoiceSets slice.
func sameClusters(a, b []petri.ConflictCluster) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// MarshalJSON serialises the schedule through its export form.
func (s *Schedule) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.Export())
}

// ImportSchedule reconstructs a Schedule from its export form against the
// given net and validates it fully: every referenced node must exist,
// every cycle must be a finite complete cycle consistent with its declared
// choice resolutions, and the cycle set must cover every distinct
// T-reduction of the net (Theorem 3.1's completeness). It returns a
// descriptive error otherwise — the entry point for schedules produced by
// external tools.
func ImportSchedule(n *petri.Net, ex *ScheduleExport) (*Schedule, error) {
	if ex == nil {
		return nil, fmt.Errorf("core: nil schedule export")
	}
	clusters := n.FreeChoiceSets()
	count, saturated := CountAllocationsSat(n)
	sched := &Schedule{Net: n, AllocationCount: count, AllocationCountSaturated: saturated}
	seen := map[string]bool{}
	for ci, ce := range ex.Cycles {
		seq := make([]petri.Transition, len(ce.Sequence))
		for i, name := range ce.Sequence {
			t, ok := n.TransitionByName(name)
			if !ok {
				return nil, fmt.Errorf("core: cycle %d: unknown transition %q", ci, name)
			}
			seq[i] = t
		}
		if err := VerifyCompleteCycle(n, seq); err != nil {
			return nil, fmt.Errorf("core: cycle %d: %w", ci, err)
		}
		counts := n.FiringCount(seq)
		// Rebuild the allocation from the declared choices, defaulting
		// unnamed clusters to their first alternative.
		chosen := make([]petri.Transition, len(clusters))
		for i, c := range clusters {
			chosen[i] = c.Transitions[0]
			for _, p := range c.Places {
				if name, ok := ce.Choices.Lookup(n.PlaceName(p)); ok {
					t, tok := n.TransitionByName(name)
					if !tok {
						return nil, fmt.Errorf("core: cycle %d: unknown choice target %q", ci, name)
					}
					found := false
					for _, alt := range c.Transitions {
						if alt == t {
							found = true
						}
					}
					if !found {
						return nil, fmt.Errorf("core: cycle %d: %q is not an alternative of choice %q",
							ci, name, n.PlaceName(p))
					}
					chosen[i] = t
				}
			}
		}
		// The cycle must not fire any transition its allocation excludes.
		alloc := &Allocation{Clusters: clusters, Chosen: chosen}
		for t, k := range counts {
			if k > 0 && !alloc.Allocated(petri.Transition(t)) {
				return nil, fmt.Errorf("core: cycle %d fires %s, excluded by its declared choices",
					ci, n.TransitionName(petri.Transition(t)))
			}
		}
		red := Reduce(n, alloc)
		key := string(appendKeptKey(nil, red.keptT))
		if seen[key] {
			return nil, fmt.Errorf("core: cycle %d duplicates the T-reduction of an earlier cycle", ci)
		}
		seen[key] = true
		// Completeness per reduction: every kept transition fires.
		for _, pt := range red.KeptTransitions() {
			if counts[pt] == 0 {
				return nil, fmt.Errorf("core: cycle %d misses transition %s of its T-reduction",
					ci, n.TransitionName(pt))
			}
		}
		sched.Cycles = append(sched.Cycles, Cycle{Sequence: seq, Allocation: alloc})
	}
	// Coverage: one cycle per distinct T-reduction of the net.
	want, err := EnumerateDistinctReductions(n, 0)
	if err != nil {
		return nil, err
	}
	if len(sched.Cycles) != len(want) {
		return nil, fmt.Errorf("core: schedule has %d cycles, net has %d distinct T-reductions",
			len(sched.Cycles), len(want))
	}
	return sched, nil
}
