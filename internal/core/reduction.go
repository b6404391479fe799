package core

import (
	"strconv"
	"sync"

	"fcpn/internal/petri"
)

// Reduction is a T-reduction (Definition 3.4): the conflict-free subnet
// obtained from the net by removing the part that is inactive under a
// given T-allocation.
//
// The reduction is stored compactly as kept-node bitsets over the parent
// net plus the removal log in (opcode, node) form. The induced subnet Net —
// name lookups, string keys, arc-by-arc Builder calls — is materialised
// lazily by Subnet(): the distinct-reduction search reduces many
// allocations per distinct reduction, and the duplicates it discards never
// need a materialised Net at all.
type Reduction struct {
	// Allocation is the choice resolution this reduction corresponds to.
	Allocation *Allocation

	net          *petri.Net
	keptT, keptP petri.NodeSet
	numT, numP   int
	steps        []reduceStep

	subOnce sync.Once
	sub     *petri.Subnet
	keyOnce sync.Once
	key     string
}

// reduceStep is one removal of the reduction algorithm in compact form;
// Steps renders the human-readable strings on demand so the enumeration
// hot loop never pays fmt/concat costs.
type reduceStep struct {
	op   reduceOp
	node int32
}

type reduceOp uint8

const (
	opRemovePlace reduceOp = iota
	opUnallocated
	opNoInputPlace
	opAllSourceInputs
)

// Subnet materialises the induced conflict-free subnet with parent index
// maps, computing it on first use and memoising it for the reduction's
// lifetime (safe for concurrent use).
func (r *Reduction) Subnet() *petri.Subnet {
	r.subOnce.Do(func() {
		r.sub = r.net.InducedSubnet(r.net.Name()+"/"+r.Allocation.describe(r.net),
			r.KeptTransitions(), r.KeptPlaces())
	})
	return r.sub
}

// Steps renders the removal trace performed by the reduction algorithm, in
// order (used to reproduce Figure 6).
func (r *Reduction) Steps() []string {
	out := make([]string, len(r.steps))
	for i, s := range r.steps {
		switch s.op {
		case opRemovePlace:
			out[i] = "remove " + r.net.PlaceName(petri.Place(s.node))
		case opUnallocated:
			out[i] = "remove " + r.net.TransitionName(petri.Transition(s.node)) + " (unallocated)"
		case opNoInputPlace:
			out[i] = "remove " + r.net.TransitionName(petri.Transition(s.node)) + " (no input place)"
		case opAllSourceInputs:
			out[i] = "remove " + r.net.TransitionName(petri.Transition(s.node)) + " (all inputs are source places)"
		}
	}
	return out
}

// KeepsTransition reports whether parent transition t survives.
func (r *Reduction) KeepsTransition(t petri.Transition) bool { return r.keptT.Has(int(t)) }

// KeepsPlace reports whether parent place p survives.
func (r *Reduction) KeepsPlace(p petri.Place) bool { return r.keptP.Has(int(p)) }

// KeptTransitions lists the surviving transitions in parent index order.
func (r *Reduction) KeptTransitions() []petri.Transition {
	out := make([]petri.Transition, 0, r.numT)
	for t := 0; t < r.net.NumTransitions(); t++ {
		if r.keptT.Has(t) {
			out = append(out, petri.Transition(t))
		}
	}
	return out
}

// KeptPlaces lists the surviving places in parent index order.
func (r *Reduction) KeptPlaces() []petri.Place {
	out := make([]petri.Place, 0, r.numP)
	for p := 0; p < r.net.NumPlaces(); p++ {
		if r.keptP.Has(p) {
			out = append(out, petri.Place(p))
		}
	}
	return out
}

// TransitionSetKey returns the canonical key identifying the reduction by
// its kept parent transition set — the same bytes as
// petri.Subnet.TransitionSetKey, without materialising the subnet. Two
// reductions with the same key are duplicates for scheduling purposes.
func (r *Reduction) TransitionSetKey() string {
	r.keyOnce.Do(func() {
		key := make([]byte, 0, r.numT*3)
		for t := 0; t < r.net.NumTransitions(); t++ {
			if r.keptT.Has(t) {
				key = strconv.AppendInt(key, int64(t), 10)
				key = append(key, ',')
			}
		}
		r.key = string(key)
	})
	return r.key
}

// KeptTransitionNames lists the surviving transitions by name, for tests.
func (r *Reduction) KeptTransitionNames(n *petri.Net) []string {
	out := make([]string, 0, r.numT)
	for _, t := range r.KeptTransitions() {
		out = append(out, n.TransitionName(t))
	}
	return out
}

// KeptPlaceNames lists the surviving places by name, for tests.
func (r *Reduction) KeptPlaceNames(n *petri.Net) []string {
	out := make([]string, 0, r.numP)
	for _, p := range r.KeptPlaces() {
		out = append(out, n.PlaceName(p))
	}
	return out
}

// Reduce applies the paper's modified Hack reduction algorithm (Section 3,
// Step 1) to the net under the given allocation:
//
//  1. Start from the full net.
//  2. Remove every non-allocated (conflict) transition t. For each place s
//     in t's postset, remove s unless (i) s has another surviving producer
//     or (ii) some surviving consumer of s has another surviving input
//     place that is not a source place (a place with no surviving
//     producers).
//  3. When a place s is removed, remove each consumer t of s when (i) t
//     has no surviving input place, or (ii) all of t's surviving input
//     places are source places — in which case those places are removed
//     too.
//  4. Iterate until no rule applies.
//
// The result is a set of disjoint conflict-free subnets, returned as a
// single (possibly disconnected) subnet. Sweeps that reduce the same net
// under many allocations should build one reducer and call its reduce
// method to reuse the per-net scratch buffers.
func Reduce(n *petri.Net, alloc *Allocation) *Reduction {
	return newReducer(n).reduce(alloc)
}

// Reducer applies the reduction algorithm repeatedly on one net, reusing
// the per-net scratch buffers across calls — the exported face of the
// worklist kernel for sweeps outside this package (internal/engine rebuilds
// one reduction per cached cycle). Not safe for concurrent use.
type Reducer struct {
	rd *reducer
}

// NewReducer returns a Reducer for n.
func NewReducer(n *petri.Net) *Reducer { return &Reducer{rd: newReducer(n)} }

// Reduce is Reduce(n, alloc) on the Reducer's net, without the per-call
// scratch allocation.
func (r *Reducer) Reduce(alloc *Allocation) *Reduction { return r.rd.reduce(alloc) }

// reducer holds the reusable per-net state of the reduction algorithm:
// alive masks, incremental surviving-producer counts and the rule 2(d)
// worklist. One reducer serves any number of sequential reduce calls on
// its net, so the distinct-reduction enumeration's thousands of calls
// allocate almost nothing.
type reducer struct {
	n      *petri.Net
	aliveT []bool
	aliveP []bool
	// prod[p] is the number of surviving producers of p, maintained
	// incrementally; orig[p] is the static producer count of the full net.
	// prod[p] == 0 is exactly the old O(producers) isSourcePlace scan.
	prod []int
	orig []int
	// work queues places whose rule 2(b) conditions may have decayed —
	// starved places and their sibling inputs — replacing the old
	// whole-net rescan-until-fixpoint loop of rule 2(d). The removal rules
	// are monotone (a removable node stays removable until removed), so
	// draining the queue reaches the same fixpoint as chaotic iteration.
	work   []petri.Place
	inWork []bool
	steps  []reduceStep
}

func newReducer(n *petri.Net) *reducer {
	nP, nT := n.NumPlaces(), n.NumTransitions()
	rd := &reducer{
		n:      n,
		aliveT: make([]bool, nT),
		aliveP: make([]bool, nP),
		prod:   make([]int, nP),
		orig:   make([]int, nP),
		inWork: make([]bool, nP),
	}
	for p := 0; p < nP; p++ {
		rd.orig[p] = len(n.Producers(petri.Place(p)))
	}
	return rd
}

func (rd *reducer) reduce(alloc *Allocation) *Reduction {
	n := rd.n
	for i := range rd.aliveT {
		rd.aliveT[i] = true
	}
	for i := range rd.aliveP {
		rd.aliveP[i] = true
	}
	copy(rd.prod, rd.orig)
	rd.steps = rd.steps[:0]
	rd.work = rd.work[:0]

	// Seed: remove the non-allocated conflict transitions. Each removal
	// cascades rules 2(b)/2(c) immediately (same order as the recursive
	// algorithm) and queues decay candidates for the drain below.
	for i, c := range alloc.Clusters {
		for _, t := range c.Transitions {
			if t != alloc.Chosen[i] {
				rd.removeTransition(t, opUnallocated)
			}
		}
	}

	// Rule 2(d): a place kept by rule 2(b)(ii) can lose its justification
	// when a later cascade removes the consumer or starves the other input
	// place. Every such decay event was queued by removeTransition, so
	// draining the queue (re-queueing as cascades run) reaches the fixpoint
	// without rescanning the net.
	for h := 0; h < len(rd.work); h++ {
		p := rd.work[h]
		rd.inWork[p] = false
		if rd.aliveP[p] && rd.orig[p] > 0 && rd.prod[p] == 0 {
			rd.maybeRemovePlace(p)
		}
	}
	rd.work = rd.work[:0]

	red := &Reduction{
		Allocation: alloc,
		net:        n,
		keptT:      petri.NewNodeSet(n.NumTransitions()),
		keptP:      petri.NewNodeSet(n.NumPlaces()),
		steps:      append([]reduceStep(nil), rd.steps...),
	}
	for t, alive := range rd.aliveT {
		if alive {
			red.keptT.Add(t)
			red.numT++
		}
	}
	for p, alive := range rd.aliveP {
		if alive {
			red.keptP.Add(p)
			red.numP++
		}
	}
	return red
}

// push queues p for the rule 2(d) drain (deduplicated).
func (rd *reducer) push(p petri.Place) {
	if !rd.inWork[p] {
		rd.inWork[p] = true
		rd.work = append(rd.work, p)
	}
}

// maybeRemovePlace applies rule 2(b) to a place that has lost a producer.
func (rd *reducer) maybeRemovePlace(s petri.Place) {
	if !rd.aliveP[s] {
		return
	}
	// (i) another surviving producer keeps s.
	if rd.prod[s] != 0 {
		return
	}
	// (ii) a surviving consumer with another surviving non-source input
	// place keeps s.
	for _, ta := range rd.n.Consumers(s) {
		if !rd.aliveT[ta.Transition] {
			continue
		}
		for _, in := range rd.n.Pre(ta.Transition) {
			if in.Place != s && rd.aliveP[in.Place] && rd.prod[in.Place] != 0 {
				return
			}
		}
	}
	rd.removePlace(s)
}

func (rd *reducer) removePlace(p petri.Place) {
	if !rd.aliveP[p] {
		return
	}
	rd.aliveP[p] = false
	rd.steps = append(rd.steps, reduceStep{op: opRemovePlace, node: int32(p)})
	// Rule 2(c): consumers of a removed place.
	for _, ta := range rd.n.Consumers(p) {
		tj := ta.Transition
		if !rd.aliveT[tj] {
			continue
		}
		surviving := 0
		allSources := true
		for _, in := range rd.n.Pre(tj) {
			if !rd.aliveP[in.Place] {
				continue
			}
			surviving++
			if rd.prod[in.Place] != 0 {
				allSources = false
			}
		}
		switch {
		case surviving == 0:
			rd.removeTransition(tj, opNoInputPlace)
		case allSources:
			// Remove tj and every surviving (source) input place. The input
			// list is snapshotted first because the removal cascades.
			inputs := make([]petri.Place, 0, surviving)
			for _, in := range rd.n.Pre(tj) {
				if rd.aliveP[in.Place] {
					inputs = append(inputs, in.Place)
				}
			}
			rd.removeTransition(tj, opAllSourceInputs)
			for _, in := range inputs {
				rd.removePlace(in)
			}
		}
	}
}

func (rd *reducer) removeTransition(t petri.Transition, op reduceOp) {
	if !rd.aliveT[t] {
		return
	}
	rd.aliveT[t] = false
	rd.steps = append(rd.steps, reduceStep{op: op, node: int32(t)})
	// Decrement every postset place's producer count before the rule 2(b)
	// cascade so each cascade step sees t dead on all of them (matching the
	// recursive algorithm, whose isSourcePlace scan always saw the final
	// aliveT). A place starved here may also strip the rule 2(b)(ii)
	// justification from its consumers' sibling inputs — queue them.
	for _, out := range rd.n.Post(t) {
		s := out.Place
		rd.prod[s]--
		if rd.prod[s] == 0 && rd.aliveP[s] {
			rd.push(s)
			for _, ta := range rd.n.Consumers(s) {
				if !rd.aliveT[ta.Transition] {
					continue
				}
				for _, in := range rd.n.Pre(ta.Transition) {
					if in.Place != s && rd.aliveP[in.Place] {
						rd.push(in.Place)
					}
				}
			}
		}
	}
	for _, out := range rd.n.Post(t) {
		rd.maybeRemovePlace(out.Place)
	}
	// Removing a consumer can strip justification (ii) from its surviving
	// input places.
	for _, in := range rd.n.Pre(t) {
		if rd.aliveP[in.Place] {
			rd.push(in.Place)
		}
	}
}
