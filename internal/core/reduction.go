package core

import (
	"encoding/binary"

	"fcpn/internal/petri"
)

// Reduction is a T-reduction (Definition 3.4): the conflict-free subnet
// obtained from the net by removing the part that is inactive under a
// given T-allocation.
//
// A reduction is its allocation and its kept-node bitsets over the parent
// net, and its kept transitions identify it among the net's reductions
// (CompareKept). The Definition 3.5 check runs on the parent net over
// these bitsets; Subnet builds the induced subnet — name lookups, arc
// lists — for callers that print a reduction or run the from-scratch
// reference check.
type Reduction struct {
	// Allocation is the choice resolution this reduction corresponds to.
	Allocation *Allocation

	net          *petri.Net
	keptT, keptP petri.NodeSet
}

// reduceStep is one removal of the reduction algorithm in compact form;
// Steps renders the human-readable strings, so the enumeration's reducer
// never pays fmt/concat costs.
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

// Relabel returns the T-reduction of net under alloc, where net is r's net
// with every transition t renumbered transPos[t] and every place p
// renumbered placePos[p] (a petri.CanonicalNet with its CanonicalForm's
// TransPos and PlacePos) and alloc is r's allocation carried over the same
// way. The reduction rules are monotone, so their fixpoint does not
// depend on the order Reduce visits nodes in: the kept sets carry over
// unchanged (TestRelabelMatchesReduce) and are relabelled in O(nodes)
// without running Reduce.
func (r *Reduction) Relabel(net *petri.Net, alloc *Allocation, transPos, placePos []int) *Reduction {
	out := &Reduction{
		Allocation: alloc,
		net:        net,
		keptT:      petri.NewNodeSet(net.NumTransitions()),
		keptP:      petri.NewNodeSet(net.NumPlaces()),
	}
	for t, pos := range transPos {
		if r.keptT.Has(t) {
			out.keptT.Add(pos)
		}
	}
	for p, pos := range placePos {
		if r.keptP.Has(p) {
			out.keptP.Add(pos)
		}
	}
	return out
}

// name is the reduction's subnet name, "net/p1→t2, p5→t9", as diagnoses
// print it.
func (r *Reduction) name() string {
	return r.net.Name() + "/" + r.Allocation.describe(r.net)
}

// Subnet builds the induced conflict-free subnet, named as diagnoses
// print the reduction. Its transition i is KeptTransitions()[i] and its
// place i is KeptPlaces()[i]. Each call builds it anew.
func (r *Reduction) Subnet() *petri.Net {
	return r.net.InducedSubnet(r.name(), r.KeptTransitions(), r.KeptPlaces())
}

// Steps renders the removal trace performed by the reduction algorithm, in
// order (used to reproduce Figure 6). It runs the algorithm again.
func (r *Reduction) Steps() []string {
	rd := newReducer(r.net)
	rd.run(r.Allocation)
	out := make([]string, len(rd.steps))
	for i, s := range rd.steps {
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
// Position i of the list is transition i of the reduction (and of
// Subnet()).
func (r *Reduction) KeptTransitions() []petri.Transition {
	out := make([]petri.Transition, 0, r.keptT.Count())
	for t := 0; t < r.net.NumTransitions(); t++ {
		if r.keptT.Has(t) {
			out = append(out, petri.Transition(t))
		}
	}
	return out
}

// KeptPlaces lists the surviving places in parent index order. Position i
// of the list is place i of the reduction (and of Subnet()).
func (r *Reduction) KeptPlaces() []petri.Place {
	out := make([]petri.Place, 0, r.keptP.Count())
	for p := 0; p < r.net.NumPlaces(); p++ {
		if r.keptP.Has(p) {
			out = append(out, petri.Place(p))
		}
	}
	return out
}

// CompareKept orders two reductions of one net by their kept transitions:
// the one that keeps the lowest-indexed transition the other removes
// sorts first. It returns 0 only when both keep the same transitions, so
// it orders a net's distinct reductions totally.
func (r *Reduction) CompareKept(o *Reduction) int {
	a, b := r.keptT, o.keptT
	for i, w := range a {
		if x := w ^ b[i]; x != 0 {
			if w&(x&-x) != 0 {
				return -1
			}
			return 1
		}
	}
	return 0
}

// appendKeptKey appends the words of the kept-transition set keptT to
// dst: as a string it is a map key that identifies a reduction among the
// net's reductions.
func appendKeptKey(dst []byte, keptT petri.NodeSet) []byte {
	for _, w := range keptT {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	return dst
}

// KeptTransitionNames lists the surviving transitions by name, for tests.
func (r *Reduction) KeptTransitionNames(n *petri.Net) []string {
	out := make([]string, 0, r.keptT.Count())
	for _, t := range r.KeptTransitions() {
		out = append(out, n.TransitionName(t))
	}
	return out
}

// KeptPlaceNames lists the surviving places by name, for tests.
func (r *Reduction) KeptPlaceNames(n *petri.Net) []string {
	out := make([]string, 0, r.keptP.Count())
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
// under many allocations should build one reducer and call its run
// method to reuse the per-net scratch buffers.
func Reduce(n *petri.Net, alloc *Allocation) *Reduction {
	rd := newReducer(n)
	rd.run(alloc)
	return rd.result(alloc, rd.keptTransitions())
}

// reducer holds the reusable per-net state of the reduction algorithm:
// alive masks, incremental surviving-producer counts and the rule 2(d)
// worklist. One reducer serves any number of sequential runs on its net,
// and a run allocates nothing once the buffers have grown, so the
// distinct-reduction enumeration's thousands of runs allocate nothing
// but the reductions it returns.
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
	// inputs is a stack of snapshots of rule 2(c)'s input places; each
	// removePlace frame pops what it pushed.
	inputs []petri.Place
	// steps is the last run's removal log, in order.
	steps []reduceStep
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

// run applies the reduction algorithm under alloc: afterwards aliveT and
// aliveP mark the kept nodes and steps logs the removals.
func (rd *reducer) run(alloc *Allocation) {
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
}

// keptTransitions returns the transitions the last run kept.
func (rd *reducer) keptTransitions() petri.NodeSet {
	keptT := petri.NewNodeSet(len(rd.aliveT))
	for t, alive := range rd.aliveT {
		if alive {
			keptT.Add(t)
		}
	}
	return keptT
}

// result is the reduction the last run computed under alloc, whose kept
// transitions keptT are rd.keptTransitions().
func (rd *reducer) result(alloc *Allocation, keptT petri.NodeSet) *Reduction {
	red := &Reduction{
		Allocation: alloc,
		net:        rd.n,
		keptT:      keptT,
		keptP:      petri.NewNodeSet(len(rd.aliveP)),
	}
	for p, alive := range rd.aliveP {
		if alive {
			red.keptP.Add(p)
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
			base := len(rd.inputs)
			for _, in := range rd.n.Pre(tj) {
				if rd.aliveP[in.Place] {
					rd.inputs = append(rd.inputs, in.Place)
				}
			}
			rd.removeTransition(tj, opAllSourceInputs)
			for i := base; i < base+surviving; i++ {
				rd.removePlace(rd.inputs[i])
			}
			rd.inputs = rd.inputs[:base]
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
