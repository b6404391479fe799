package petri

// InducedSubnet builds the subnet of n induced by the given transitions and
// places: all arcs of n between kept nodes are preserved with their
// weights, and the initial marking is restricted to kept places. Node order
// follows the parent's regardless of the order of the arguments: subnet
// place i is the i-th kept place in parent order, and subnet transition i
// the i-th kept transition.
//
// The Net is assembled directly rather than through a Builder: the parent
// is already a validated Net (unique non-empty names, deduplicated sorted
// arcs), so none of the Builder's checks or arc accumulation can observe
// anything. Filtering the parent's place-sorted arc lists preserves their
// order because kept nodes keep their relative order.
func (n *Net) InducedSubnet(name string, keepT []Transition, keepP []Place) *Net {
	// placeTo[p] is the subnet index of parent place p, -1 if dropped.
	placeTo := make([]int, n.NumPlaces())
	for p := range placeTo {
		placeTo[p] = -1
	}
	for _, p := range keepP {
		placeTo[p] = 0
	}
	sub := &Net{name: name}
	for p, to := range placeTo {
		if to >= 0 {
			placeTo[p] = len(sub.placeNames)
			sub.placeNames = append(sub.placeNames, n.placeNames[p])
		}
	}
	sub.initialMark = NewMarking(len(sub.placeNames))
	for p, to := range placeTo {
		if to >= 0 {
			sub.initialMark[to] = n.initialMark[p]
		}
	}
	tKeep := make([]bool, n.NumTransitions())
	for _, t := range keepT {
		tKeep[t] = true
	}
	arcs := 0
	for t, keep := range tKeep {
		if keep {
			sub.transNames = append(sub.transNames, n.transNames[t])
			arcs += len(n.pre[t]) + len(n.post[t])
		}
	}
	nT := len(sub.transNames)
	refs := make([]ArcRef, 0, arcs)
	lists := make([][]ArcRef, 2*nT)
	keep := func(from []ArcRef) []ArcRef {
		at := len(refs)
		for _, a := range from {
			if sp := placeTo[a.Place]; sp >= 0 {
				refs = append(refs, ArcRef{Place(sp), a.Weight})
			}
		}
		if len(refs) == at {
			return nil
		}
		return refs[at:len(refs):len(refs)]
	}
	st := 0
	for t, k := range tKeep {
		if k {
			lists[st] = keep(n.pre[t])
			lists[nT+st] = keep(n.post[t])
			st++
		}
	}
	sub.pre, sub.post = lists[:nT:nT], lists[nT:]
	sub.link()
	return sub
}
