package petri

// Subnet is a net induced by a subset of a parent net's nodes, together
// with the index maps back to the parent. The QSS reduction algorithm
// produces T-reductions as subnets so schedules can be reported in terms of
// the original transitions.
type Subnet struct {
	Net *Net
	// ParentPlace[i] is the parent index of subnet place i.
	ParentPlace []Place
	// ParentTransition[i] is the parent index of subnet transition i.
	ParentTransition []Transition
	// placeTo / transTo map parent indices to subnet indices (-1 if dropped).
	placeTo []int
	transTo []int
}

// InducedSubnet builds the subnet of n induced by the given transitions and
// places: all arcs of n between kept nodes are preserved with their
// weights, and the initial marking is restricted to kept places. Node order
// follows the parent's order regardless of the order of the arguments.
//
// The Net is assembled directly rather than through a Builder: the parent
// is already a validated Net (unique non-empty names, deduplicated sorted
// arcs), so none of the Builder's checks or arc accumulation can observe
// anything. Filtering the parent's place-sorted arc lists preserves their
// order because kept nodes keep their relative order.
func (n *Net) InducedSubnet(name string, keepT []Transition, keepP []Place) *Subnet {
	tKeep := make([]bool, n.NumTransitions())
	for _, t := range keepT {
		tKeep[t] = true
	}
	pKeep := make([]bool, n.NumPlaces())
	for _, p := range keepP {
		pKeep[p] = true
	}

	s := &Subnet{
		placeTo: make([]int, n.NumPlaces()),
		transTo: make([]int, n.NumTransitions()),
	}
	for i := range s.placeTo {
		s.placeTo[i] = -1
	}
	for i := range s.transTo {
		s.transTo[i] = -1
	}
	sub := &Net{name: name}
	for p := Place(0); int(p) < n.NumPlaces(); p++ {
		if !pKeep[p] {
			continue
		}
		s.placeTo[p] = len(sub.placeNames)
		s.ParentPlace = append(s.ParentPlace, p)
		sub.placeNames = append(sub.placeNames, n.placeNames[p])
	}
	arcs := 0
	for t := Transition(0); int(t) < n.NumTransitions(); t++ {
		if !tKeep[t] {
			continue
		}
		s.transTo[t] = len(sub.transNames)
		s.ParentTransition = append(s.ParentTransition, t)
		sub.transNames = append(sub.transNames, n.transNames[t])
		arcs += len(n.pre[t]) + len(n.post[t])
	}
	nT := len(sub.transNames)
	refs := make([]ArcRef, 0, arcs)
	lists := make([][]ArcRef, 2*nT)
	keep := func(from []ArcRef) []ArcRef {
		at := len(refs)
		for _, a := range from {
			if sp := s.placeTo[a.Place]; sp >= 0 {
				refs = append(refs, ArcRef{Place(sp), a.Weight})
			}
		}
		if len(refs) == at {
			return nil
		}
		return refs[at:len(refs):len(refs)]
	}
	for st, pt := range s.ParentTransition {
		lists[st] = keep(n.pre[pt])
		lists[nT+st] = keep(n.post[pt])
	}
	sub.pre, sub.post = lists[:nT:nT], lists[nT:]
	sub.initialMark = NewMarking(len(sub.placeNames))
	for sp, pp := range s.ParentPlace {
		sub.initialMark[sp] = n.initialMark[pp]
	}
	sub.link()
	s.Net = sub
	return s
}

// ToParentTransition maps a subnet transition back to the parent net.
func (s *Subnet) ToParentTransition(t Transition) Transition { return s.ParentTransition[t] }

// ToParentPlace maps a subnet place back to the parent net.
func (s *Subnet) ToParentPlace(p Place) Place { return s.ParentPlace[p] }

// FromParentTransition maps a parent transition into the subnet; ok is
// false when the transition was dropped.
func (s *Subnet) FromParentTransition(t Transition) (Transition, bool) {
	i := s.transTo[t]
	return Transition(i), i >= 0
}

// FromParentPlace maps a parent place into the subnet; ok is false when the
// place was dropped.
func (s *Subnet) FromParentPlace(p Place) (Place, bool) {
	i := s.placeTo[p]
	return Place(i), i >= 0
}

// MapSequenceToParent rewrites a firing sequence of the subnet in terms of
// parent transitions.
func (s *Subnet) MapSequenceToParent(seq []Transition) []Transition {
	out := make([]Transition, len(seq))
	for i, t := range seq {
		out[i] = s.ParentTransition[t]
	}
	return out
}
