package petri

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
)

// Builder accumulates places, transitions and arcs and then produces an
// immutable Net. Methods panic on structural misuse (duplicate names,
// unknown endpoints, non-positive weights, repeated arcs whose weights sum
// past int): nets are built by code, not from untrusted input — the
// text-format parser validates before calling.
type Builder struct {
	name       string
	placeNames []string
	transNames []string
	placeIndex map[string]Place
	transIndex map[string]Transition
	// arcs logs every arc call in order, repeats included; Build groups
	// them by transition, sorts each group by place and sums repeats.
	arcs    []builderArc
	marking []int // marking[p]: initial tokens of place p
}

// builderArc is one logged arc call: place→transition, or
// transition→place when out is set.
type builderArc struct {
	t   Transition
	p   Place
	w   int
	out bool
}

// NewBuilder creates a Builder for a net with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{
		name:       name,
		placeIndex: make(map[string]Place),
		transIndex: make(map[string]Transition),
	}
}

// Place adds a place with zero initial tokens and returns its handle.
func (b *Builder) Place(name string) Place {
	return b.MarkedPlace(name, 0)
}

// MarkedPlace adds a place carrying tokens initial tokens.
func (b *Builder) MarkedPlace(name string, tokens int) Place {
	if name == "" {
		panic("petri: empty place name")
	}
	if _, dup := b.placeIndex[name]; dup {
		panic(fmt.Sprintf("petri: duplicate place %q", name))
	}
	if _, dup := b.transIndex[name]; dup {
		panic(fmt.Sprintf("petri: name %q already used for a transition", name))
	}
	if tokens < 0 {
		panic(fmt.Sprintf("petri: negative initial marking for %q", name))
	}
	p := Place(len(b.placeNames))
	b.placeNames = append(b.placeNames, name)
	b.placeIndex[name] = p
	b.marking = append(b.marking, tokens)
	return p
}

// Transition adds a transition and returns its handle.
func (b *Builder) Transition(name string) Transition {
	if name == "" {
		panic("petri: empty transition name")
	}
	if _, dup := b.transIndex[name]; dup {
		panic(fmt.Sprintf("petri: duplicate transition %q", name))
	}
	if _, dup := b.placeIndex[name]; dup {
		panic(fmt.Sprintf("petri: name %q already used for a place", name))
	}
	t := Transition(len(b.transNames))
	b.transNames = append(b.transNames, name)
	b.transIndex[name] = t
	return t
}

// Arc adds a unit-weight arc from place p to transition t.
func (b *Builder) Arc(p Place, t Transition) { b.WeightedArc(p, t, 1) }

// ArcTP adds a unit-weight arc from transition t to place p.
func (b *Builder) ArcTP(t Transition, p Place) { b.WeightedArcTP(t, p, 1) }

// WeightedArc adds an arc from place p to transition t with weight w.
// Adding an arc that already exists accumulates the weight.
func (b *Builder) WeightedArc(p Place, t Transition, w int) {
	b.addArc(t, p, w, false)
}

// WeightedArcTP adds an arc from transition t to place p with weight w.
// Adding an arc that already exists accumulates the weight.
func (b *Builder) WeightedArcTP(t Transition, p Place, w int) {
	b.addArc(t, p, w, true)
}

func (b *Builder) addArc(t Transition, p Place, w int, out bool) {
	b.checkPlace(p)
	b.checkTransition(t)
	if w <= 0 {
		panic(fmt.Sprintf("petri: non-positive arc weight %d", w))
	}
	b.arcs = append(b.arcs, builderArc{t, p, w, out})
}

// Chain is a convenience that threads a token path
// t0 -> p0 -> t1 -> p1 -> ... with unit weights. Arguments must alternate
// Transition, Place, Transition, ... (starting with either kind).
func (b *Builder) Chain(nodes ...interface{}) {
	for i := 0; i+1 < len(nodes); i++ {
		switch from := nodes[i].(type) {
		case Transition:
			p, ok := nodes[i+1].(Place)
			if !ok {
				panic("petri: Chain expects alternating Transition/Place")
			}
			b.ArcTP(from, p)
		case Place:
			t, ok := nodes[i+1].(Transition)
			if !ok {
				panic("petri: Chain expects alternating Place/Transition")
			}
			b.Arc(from, t)
		default:
			panic("petri: Chain accepts only Place and Transition values")
		}
	}
}

// SetMarking overrides the initial marking of place p.
func (b *Builder) SetMarking(p Place, tokens int) {
	b.checkPlace(p)
	if tokens < 0 {
		panic("petri: negative marking")
	}
	b.marking[p] = tokens
}

func (b *Builder) checkPlace(p Place) {
	if p < 0 || int(p) >= len(b.placeNames) {
		panic(fmt.Sprintf("petri: unknown place index %d", p))
	}
}

func (b *Builder) checkTransition(t Transition) {
	if t < 0 || int(t) >= len(b.transNames) {
		panic(fmt.Sprintf("petri: unknown transition index %d", t))
	}
}

// Build finalises the net. The Builder may keep being used afterwards;
// subsequent Build calls produce independent nets. Build panics when the
// weights of repeated arcs sum past the range of int.
func (b *Builder) Build() *Net {
	n, err := b.build(false)
	if err != nil {
		panic(err.Error())
	}
	return n
}

// build is Build with the weight overflow returned as an error, for
// Parse. It buckets the arc log by transition (input arcs, then output
// arcs) into one array, sorts each bucket by place and sums repeated
// places in place, so a transition of degree d costs O(d log d). With
// handOver set the net takes the builder's name tables instead of copies,
// and b must not be used again: Parse discards its Builder.
func (b *Builder) build(handOver bool) (*Net, error) {
	nT := len(b.transNames)
	n := &Net{
		name:        b.name,
		placeNames:  b.placeNames,
		transNames:  b.transNames,
		placeIndex:  b.placeIndex,
		transIndex:  b.transIndex,
		initialMark: NewMarking(len(b.placeNames)),
	}
	if !handOver {
		n.placeNames, n.transNames = slices.Clone(b.placeNames), slices.Clone(b.transNames)
		n.placeIndex, n.transIndex = maps.Clone(b.placeIndex), maps.Clone(b.transIndex)
	}
	copy(n.initialMark, b.marking)

	// Bucket i < nT holds the input arcs of transition i, bucket nT+i its
	// output arcs. pos[i] counts bucket i, then marks where it ends, and
	// after the scatter where it begins; pos[2nT] ends the last bucket.
	pos := make([]int, 2*nT+1)
	for _, a := range b.arcs {
		pos[bucketOf(a, nT)]++
	}
	for i := 1; i < len(pos); i++ {
		pos[i] += pos[i-1]
	}
	refs := make([]ArcRef, len(b.arcs))
	for j := len(b.arcs) - 1; j >= 0; j-- {
		a := b.arcs[j]
		i := bucketOf(a, nT)
		pos[i]--
		refs[pos[i]] = ArcRef{a.p, a.w}
	}

	lists := make([][]ArcRef, 2*nT)
	done := 0 // refs[:done] holds the finished lists
	for i := range lists {
		seg := refs[pos[i]:pos[i+1]]
		slices.SortFunc(seg, func(x, y ArcRef) int { return cmp.Compare(x.Place, y.Place) })
		k := done
		for _, a := range seg { // k never passes the element read
			if k > done && refs[k-1].Place == a.Place {
				if refs[k-1].Weight += a.Weight; refs[k-1].Weight < 0 {
					return nil, b.overflowError(i, a.Place)
				}
				continue
			}
			refs[k] = a
			k++
		}
		if k > done {
			lists[i] = refs[done:k:k]
		}
		done = k
	}
	n.pre, n.post = lists[:nT:nT], lists[nT:]
	n.link()
	return n, nil
}

func bucketOf(a builderArc, nT int) int {
	if a.out {
		return nT + int(a.t)
	}
	return int(a.t)
}

// overflowError names the arc of bucket i into or out of place p whose
// summed weight does not fit in int.
func (b *Builder) overflowError(i int, p Place) error {
	nT := len(b.transNames)
	from, to := b.placeNames[p], b.transNames[i%nT]
	if i >= nT {
		from, to = to, from
	}
	return fmt.Errorf("petri: arc %s -> %s: summed weight overflows int", from, to)
}
