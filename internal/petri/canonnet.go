package petri

import (
	"cmp"
	"slices"
	"strconv"
)

// CanonicalNet materialises the canonical relabelling as a standalone
// net named "canonical_" and the first 12 hex digits of the hash: places
// and transitions sit in canonical position order under position-derived
// names ("p3", "t0"), each transition's arcs are sorted by canonical place
// position, and the initial marking is carried over. Every member of an
// isomorphism class therefore materialises the exact same twin — identical
// structure in identical index order — so any computation whose result
// depends on index order (the schedule search above all: it explores
// allocations and firings in index order and may return any of several
// valid schedules) becomes isomorphism-invariant when run on the twin
// instead of the original.
//
// The twin is assembled directly from the canonical form, with no Builder:
// the relabelling is a bijection of a valid net, so there are no names or
// repeated arcs to check. It is rebuilt on each call; callers that need
// it repeatedly should keep the returned net.
func (n *Net) CanonicalNet() *Net {
	cf := n.CanonicalForm()
	tag := cf.Hash
	if len(tag) > 12 {
		tag = tag[:12]
	}
	nT := len(cf.TransAt)
	twin := &Net{
		name:        "canonical_" + tag,
		placeNames:  positionNames('p', len(cf.PlaceAt)),
		transNames:  positionNames('t', nT),
		initialMark: NewMarking(len(cf.PlaceAt)),
	}
	for pos, p := range cf.PlaceAt {
		twin.initialMark[pos] = n.initialMark[p]
	}
	arcs := 0
	for t := range n.pre {
		arcs += len(n.pre[t]) + len(n.post[t])
	}
	refs := make([]ArcRef, 0, arcs)
	relabel := func(from []ArcRef) []ArcRef {
		if len(from) == 0 {
			return nil
		}
		at := len(refs)
		for _, a := range from {
			refs = append(refs, ArcRef{Place(cf.PlacePos[a.Place]), a.Weight})
		}
		out := refs[at:len(refs):len(refs)]
		slices.SortFunc(out, func(x, y ArcRef) int { return cmp.Compare(x.Place, y.Place) })
		return out
	}
	lists := make([][]ArcRef, 2*nT)
	for pos, t := range cf.TransAt {
		lists[pos] = relabel(n.pre[t])
		lists[nT+pos] = relabel(n.post[t])
	}
	twin.pre, twin.post = lists[:nT:nT], lists[nT:]
	twin.link()
	return twin
}

// positionNames returns prefix+"0", prefix+"1", ... as substrings of one
// string.
func positionNames(prefix byte, count int) []string {
	buf := make([]byte, 0, 4*count)
	for i := 0; i < count; i++ {
		buf = append(buf, prefix)
		buf = strconv.AppendInt(buf, int64(i), 10)
	}
	all := string(buf)
	names := make([]string, count)
	at := 0
	for i := range names {
		end := at + 1
		for end < len(all) && all[end] != prefix {
			end++
		}
		names[i] = all[at:end]
		at = end
	}
	return names
}
