package invariant

import "fcpn/internal/petri"

// RestrictTInvariants derives the minimal T-semiflows of the subnet of
// parent induced by keepT and keepP (petri.Net.InducedSubnet) from the
// parent net's minimal T-semiflows, without running Farkas again. keepT
// lists the kept transitions in ascending parent order, which is their
// order in the subnet. It is the checked wrapper around RestrictToKept.
//
// It is exact precisely when every place adjacent to a kept transition is
// kept. Under that condition extension-by-zero maps every subnet semiflow
// to a parent semiflow (the dropped places' equations only mention dropped
// transitions, so they hold trivially), and restriction maps every parent
// semiflow supported inside the kept transition set back; the two maps are
// inverse cone isomorphisms, minimal supports correspond, and the Farkas
// GCD normalisation is preserved because restriction keeps the non-zero
// entries unchanged. The result is therefore byte-identical — including
// the deterministic sort order — to a from-scratch TInvariants run on the
// subnet (pinned by FuzzRestrictTInvariants).
//
// When the condition fails — the subnet dropped a place some kept
// transition still reads or writes — a place equation disappears, the
// subnet's semiflow cone can strictly grow, and the restricted set may be
// both incomplete and non-minimal. ok is then false and the caller must
// compute the subnet's semiflows from scratch. No T-reduction of a net
// that passes Validate is such a subnet (the proof is in
// docs/ALGORITHM.md §6); arbitrary induced subnets can be.
func RestrictTInvariants(parent *petri.Net, keepT []petri.Transition, keepP []petri.Place, parentTIs []TInvariant) ([]TInvariant, bool) {
	kept := petri.NewNodeSet(parent.NumPlaces())
	for _, p := range keepP {
		kept.Add(int(p))
	}
	for _, t := range keepT {
		for _, a := range parent.Pre(t) {
			if !kept.Has(int(a.Place)) {
				return nil, false
			}
		}
		for _, a := range parent.Post(t) {
			if !kept.Has(int(a.Place)) {
				return nil, false
			}
		}
	}
	return RestrictToKept(parentTIs, keepT), true
}

// RestrictToKept is the restriction kernel: it keeps the semiflows whose
// support lies inside kept (parent transitions, ascending) and renumbers
// each to kept's positions, so entry i of a result counts kept[i]. It does
// not check exactness; RestrictTInvariants does, and the QSS sweep relies
// on every T-reduction being restriction-exact.
//
// Order is preserved: restriction drops only entries that are zero in
// every kept semiflow, so parent semiflows in TInvariants order restrict
// to a list in TInvariants order. The results share one backing array.
func RestrictToKept(parentTIs []TInvariant, kept []petri.Transition) []TInvariant {
	inside := make([]bool, len(parentTIs))
	n := 0
	for i, ti := range parentTIs {
		if inside[i] = supportWithin(ti.Counts, kept); inside[i] {
			n++
		}
	}
	out := make([]TInvariant, 0, n)
	buf := make([]int, n*len(kept))
	for i, ti := range parentTIs {
		if !inside[i] {
			continue
		}
		counts := buf[:len(kept):len(kept)]
		buf = buf[len(kept):]
		for j, t := range kept {
			counts[j] = ti.Counts[t]
		}
		out = append(out, TInvariant{Counts: counts})
	}
	return out
}

// supportWithin reports whether every non-zero entry of counts is at an
// index in kept (ascending).
func supportWithin(counts []int, kept []petri.Transition) bool {
	j := 0
	for t, c := range counts {
		if c == 0 {
			continue
		}
		for j < len(kept) && int(kept[j]) < t {
			j++
		}
		if j == len(kept) || int(kept[j]) != t {
			return false
		}
	}
	return true
}
