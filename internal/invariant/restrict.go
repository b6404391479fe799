package invariant

import "fcpn/internal/petri"

// RestrictTInvariants derives the minimal T-semiflows of an induced subnet
// from the parent net's minimal T-semiflows, without running Farkas again.
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
// fall back to the from-scratch computation. (The QSS Hack reduction hits
// this through rule 2(c): removing a transition also removes its source
// input places, which may still feed a surviving consumer.)
func RestrictTInvariants(parent *petri.Net, sub *petri.Subnet, parentTIs []TInvariant) ([]TInvariant, bool) {
	for _, t := range sub.ParentTransition {
		for _, a := range parent.Pre(t) {
			if _, ok := sub.FromParentPlace(a.Place); !ok {
				return nil, false
			}
		}
		for _, a := range parent.Post(t) {
			if _, ok := sub.FromParentPlace(a.Place); !ok {
				return nil, false
			}
		}
	}
	out := make([]TInvariant, 0, len(parentTIs))
	numT := sub.Net.NumTransitions()
	for _, ti := range parentTIs {
		counts := make([]int, numT)
		kept := true
		for t, c := range ti.Counts {
			if c == 0 {
				continue
			}
			st, ok := sub.FromParentTransition(petri.Transition(t))
			if !ok {
				kept = false
				break
			}
			counts[st] = c
		}
		if kept {
			out = append(out, TInvariant{Counts: counts})
		}
	}
	sortTInvariants(out)
	return out, true
}
