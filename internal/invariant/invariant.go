// Package invariant computes structural invariants of Petri nets:
// T-invariants (firing-count vectors f ≥ 0 with fᵀ·D = 0, the candidate
// periods of cyclic schedules) and P-invariants (weightings y ≥ 0 with
// D·y = 0, conserved token sums). It also answers the consistency and
// conservativeness questions built on them.
//
// Minimal-support invariants are computed exactly with the Farkas algorithm
// from internal/linalg, on int64 rows built from the net's arcs; every
// result is reported as plain []int firing counts (invariants of
// practical nets are small even when intermediate arithmetic is not).
package invariant

import (
	"errors"
	"fmt"
	"sort"

	"fcpn/internal/linalg"
	"fcpn/internal/petri"
	"fcpn/internal/trace"
)

// ErrTooComplex is returned when the Farkas enumeration exceeds its row cap.
var ErrTooComplex = errors.New("invariant: semiflow enumeration exceeded size cap")

// TInvariant is one minimal-support T-semiflow: Counts[t] is the number of
// firings of transition t in the invariant.
type TInvariant struct {
	Counts []int
}

// Support returns the transitions with non-zero count, ascending.
func (ti TInvariant) Support() []petri.Transition {
	var out []petri.Transition
	for t, c := range ti.Counts {
		if c != 0 {
			out = append(out, petri.Transition(t))
		}
	}
	return out
}

// Contains reports whether transition t fires in the invariant.
func (ti TInvariant) Contains(t petri.Transition) bool {
	return int(t) < len(ti.Counts) && ti.Counts[t] > 0
}

// TotalFirings is the length of any firing sequence realising the invariant.
func (ti TInvariant) TotalFirings() int {
	sum := 0
	for _, c := range ti.Counts {
		sum += c
	}
	return sum
}

// String renders the invariant as a firing-count vector.
func (ti TInvariant) String() string { return fmt.Sprint(ti.Counts) }

// PInvariant is one minimal-support P-semiflow: Weights[p] is the weight of
// place p in the conserved sum Σ Weights[p]·μ(p).
type PInvariant struct {
	Weights []int
}

// Support returns the places with non-zero weight, ascending.
func (pi PInvariant) Support() []petri.Place {
	var out []petri.Place
	for p, w := range pi.Weights {
		if w != 0 {
			out = append(out, petri.Place(p))
		}
	}
	return out
}

// TokenSum evaluates the conserved weighted token sum at marking m.
func (pi PInvariant) TokenSum(m petri.Marking) int {
	sum := 0
	for p, w := range pi.Weights {
		sum += w * m[p]
	}
	return sum
}

// String renders the invariant as a weight vector.
func (pi PInvariant) String() string { return fmt.Sprint(pi.Weights) }

// Options bounds the exact enumeration.
type Options struct {
	// MaxRows caps intermediate Farkas rows; 0 means the package default.
	MaxRows int
	// Trace optionally records one "invariant/farkas" detail span per
	// Farkas enumeration. Nil disables collection.
	Trace *trace.Tracer
}

// TInvariants returns all minimal-support T-semiflows of the net, sorted by
// support then counts for determinism.
func TInvariants(n *petri.Net, opt Options) ([]TInvariant, error) {
	vecs, err := minimalSemiflows(n, false, opt)
	if err != nil {
		return nil, err
	}
	out := make([]TInvariant, len(vecs))
	for i, counts := range vecs {
		out[i] = TInvariant{Counts: counts}
	}
	return out, nil
}

// PInvariants returns all minimal-support P-semiflows of the net, sorted
// deterministically.
func PInvariants(n *petri.Net, opt Options) ([]PInvariant, error) {
	vecs, err := minimalSemiflows(n, true, opt)
	if err != nil {
		return nil, err
	}
	out := make([]PInvariant, len(vecs))
	for i, weights := range vecs {
		out[i] = PInvariant{Weights: weights}
	}
	return out, nil
}

// minimalSemiflows runs the Farkas enumeration over the net's incidence
// matrix and returns the minimal semiflows sorted with lessInts. The
// T-semiflows have one equation per place and one variable per
// transition; places selects the transpose, whose variables are places.
// The system's int64 coefficients are summed straight from the arcs.
func minimalSemiflows(n *petri.Net, places bool, opt Options) ([][]int, error) {
	nT, nP := n.NumTransitions(), n.NumPlaces()
	kind, sys := "T", linalg.NewSystem(nP, nT)
	if places {
		kind, sys = "P", linalg.NewSystem(nT, nP)
	}
	// D[t][p] is the coefficient of variable t in equation p, or of
	// variable p in equation t.
	add := func(t int, p petri.Place, w int64) {
		if places {
			sys.Add(t, int(p), w)
		} else {
			sys.Add(int(p), t, w)
		}
	}
	for t := 0; t < nT; t++ {
		for _, a := range n.Post(petri.Transition(t)) {
			add(t, a.Place, int64(a.Weight))
		}
		for _, a := range n.Pre(petri.Transition(t)) {
			add(t, a.Place, -int64(a.Weight))
		}
	}
	sp := opt.Trace.StartDetail("invariant/farkas")
	out, err := linalg.Semiflows(sys, opt.MaxRows, opt.Trace)
	sp.End()
	var wide *linalg.BigSemiflowError
	switch {
	case errors.As(err, &wide):
		return nil, fmt.Errorf("invariant: %s-semiflow does not fit in int: %v", kind, wide.Flow)
	case err != nil:
		return nil, ErrTooComplex
	}
	sort.Slice(out, func(i, j int) bool { return lessInts(out[i], out[j]) })
	return out, nil
}

// Consistent reports whether the net is consistent (Definition 2.1): there
// exists f > 0 (strictly positive on every transition) with fᵀ·D = 0.
// A net is consistent iff the sum of its minimal T-semiflows has full
// support, so the provided invariants (from TInvariants) decide the
// question exactly.
func Consistent(n *petri.Net, tis []TInvariant) bool {
	covered := make([]bool, n.NumTransitions())
	for _, ti := range tis {
		for t, c := range ti.Counts {
			if c > 0 {
				covered[t] = true
			}
		}
	}
	for _, c := range covered {
		if !c {
			return false
		}
	}
	return n.NumTransitions() > 0
}

// Conservative reports whether there exists y > 0 with D·y = 0 (every
// place in some P-semiflow), the P-side dual of consistency.
func Conservative(n *petri.Net, pis []PInvariant) bool {
	covered := make([]bool, n.NumPlaces())
	for _, pi := range pis {
		for p, w := range pi.Weights {
			if w > 0 {
				covered[p] = true
			}
		}
	}
	for _, c := range covered {
		if !c {
			return false
		}
	}
	return n.NumPlaces() > 0
}

// IsTInvariant verifies fᵀ·D = 0 directly for an arbitrary firing-count
// vector (not necessarily minimal).
func IsTInvariant(n *petri.Net, counts []int) bool {
	if len(counts) != n.NumTransitions() {
		return false
	}
	d := n.IncidenceMatrix()
	for p := 0; p < n.NumPlaces(); p++ {
		sum := 0
		for t := 0; t < n.NumTransitions(); t++ {
			sum += counts[t] * d[t][p]
		}
		if sum != 0 {
			return false
		}
	}
	return true
}

// RelabelTInvariants carries minimal T-semiflows over to an isomorphic
// net whose transition pos[t] is transition t of the net they were
// computed on, and sorts them into the order TInvariants guarantees. The
// result is what TInvariants returns on that net: isomorphic nets have
// corresponding minimal semiflows, so only the sort has to be redone.
// pos is a petri.CanonicalForm's TransPos (onto the canonical twin) or
// TransAt (back from it).
func RelabelTInvariants[I ~int](tis []TInvariant, pos []I) []TInvariant {
	out := make([]TInvariant, len(tis))
	buf := make([]int, len(tis)*len(pos))
	for i, ti := range tis {
		out[i] = TInvariant{Counts: permute(&buf, ti.Counts, pos)}
	}
	sort.Slice(out, func(i, j int) bool { return lessInts(out[i].Counts, out[j].Counts) })
	return out
}

// permute moves entry k of v to index pos[k] of a vector cut from the
// front of *buf.
func permute[I ~int](buf *[]int, v []int, pos []I) []int {
	out := (*buf)[:len(pos):len(pos)]
	*buf = (*buf)[len(pos):]
	for k, x := range v {
		out[pos[k]] = x
	}
	return out
}

func lessInts(a, b []int) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		if a[i] != b[i] {
			return a[i] > b[i] // put vectors with earlier support first
		}
	}
	return len(a) < len(b)
}
