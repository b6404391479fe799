package petri

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"strconv"
)

// CanonicalForm is a naming- and declaration-order-independent canonical
// relabelling of a net: nodes are assigned canonical positions by iterated
// colour refinement (Weisfeiler–Lehman style) over the bipartite weighted
// flow graph, with the initial marking folded into the place colours. Two
// nets that differ only in node names or declaration order of symmetric
// nodes receive the same Hash; equal hashes always denote isomorphic nets
// (the hash covers the complete relabelled structure, so a collision would
// require equal canonical adjacency).
//
// The permutation is exposed both ways so content-addressed caches can
// store analysis results in canonical index space and translate them into
// any requesting net's index space:
//
//	canonical position -> local index: PlaceAt / TransAt
//	local index -> canonical position: PlacePos / TransPos
type CanonicalForm struct {
	// Hash is the hex SHA-256 of the canonical structure serialisation.
	Hash string
	// PlaceAt[i] is the place occupying canonical position i.
	PlaceAt []Place
	// TransAt[i] is the transition occupying canonical position i.
	TransAt []Transition
	// PlacePos[p] is the canonical position of place p.
	PlacePos []int
	// TransPos[t] is the canonical position of transition t.
	TransPos []int
}

// CanonicalHash is CanonicalForm().Hash.
func (n *Net) CanonicalHash() string { return n.CanonicalForm().Hash }

// CanonicalForm returns the canonical relabelling, computing it on first
// use and memoising it for the net's lifetime (nets are immutable, and
// phase traces showed the relabelling being recomputed for every cache
// lookup — several times per analysis). Cost of the one computation is
// O(rounds × arcs × log) with rounds bounded by the number of nodes;
// refinement stops as soon as the colour partition is stable.
func (n *Net) CanonicalForm() *CanonicalForm {
	n.canonOnce.Do(func() { n.canon = n.computeCanonicalForm() })
	return n.canon
}

func (n *Net) computeCanonicalForm() *CanonicalForm {
	nP, nT := n.NumPlaces(), n.NumTransitions()
	pCol := make([]int, nP)
	tCol := make([]int, nT)

	// Signatures are assembled with manual byte appends rather than fmt:
	// fmt verb parsing dominated the refinement loop in phase traces. The
	// byte sequences are identical to the previous fmt-built ones, so
	// ranks — and therefore hashes — are unchanged (pinned by the golden
	// hashes in the engine tests).
	var buf []byte

	// Round 0: structural signatures independent of any prior colours.
	sigs := make([]string, 0, nP+nT)
	init := n.initialMark
	for p := 0; p < nP; p++ {
		buf = append(buf[:0], "P|m"...)
		buf = strconv.AppendInt(buf, int64(markAt(init, p)), 10)
		buf = append(buf, "|i"...)
		buf = strconv.AppendInt(buf, int64(len(n.placeIn[p])), 10)
		buf = append(buf, "|o"...)
		buf = strconv.AppendInt(buf, int64(len(n.placeOut[p])), 10)
		buf = append(buf, "|iw"...)
		for _, w := range sortedWeightsT(n.placeIn[p]) {
			buf = append(buf, ' ')
			buf = strconv.AppendInt(buf, int64(w), 10)
		}
		buf = append(buf, "|ow"...)
		for _, w := range sortedWeightsT(n.placeOut[p]) {
			buf = append(buf, ' ')
			buf = strconv.AppendInt(buf, int64(w), 10)
		}
		sigs = append(sigs, string(buf))
	}
	for t := 0; t < nT; t++ {
		buf = append(buf[:0], "T|i"...)
		buf = strconv.AppendInt(buf, int64(len(n.pre[t])), 10)
		buf = append(buf, "|o"...)
		buf = strconv.AppendInt(buf, int64(len(n.post[t])), 10)
		buf = append(buf, "|iw"...)
		for _, w := range sortedWeightsP(n.pre[t]) {
			buf = append(buf, ' ')
			buf = strconv.AppendInt(buf, int64(w), 10)
		}
		buf = append(buf, "|ow"...)
		for _, w := range sortedWeightsP(n.post[t]) {
			buf = append(buf, ' ')
			buf = strconv.AppendInt(buf, int64(w), 10)
		}
		sigs = append(sigs, string(buf))
	}
	classes := rankSignatures(sigs, pCol, tCol)

	// Refinement rounds: a node's new signature is its colour plus the
	// sorted multiset of (direction, weight, neighbour colour) tuples.
	// Signature ranks are assigned by lexicographic order of the distinct
	// signatures, so colours depend only on the multiset — never on the
	// local iteration order — keeping the result declaration-order stable.
	tuple := func(dir byte, weight, col int) string {
		var b [24]byte
		s := append(b[:0], dir)
		s = strconv.AppendInt(s, int64(weight), 10)
		s = append(s, ',')
		s = strconv.AppendInt(s, int64(col), 10)
		return string(s)
	}
	var tuples []string
	joinSig := func(kind byte, col int) string {
		sort.Strings(tuples)
		buf = append(buf[:0], kind)
		buf = strconv.AppendInt(buf, int64(col), 10)
		buf = append(buf, '|')
		for i, s := range tuples {
			if i > 0 {
				buf = append(buf, ';')
			}
			buf = append(buf, s...)
		}
		return string(buf)
	}
	for round := 0; round < nP+nT; round++ {
		sigs = sigs[:0]
		for p := 0; p < nP; p++ {
			tuples = tuples[:0]
			for _, ta := range n.placeIn[p] {
				tuples = append(tuples, tuple('<', ta.Weight, tCol[ta.Transition]))
			}
			for _, ta := range n.placeOut[p] {
				tuples = append(tuples, tuple('>', ta.Weight, tCol[ta.Transition]))
			}
			sigs = append(sigs, joinSig('P', pCol[p]))
		}
		for t := 0; t < nT; t++ {
			tuples = tuples[:0]
			for _, a := range n.pre[t] {
				tuples = append(tuples, tuple('<', a.Weight, pCol[a.Place]))
			}
			for _, a := range n.post[t] {
				tuples = append(tuples, tuple('>', a.Weight, pCol[a.Place]))
			}
			sigs = append(sigs, joinSig('T', tCol[t]))
		}
		next := rankSignatures(sigs, pCol, tCol)
		if next == classes {
			break // partition stable
		}
		classes = next
	}

	cf := &CanonicalForm{
		PlaceAt:  make([]Place, nP),
		TransAt:  make([]Transition, nT),
		PlacePos: make([]int, nP),
		TransPos: make([]int, nT),
	}
	for i := range cf.PlaceAt {
		cf.PlaceAt[i] = Place(i)
	}
	for i := range cf.TransAt {
		cf.TransAt[i] = Transition(i)
	}
	// Canonical order: refined colour first, local index as the tie-break
	// (ties are colour-equivalent nodes, interchangeable for all practical
	// nets; a tie broken differently still yields a valid — merely
	// unshared — hash).
	sort.Slice(cf.PlaceAt, func(i, j int) bool {
		a, b := cf.PlaceAt[i], cf.PlaceAt[j]
		if pCol[a] != pCol[b] {
			return pCol[a] < pCol[b]
		}
		return a < b
	})
	sort.Slice(cf.TransAt, func(i, j int) bool {
		a, b := cf.TransAt[i], cf.TransAt[j]
		if tCol[a] != tCol[b] {
			return tCol[a] < tCol[b]
		}
		return a < b
	})
	for i, p := range cf.PlaceAt {
		cf.PlacePos[p] = i
	}
	for i, t := range cf.TransAt {
		cf.TransPos[t] = i
	}

	// Serialise the relabelled structure: node counts, markings in
	// canonical place order, then per canonical transition the sorted
	// (canonical place, weight) pre- and post-sets.
	buf = append(buf[:0], "fcpn-canonical-v1|P"...)
	buf = strconv.AppendInt(buf, int64(nP), 10)
	buf = append(buf, "|T"...)
	buf = strconv.AppendInt(buf, int64(nT), 10)
	buf = append(buf, "\nm"...)
	for _, p := range cf.PlaceAt {
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(markAt(init, int(p))), 10)
	}
	appendArcs := func(arcs []ArcRef) {
		for _, pw := range canonicalArcs(arcs, cf.PlacePos) {
			buf = append(buf, ' ')
			buf = strconv.AppendInt(buf, int64(pw[0]), 10)
			buf = append(buf, '*')
			buf = strconv.AppendInt(buf, int64(pw[1]), 10)
		}
	}
	for i, t := range cf.TransAt {
		buf = append(buf, "\nt"...)
		buf = strconv.AppendInt(buf, int64(i), 10)
		buf = append(buf, " pre"...)
		appendArcs(n.pre[t])
		buf = append(buf, " post"...)
		appendArcs(n.post[t])
	}
	sum := sha256.Sum256(buf)
	cf.Hash = hex.EncodeToString(sum[:])
	return cf
}

// rankSignatures replaces pCol/tCol with the rank of each node's signature
// in the lexicographically sorted distinct-signature list and returns the
// number of distinct signatures.
func rankSignatures(sigs []string, pCol, tCol []int) int {
	distinct := append([]string(nil), sigs...)
	sort.Strings(distinct)
	uniq := distinct[:0]
	for i, s := range distinct {
		if i == 0 || s != distinct[i-1] {
			uniq = append(uniq, s)
		}
	}
	rank := make(map[string]int, len(uniq))
	for i, s := range uniq {
		rank[s] = i
	}
	for p := range pCol {
		pCol[p] = rank[sigs[p]]
	}
	for t := range tCol {
		tCol[t] = rank[sigs[len(pCol)+t]]
	}
	return len(uniq)
}

func markAt(m Marking, p int) int {
	if p < len(m) {
		return m[p]
	}
	return 0
}

func sortedWeightsT(arcs []TArc) []int {
	ws := make([]int, len(arcs))
	for i, a := range arcs {
		ws[i] = a.Weight
	}
	sort.Ints(ws)
	return ws
}

func sortedWeightsP(arcs []ArcRef) []int {
	ws := make([]int, len(arcs))
	for i, a := range arcs {
		ws[i] = a.Weight
	}
	sort.Ints(ws)
	return ws
}

// canonicalArcs maps a transition's arc list into sorted
// (canonical place position, weight) pairs.
func canonicalArcs(arcs []ArcRef, placePos []int) [][2]int {
	out := make([][2]int, len(arcs))
	for i, a := range arcs {
		out[i] = [2]int{placePos[a.Place], a.Weight}
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}
