package petri

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"strconv"
)

// CanonicalForm is a naming-independent canonical relabelling of a net:
// nodes are assigned canonical positions by iterated colour refinement
// (Weisfeiler–Lehman style) over the bipartite weighted flow graph, with
// the initial marking folded into the place colours. Two nets that differ
// only in node names receive the same Hash. Nets that differ in
// declaration order may not: nodes still tied when refinement stabilises
// are ordered by local index. Equal hashes always denote isomorphic nets
// (the hash covers the complete relabelled structure, so a collision would
// require equal canonical adjacency).
//
// Colours are ranks in the byte order of the v1 signature texts (see
// computeCanonicalForm), which fix every hash; the refinement computes
// that order on integer keys rather than on the texts.
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

// computeCanonicalForm refines colours over the nodes, places 0..nP-1
// then transitions nP.., in one colour space. Each round gives a node the
// rank of its signature text among the distinct texts of the round, in
// byte order, so places (P) rank before transitions (T):
//
//   - round 0: "P|m<marking>|i<#in>|o<#out>|iw <w>…|ow <w>…" for a place
//     and "T|i<#in>|o<#out>|iw <w>…|ow <w>…" for a transition, the
//     input and output weights in numeric order;
//   - each later round: the kind, the node's colour and '|', then its
//     arc tuples "<w,c" (input) and ">w,c" (output), for weight w and
//     neighbour colour c, in byte order and joined by ';'.
//
// Round 0 ranks the texts themselves. Later rounds rank integer keys that
// sort as the texts do. An arc's key is its direction, then the text
// order of its weight among the net's distinct weights, then the text
// order of the neighbour's colour, in which a text sorts before the texts
// it prefixes ("1" < "10" < "2"). Nodes are bucketed by their own colour
// in the order of colour+"|", in which a text sorts after the texts it
// prefixes ("10|" < "1|" < "2|"), and a bucket is sorted on its nodes'
// key lists. Byte order is ',' < digits < ';' < '<' < '>' < 'P' < 'T' <
// '|', so where the first differing tuples of two nodes differ only in a
// colour whose text is a proper prefix of the other's, the node with the
// shorter colour sorts after the other when another tuple follows it
// (';' sorts after any digit) and first when its text ends there. A node
// whose key list is a prefix of the other's sorts first. Refinement stops
// when a round keeps the number of classes, or after nP+nT rounds.
func (n *Net) computeCanonicalForm() *CanonicalForm {
	nP, nT := n.NumPlaces(), n.NumTransitions()
	nodes := nP + nT
	init := n.initialMark

	// Node v's arcs are nbr/weight[first[v]:first[v+1]]: its inputs (the
	// producers of a place, the preset of a transition), then from
	// split[v] on its outputs. Every flow arc appears at both its ends.
	arcs := 0
	for t := 0; t < nT; t++ {
		arcs += 2 * (len(n.pre[t]) + len(n.post[t]))
	}
	first := make([]int, nodes+1)
	split := make([]int, nodes)
	nbr := make([]int, 0, arcs)
	weight := make([]int, 0, arcs)
	for p := 0; p < nP; p++ {
		first[p] = len(nbr)
		for _, a := range n.placeIn[p] {
			nbr, weight = append(nbr, nP+int(a.Transition)), append(weight, a.Weight)
		}
		split[p] = len(nbr)
		for _, a := range n.placeOut[p] {
			nbr, weight = append(nbr, nP+int(a.Transition)), append(weight, a.Weight)
		}
	}
	for t := 0; t < nT; t++ {
		first[nP+t] = len(nbr)
		for _, a := range n.pre[t] {
			nbr, weight = append(nbr, int(a.Place)), append(weight, a.Weight)
		}
		split[nP+t] = len(nbr)
		for _, a := range n.post[t] {
			nbr, weight = append(nbr, int(a.Place)), append(weight, a.Weight)
		}
	}
	first[nodes] = len(nbr)

	// Round 0: the signature texts, in one slab.
	buf := make([]byte, 0, 24*nodes+4*arcs)
	sigAt := make([]int, nodes+1)
	var ws []int
	appendWeights := func(w []int) {
		ws = append(ws[:0], w...)
		slices.Sort(ws)
		for _, x := range ws {
			buf = append(buf, ' ')
			buf = strconv.AppendInt(buf, int64(x), 10)
		}
	}
	for v := 0; v < nodes; v++ {
		sigAt[v] = len(buf)
		if v < nP {
			buf = append(buf, "P|m"...)
			buf = strconv.AppendInt(buf, int64(markAt(init, v)), 10)
			buf = append(buf, "|i"...)
		} else {
			buf = append(buf, "T|i"...)
		}
		buf = strconv.AppendInt(buf, int64(split[v]-first[v]), 10)
		buf = append(buf, "|o"...)
		buf = strconv.AppendInt(buf, int64(first[v+1]-split[v]), 10)
		buf = append(buf, "|iw"...)
		appendWeights(weight[first[v]:split[v]])
		buf = append(buf, "|ow"...)
		appendWeights(weight[split[v]:first[v+1]])
	}
	sigAt[nodes] = len(buf)
	sig := func(v int) []byte { return buf[sigAt[v]:sigAt[v+1]] }
	order := make([]int, nodes)
	for v := range order {
		order[v] = v
	}
	slices.SortFunc(order, func(a, b int) int { return bytes.Compare(sig(a), sig(b)) })
	col := make([]int, nodes)
	classes, placeClasses := rankRuns(order, col, nP, func(a, b int) bool { return bytes.Equal(sig(a), sig(b)) })

	// Static arc keys: direction, then the weight's text-order rank among
	// the net's distinct weights, scaled to leave room for a colour rank.
	distinct := slices.Clone(weight)
	slices.Sort(distinct)
	distinct = slices.Compact(distinct)
	byText := slices.Clone(distinct)
	slices.SortFunc(byText, compareDecimal)
	weightRank := make([]int, len(distinct))
	for r, w := range byText {
		i, _ := slices.BinarySearch(distinct, w)
		weightRank[i] = r
	}
	arcKey := make([]int, len(nbr))
	for v := 0; v < nodes; v++ {
		for j := first[v]; j < first[v+1]; j++ {
			i, _ := slices.BinarySearch(distinct, weight[j])
			dir := 0
			if j >= split[v] {
				dir = 1
			}
			arcKey[j] = (dir*len(distinct) + weightRank[i]) * nodes
		}
	}

	// Refinement rounds on integer keys.
	trie := newDigitTrie(nodes)
	keys := make([]int, len(nbr))
	next := make([]int, nodes)
	cnt := make([]int, nodes)
	compareNodes := func(a, b int) int {
		return compareKeyLists(keys[first[a]:first[a+1]], keys[first[b]:first[b+1]], nodes, trie.textEnd)
	}
	for round := 0; round < nodes; round++ {
		for j, u := range nbr {
			keys[j] = arcKey[j] + trie.textRank[col[u]]
		}
		for v := 0; v < nodes; v++ {
			slices.Sort(keys[first[v]:first[v+1]])
		}
		// Bucket the nodes by colour, place colours before transition
		// colours, each in colour+"|" order; cnt[c] becomes the end of
		// colour c's bucket.
		clear(cnt[:classes])
		for _, c := range col {
			cnt[c]++
		}
		at := 0
		for pass := 0; pass < 2; pass++ {
			for _, c := range trie.barOrder {
				if c < classes && (c < placeClasses) == (pass == 0) {
					at, cnt[c] = at+cnt[c], at
				}
			}
		}
		for v, c := range col {
			order[cnt[c]] = v
			cnt[c]++
		}
		for i := 0; i < nodes; {
			end := cnt[col[order[i]]]
			if end-i > 1 {
				slices.SortFunc(order[i:end], compareNodes)
			}
			i = end
		}
		nextClasses, nextPlaceClasses := rankRuns(order, next, nP, func(a, b int) bool {
			return col[a] == col[b] && compareNodes(a, b) == 0
		})
		col, next = next, col
		if nextClasses == classes {
			break // partition stable
		}
		classes, placeClasses = nextClasses, nextPlaceClasses
	}

	// Canonical order: refined colour first, local index as the tie-break
	// (ties are colour-equivalent nodes, interchangeable for all practical
	// nets; a tie broken differently still yields a valid — merely
	// unshared — hash). The last round left order sorted by colour, place
	// colours first; sort each colour's nodes by index.
	for i := 0; i < nodes; {
		end := i + 1
		for end < nodes && col[order[end]] == col[order[i]] {
			end++
		}
		slices.Sort(order[i:end])
		i = end
	}
	cf := &CanonicalForm{
		PlaceAt:  make([]Place, nP),
		TransAt:  make([]Transition, nT),
		PlacePos: make([]int, nP),
		TransPos: make([]int, nT),
	}
	for i, v := range order[:nP] {
		cf.PlaceAt[i], cf.PlacePos[v] = Place(v), i
	}
	for i, v := range order[nP:] {
		cf.TransAt[i], cf.TransPos[v-nP] = Transition(v-nP), i
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
	var posArcs []ArcRef
	appendArcs := func(arcs []ArcRef) {
		posArcs = posArcs[:0]
		for _, a := range arcs {
			posArcs = append(posArcs, ArcRef{Place(cf.PlacePos[a.Place]), a.Weight})
		}
		slices.SortFunc(posArcs, func(a, b ArcRef) int { return cmp.Compare(a.Place, b.Place) })
		for _, a := range posArcs {
			buf = append(buf, ' ')
			buf = strconv.AppendInt(buf, int64(a.Place), 10)
			buf = append(buf, '*')
			buf = strconv.AppendInt(buf, int64(a.Weight), 10)
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

// rankRuns gives each node of order, which is sorted with places first,
// the number of classes before its own, where same tells whether two
// neighbours in order share a class. It returns the number of classes
// and how many of them are place classes.
func rankRuns(order, col []int, nP int, same func(a, b int) bool) (classes, placeClasses int) {
	for i, v := range order {
		if i == 0 || !same(order[i-1], v) {
			classes++
		}
		col[v] = classes - 1
		if v < nP {
			placeClasses = classes
		}
	}
	return classes, placeClasses
}

// compareKeyLists orders two nodes of one colour by their sorted arc keys
// as their signature texts order (see computeCanonicalForm). A key is
// (direction and weight)×nodes plus the text-order rank of a colour;
// textEnd[r] is one past the last rank of the texts that the text of
// rank r prefixes.
func compareKeyLists(a, b []int, nodes int, textEnd []int) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		x, y := a[i], b[i]
		if x == y {
			continue
		}
		if cx, cy := x%nodes, y%nodes; x-cx == y-cy {
			// Same direction and weight: if one colour's text is a
			// proper prefix of the other's, a following ';' sorts after
			// the other's next digit, and an end of text before it.
			if cx < cy && cy < textEnd[cx] {
				if i+1 < len(a) {
					return 1
				}
				return -1
			}
			if cy < cx && cx < textEnd[cy] {
				if i+1 < len(b) {
					return -1
				}
				return 1
			}
		}
		return cmp.Compare(x, y)
	}
	return cmp.Compare(len(a), len(b))
}

// digitTrie orders the values [0, n) by their decimal texts, walking the
// trie of their digits. textRank[v] is v's rank in text order, in which
// a text sorts before the texts it prefixes ("1" < "10" < "2"): the
// preorder. textEnd[r] is one past the last rank of the texts that the
// text of rank r prefixes. barOrder lists the values in the order of
// text+"|", in which a text sorts after the texts it prefixes
// ("10|" < "1|" < "2|"): the postorder.
type digitTrie struct {
	n, ranked                   int
	textRank, textEnd, barOrder []int
}

func newDigitTrie(n int) *digitTrie {
	d := &digitTrie{n: n, textRank: make([]int, n), textEnd: make([]int, n), barOrder: make([]int, 0, n)}
	for v := 0; v < 10 && v < n; v++ {
		d.visit(v)
	}
	return d
}

// visit ranks v and then the values whose texts v's text prefixes: none
// for 0, and 10v..10v+9 with theirs for v > 0.
func (d *digitTrie) visit(v int) {
	r := d.ranked
	d.textRank[v] = r
	d.ranked++
	if v > 0 {
		for c := 10 * v; c < d.n && c < 10*v+10; c++ {
			d.visit(c)
		}
	}
	d.textEnd[r] = d.ranked
	d.barOrder = append(d.barOrder, v)
}

func markAt(m Marking, p int) int {
	if p < len(m) {
		return m[p]
	}
	return 0
}

// compareDecimal orders non-negative integers as their decimal texts
// compare.
func compareDecimal(a, b int) int {
	var x, y [20]byte
	return bytes.Compare(strconv.AppendInt(x[:0], int64(a), 10), strconv.AppendInt(y[:0], int64(b), 10))
}
