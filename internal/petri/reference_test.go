package petri

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// This file keeps the map-based constructors the package used before nets
// were assembled from slices, and the canonical form as it was computed
// before it ranked integer keys, as references for the differential
// tests: refBuilder accumulates arcs in per-transition maps, refParse is
// the strings.Fields parser over it, refCanonicalNet and refInducedSubnet
// build the twin and a subnet through refBuilder, refConflictClusters
// compares every transition pair, and refCanonicalForm ranks each
// round's signature strings through a sorted copy and a map. The one
// addition to the constructors is the overflow check: refBuilder flags an
// arc whose summed weight leaves int and its build reports the first such
// arc in the order Builder.build checks them (input arcs of every
// transition, then output arcs, each by place).

type refBuilder struct {
	name       string
	placeNames []string
	transNames []string
	placeIndex map[string]Place
	transIndex map[string]Transition
	preArcs    map[Transition]map[Place]int
	postArcs   map[Transition]map[Place]int
	preOver    map[Transition]map[Place]bool
	postOver   map[Transition]map[Place]bool
	marking    map[Place]int
}

func newRefBuilder(name string) *refBuilder {
	return &refBuilder{
		name:       name,
		placeIndex: make(map[string]Place),
		transIndex: make(map[string]Transition),
		preArcs:    make(map[Transition]map[Place]int),
		postArcs:   make(map[Transition]map[Place]int),
		preOver:    make(map[Transition]map[Place]bool),
		postOver:   make(map[Transition]map[Place]bool),
		marking:    make(map[Place]int),
	}
}

func (b *refBuilder) MarkedPlace(name string, tokens int) Place {
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
	if tokens > 0 {
		b.marking[p] = tokens
	}
	return p
}

func (b *refBuilder) Transition(name string) Transition {
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

func (b *refBuilder) WeightedArc(p Place, t Transition, w int) {
	b.addArc(b.preArcs, b.preOver, p, t, w)
}

func (b *refBuilder) WeightedArcTP(t Transition, p Place, w int) {
	b.addArc(b.postArcs, b.postOver, p, t, w)
}

func (b *refBuilder) addArc(arcs map[Transition]map[Place]int, over map[Transition]map[Place]bool, p Place, t Transition, w int) {
	if p < 0 || int(p) >= len(b.placeNames) {
		panic(fmt.Sprintf("petri: unknown place index %d", p))
	}
	if t < 0 || int(t) >= len(b.transNames) {
		panic(fmt.Sprintf("petri: unknown transition index %d", t))
	}
	if w <= 0 {
		panic(fmt.Sprintf("petri: non-positive arc weight %d", w))
	}
	m := arcs[t]
	if m == nil {
		m = make(map[Place]int)
		arcs[t] = m
	}
	if m[p] > int(^uint(0)>>1)-w {
		if over[t] == nil {
			over[t] = make(map[Place]bool)
		}
		over[t][p] = true
	}
	m[p] += w
}

func (b *refBuilder) SetMarking(p Place, tokens int) {
	if p < 0 || int(p) >= len(b.placeNames) {
		panic(fmt.Sprintf("petri: unknown place index %d", p))
	}
	if tokens < 0 {
		panic("petri: negative marking")
	}
	if tokens == 0 {
		delete(b.marking, p)
		return
	}
	b.marking[p] = tokens
}

func (b *refBuilder) Build() *Net {
	n, err := b.build()
	if err != nil {
		panic(err.Error())
	}
	return n
}

func (b *refBuilder) build() (*Net, error) {
	for dir, over := range []map[Transition]map[Place]bool{b.preOver, b.postOver} {
		for t := Transition(0); int(t) < len(b.transNames); t++ {
			var ps []int
			for p := range over[t] {
				ps = append(ps, int(p))
			}
			if len(ps) == 0 {
				continue
			}
			sort.Ints(ps)
			from, to := b.placeNames[ps[0]], b.transNames[t]
			if dir == 1 {
				from, to = to, from
			}
			return nil, fmt.Errorf("petri: arc %s -> %s: summed weight overflows int", from, to)
		}
	}
	n := &Net{
		name:       b.name,
		placeNames: append([]string(nil), b.placeNames...),
		transNames: append([]string(nil), b.transNames...),
		placeIndex: make(map[string]Place, len(b.placeIndex)),
		transIndex: make(map[string]Transition, len(b.transIndex)),
		pre:        make([][]ArcRef, len(b.transNames)),
		post:       make([][]ArcRef, len(b.transNames)),
		placeIn:    make([][]TArc, len(b.placeNames)),
		placeOut:   make([][]TArc, len(b.placeNames)),
	}
	for name, p := range b.placeIndex {
		n.placeIndex[name] = p
	}
	for name, t := range b.transIndex {
		n.transIndex[name] = t
	}
	for t := Transition(0); int(t) < len(b.transNames); t++ {
		n.pre[t] = refSortedArcRefs(b.preArcs[t])
		n.post[t] = refSortedArcRefs(b.postArcs[t])
		for _, a := range n.pre[t] {
			n.placeOut[a.Place] = append(n.placeOut[a.Place], TArc{t, a.Weight})
		}
		for _, a := range n.post[t] {
			n.placeIn[a.Place] = append(n.placeIn[a.Place], TArc{t, a.Weight})
		}
	}
	n.initialMark = NewMarking(len(b.placeNames))
	for p, k := range b.marking {
		n.initialMark[p] = k
	}
	return n, nil
}

func refSortedArcRefs(m map[Place]int) []ArcRef {
	if len(m) == 0 {
		return nil
	}
	out := make([]ArcRef, 0, len(m))
	for p, w := range m {
		out = append(out, ArcRef{p, w})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Place < out[j].Place })
	return out
}

func refParseString(s string) (*Net, error) { return refParse(strings.NewReader(s)) }

func refParse(r io.Reader) (*Net, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	b := newRefBuilder("")
	named := false
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if i := strings.IndexByte(text, '#'); i >= 0 {
			text = text[:i]
		}
		fields := strings.Fields(text)
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "net":
			if len(fields) != 2 {
				return nil, fmt.Errorf("petri: line %d: usage: net NAME", line)
			}
			if named {
				return nil, fmt.Errorf("petri: line %d: duplicate net directive", line)
			}
			named = true
			b.name = fields[1]
		case "place":
			if len(fields) != 2 && len(fields) != 3 {
				return nil, fmt.Errorf("petri: line %d: usage: place NAME [TOKENS]", line)
			}
			tokens := 0
			if len(fields) == 3 {
				v, err := strconv.Atoi(fields[2])
				if err != nil || v < 0 {
					return nil, fmt.Errorf("petri: line %d: bad token count %q", line, fields[2])
				}
				tokens = v
			}
			if err := b.checkFresh(fields[1]); err != nil {
				return nil, fmt.Errorf("petri: line %d: %w", line, err)
			}
			b.MarkedPlace(fields[1], tokens)
		case "trans", "transition":
			if len(fields) != 2 {
				return nil, fmt.Errorf("petri: line %d: usage: trans NAME", line)
			}
			if err := b.checkFresh(fields[1]); err != nil {
				return nil, fmt.Errorf("petri: line %d: %w", line, err)
			}
			b.Transition(fields[1])
		case "arc":
			if err := b.parseArcChain(fields[1:]); err != nil {
				return nil, fmt.Errorf("petri: line %d: %w", line, err)
			}
		default:
			return nil, fmt.Errorf("petri: line %d: unknown directive %q", line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("petri: read: %w", err)
	}
	return b.build()
}

func (b *refBuilder) checkFresh(name string) error {
	if _, dup := b.placeIndex[name]; dup {
		return fmt.Errorf("duplicate node %q", name)
	}
	if _, dup := b.transIndex[name]; dup {
		return fmt.Errorf("duplicate node %q", name)
	}
	return nil
}

func (b *refBuilder) parseArcChain(fields []string) error {
	if len(fields) < 3 {
		return fmt.Errorf("usage: arc FROM -> TO [* WEIGHT] [-> NEXT ...]")
	}
	cur := fields[0]
	i := 1
	for i < len(fields) {
		if fields[i] != "->" {
			return fmt.Errorf("expected \"->\" at token %q", fields[i])
		}
		if i+1 >= len(fields) {
			return fmt.Errorf("dangling \"->\"")
		}
		next := fields[i+1]
		i += 2
		weight := 1
		if i < len(fields) && fields[i] == "*" {
			if i+1 >= len(fields) {
				return fmt.Errorf("dangling \"*\"")
			}
			w, err := strconv.Atoi(fields[i+1])
			if err != nil || w <= 0 {
				return fmt.Errorf("bad weight %q", fields[i+1])
			}
			weight = w
			i += 2
		}
		if err := b.addArcByName(cur, next, weight); err != nil {
			return err
		}
		cur = next
	}
	return nil
}

func (b *refBuilder) addArcByName(from, to string, w int) error {
	if p, ok := b.placeIndex[from]; ok {
		t, ok := b.transIndex[to]
		if !ok {
			if _, isPlace := b.placeIndex[to]; isPlace {
				return fmt.Errorf("arc %s -> %s connects two places", from, to)
			}
			return fmt.Errorf("unknown node %q", to)
		}
		b.WeightedArc(p, t, w)
		return nil
	}
	if t, ok := b.transIndex[from]; ok {
		p, ok := b.placeIndex[to]
		if !ok {
			if _, isTrans := b.transIndex[to]; isTrans {
				return fmt.Errorf("arc %s -> %s connects two transitions", from, to)
			}
			return fmt.Errorf("unknown node %q", to)
		}
		b.WeightedArcTP(t, p, w)
		return nil
	}
	return fmt.Errorf("unknown node %q", from)
}

func refCanonicalNet(n *Net) *Net {
	cf := n.CanonicalForm()
	tag := cf.Hash
	if len(tag) > 12 {
		tag = tag[:12]
	}
	b := newRefBuilder("canonical_" + tag)
	mark := n.initialMark
	places := make([]Place, len(cf.PlaceAt))
	for pos, p := range cf.PlaceAt {
		places[pos] = b.MarkedPlace(fmt.Sprintf("p%d", pos), mark[p])
	}
	trans := make([]Transition, len(cf.TransAt))
	for pos := range cf.TransAt {
		trans[pos] = b.Transition(fmt.Sprintf("t%d", pos))
	}
	for pos, t := range cf.TransAt {
		pre := append([]ArcRef(nil), n.Pre(t)...)
		sort.Slice(pre, func(i, j int) bool {
			return cf.PlacePos[pre[i].Place] < cf.PlacePos[pre[j].Place]
		})
		for _, a := range pre {
			b.WeightedArc(places[cf.PlacePos[a.Place]], trans[pos], a.Weight)
		}
		post := append([]ArcRef(nil), n.Post(t)...)
		sort.Slice(post, func(i, j int) bool {
			return cf.PlacePos[post[i].Place] < cf.PlacePos[post[j].Place]
		})
		for _, a := range post {
			b.WeightedArcTP(trans[pos], places[cf.PlacePos[a.Place]], a.Weight)
		}
	}
	return b.Build()
}

func refConflictClusters(n *Net) []ConflictCluster {
	seen := make([]bool, n.NumTransitions())
	var clusters []ConflictCluster
	for t := Transition(0); int(t) < n.NumTransitions(); t++ {
		if seen[t] || len(n.pre[t]) == 0 {
			continue
		}
		cluster := ConflictCluster{Transitions: []Transition{t}}
		seen[t] = true
		for u := t + 1; int(u) < n.NumTransitions(); u++ {
			if !seen[u] && n.EqualConflict(t, u) {
				cluster.Transitions = append(cluster.Transitions, u)
				seen[u] = true
			}
		}
		placeSet := map[Place]bool{}
		for _, a := range n.pre[t] {
			placeSet[a.Place] = true
		}
		for p := range placeSet {
			cluster.Places = append(cluster.Places, p)
		}
		sort.Slice(cluster.Places, func(i, j int) bool { return cluster.Places[i] < cluster.Places[j] })
		clusters = append(clusters, cluster)
	}
	return clusters
}

// dumpNet renders everything a Net holds, one fact per line: names and
// name lookups, arcs of every transition, producers and consumers of
// every place, the marking, Format text and the canonical hash. Two nets
// are equal when their dumps are.
func dumpNet(n *Net) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "name %q\nplaces %q\ntransitions %q\n", n.name, n.placeNames, n.transNames)
	names := make([]string, 0, len(n.placeIndex))
	for name := range n.placeIndex {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&sb, "place lookup %q = %d\n", name, n.placeIndex[name])
	}
	names = names[:0]
	for name := range n.transIndex {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&sb, "transition lookup %q = %d\n", name, n.transIndex[name])
	}
	for t := range n.pre {
		fmt.Fprintf(&sb, "t%d pre %v post %v\n", t, n.pre[t], n.post[t])
	}
	for p := range n.placeIn {
		fmt.Fprintf(&sb, "p%d producers %v consumers %v\n", p, n.placeIn[p], n.placeOut[p])
	}
	fmt.Fprintf(&sb, "marking %v\n", []int(n.initialMark))
	fmt.Fprintf(&sb, "format\n%shash %s\n", Format(n), n.CanonicalHash())
	return sb.String()
}

// diffNets returns nil when the dumps of got and want agree, and otherwise
// an error quoting the first line that differs.
func diffNets(got, want *Net) error {
	g, w := strings.Split(dumpNet(got), "\n"), strings.Split(dumpNet(want), "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Errorf("dump line %d:\n got  %s\n want %s", i+1, gl, wl)
		}
	}
	return nil
}

// checkAgainstReference compares the constructors on one net n against
// the references: Build replaying n's nodes and arcs (each arc of weight
// w > 1 split into two repeated calls), Parse of Format(n) and of that text
// with its arc lines reversed and split the same way, CanonicalNet,
// InducedSubnet on about two thirds of the nodes, ConflictClusters,
// FreeChoiceSets and CanonicalForm.
func checkAgainstReference(n *Net) error {
	nb, rb := NewBuilder(n.name), newRefBuilder(n.name)
	for p, name := range n.placeNames {
		nb.MarkedPlace(name, n.initialMark[p])
		rb.MarkedPlace(name, n.initialMark[p])
	}
	for _, name := range n.transNames {
		nb.Transition(name)
		rb.Transition(name)
	}
	var arcLines []string
	for t := len(n.pre) - 1; t >= 0; t-- {
		for _, a := range n.pre[t] {
			for _, w := range splitWeight(a.Weight) {
				nb.WeightedArc(a.Place, Transition(t), w)
				rb.WeightedArc(a.Place, Transition(t), w)
				arcLines = append(arcLines, fmt.Sprintf("arc %s -> %s * %d", n.placeNames[a.Place], n.transNames[t], w))
			}
		}
		for _, a := range n.post[t] {
			for _, w := range splitWeight(a.Weight) {
				nb.WeightedArcTP(Transition(t), a.Place, w)
				rb.WeightedArcTP(Transition(t), a.Place, w)
				arcLines = append(arcLines, fmt.Sprintf("arc %s -> %s * %d", n.transNames[t], n.placeNames[a.Place], w))
			}
		}
	}
	built := nb.Build()
	if err := diffNets(built, rb.Build()); err != nil {
		return fmt.Errorf("Build: %w", err)
	}
	if err := diffNets(built, n); err != nil {
		return fmt.Errorf("Build of a replay: %w", err)
	}

	text := Format(n)
	var sb strings.Builder
	for _, line := range strings.SplitAfter(text, "\n") {
		if !strings.HasPrefix(line, "arc ") {
			sb.WriteString(line)
		}
	}
	for _, line := range arcLines {
		sb.WriteString(line + "\n")
	}
	for _, doc := range []string{text, sb.String()} {
		got, err := ParseString(doc)
		if err != nil {
			return fmt.Errorf("Parse: %w", err)
		}
		want, err := refParseString(doc)
		if err != nil {
			return fmt.Errorf("reference parse: %w", err)
		}
		if err := diffNets(got, want); err != nil {
			return fmt.Errorf("Parse: %w", err)
		}
	}

	if err := diffCanonicalForms(n.CanonicalForm(), refCanonicalForm(n)); err != nil {
		return fmt.Errorf("CanonicalForm: %w", err)
	}
	if err := diffNets(n.CanonicalNet(), refCanonicalNet(n)); err != nil {
		return fmt.Errorf("CanonicalNet: %w", err)
	}
	if err := diffNets(refInducedSubnet(n), n.InducedSubnet("sub", keptHalf[Transition](len(n.pre)), keptHalf[Place](len(n.placeNames)))); err != nil {
		return fmt.Errorf("InducedSubnet: %w", err)
	}
	return checkClusters(n)
}

// keptHalf lists, backwards, the indices below count that are not
// multiples of 3, plus 0.
func keptHalf[I ~int](count int) []I {
	var out []I
	for i := count - 1; i >= 0; i-- {
		if i%3 != 0 || i == 0 {
			out = append(out, I(i))
		}
	}
	return out
}

// refInducedSubnet builds with refBuilder the subnet of n that keeps the
// nodes keptHalf lists, in parent order, and the arcs between them.
func refInducedSubnet(n *Net) *Net {
	b := newRefBuilder("sub")
	keepP := map[Place]Place{}
	for _, p := range keptHalf[Place](len(n.placeNames)) {
		keepP[p] = -1
	}
	for p := range n.placeNames {
		if _, ok := keepP[Place(p)]; ok {
			keepP[Place(p)] = b.MarkedPlace(n.placeNames[p], n.initialMark[p])
		}
	}
	keepT := map[Transition]bool{}
	for _, t := range keptHalf[Transition](len(n.pre)) {
		keepT[t] = true
	}
	for t := range n.pre {
		if !keepT[Transition(t)] {
			continue
		}
		st := b.Transition(n.transNames[t])
		for _, a := range n.pre[t] {
			if sp, ok := keepP[a.Place]; ok {
				b.WeightedArc(sp, st, a.Weight)
			}
		}
		for _, a := range n.post[t] {
			if sp, ok := keepP[a.Place]; ok {
				b.WeightedArcTP(st, sp, a.Weight)
			}
		}
	}
	return b.Build()
}

// checkClusters compares ConflictClusters and FreeChoiceSets with the
// pairwise reference.
func checkClusters(n *Net) error {
	want := refConflictClusters(n)
	if got := n.ConflictClusters(); fmt.Sprint(got) != fmt.Sprint(want) {
		return fmt.Errorf("ConflictClusters = %v, want %v", got, want)
	}
	var wantFC []ConflictCluster
	for _, c := range want {
		if len(c.Transitions) > 1 {
			wantFC = append(wantFC, c)
		}
	}
	if got := n.FreeChoiceSets(); fmt.Sprint(got) != fmt.Sprint(wantFC) {
		return fmt.Errorf("FreeChoiceSets = %v, want %v", got, wantFC)
	}
	return nil
}

// splitWeight splits w into two positive parts when it can.
func splitWeight(w int) []int {
	if w < 2 {
		return []int{w}
	}
	return []int{w / 2, w - w/2}
}

// CheckAgainstReference is checkAgainstReference for the external tests
// in this directory, which draw nets from packages that import petri.
var CheckAgainstReference = checkAgainstReference

// refCanonicalForm is the canonical form computed on signature texts:
// each round builds every node's signature as a string and ranks the
// distinct strings through a sorted copy and a map.
func refCanonicalForm(n *Net) *CanonicalForm {
	nP, nT := n.NumPlaces(), n.NumTransitions()
	pCol := make([]int, nP)
	tCol := make([]int, nT)

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
		for _, w := range refSortedWeightsT(n.placeIn[p]) {
			buf = append(buf, ' ')
			buf = strconv.AppendInt(buf, int64(w), 10)
		}
		buf = append(buf, "|ow"...)
		for _, w := range refSortedWeightsT(n.placeOut[p]) {
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
		for _, w := range refSortedWeightsP(n.pre[t]) {
			buf = append(buf, ' ')
			buf = strconv.AppendInt(buf, int64(w), 10)
		}
		buf = append(buf, "|ow"...)
		for _, w := range refSortedWeightsP(n.post[t]) {
			buf = append(buf, ' ')
			buf = strconv.AppendInt(buf, int64(w), 10)
		}
		sigs = append(sigs, string(buf))
	}
	classes := refRankSignatures(sigs, pCol, tCol)

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
		next := refRankSignatures(sigs, pCol, tCol)
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
		for _, pw := range refCanonicalArcs(arcs, cf.PlacePos) {
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

// refRankSignatures replaces pCol/tCol with the rank of each node's signature
// in the lexicographically sorted distinct-signature list and returns the
// number of distinct signatures.
func refRankSignatures(sigs []string, pCol, tCol []int) int {
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

func refSortedWeightsT(arcs []TArc) []int {
	ws := make([]int, len(arcs))
	for i, a := range arcs {
		ws[i] = a.Weight
	}
	sort.Ints(ws)
	return ws
}

func refSortedWeightsP(arcs []ArcRef) []int {
	ws := make([]int, len(arcs))
	for i, a := range arcs {
		ws[i] = a.Weight
	}
	sort.Ints(ws)
	return ws
}

// refCanonicalArcs maps a transition's arc list into sorted
// (canonical place position, weight) pairs.
func refCanonicalArcs(arcs []ArcRef, placePos []int) [][2]int {
	out := make([][2]int, len(arcs))
	for i, a := range arcs {
		out[i] = [2]int{placePos[a.Place], a.Weight}
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}
