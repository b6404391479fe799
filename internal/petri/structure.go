package petri

import (
	"cmp"
	"slices"
)

// IsMarkedGraph reports whether every place has at most one input and at
// most one output transition. Marked graphs model concurrency and
// synchronisation but no conflict; SDF graphs map onto them.
func (n *Net) IsMarkedGraph() bool {
	for p := 0; p < n.NumPlaces(); p++ {
		if len(n.placeIn[p]) > 1 || len(n.placeOut[p]) > 1 {
			return false
		}
	}
	return true
}

// IsConflictFree reports whether every place has at most one output
// transition. T-reductions produced by the QSS reduction algorithm are
// conflict-free by construction.
func (n *Net) IsConflictFree() bool {
	for p := 0; p < n.NumPlaces(); p++ {
		if len(n.placeOut[p]) > 1 {
			return false
		}
	}
	return true
}

// IsStateMachine reports whether every transition has exactly one input and
// one output place, each with unit weight.
func (n *Net) IsStateMachine() bool {
	for t := 0; t < n.NumTransitions(); t++ {
		if len(n.pre[t]) != 1 || len(n.post[t]) != 1 {
			return false
		}
		if n.pre[t][0].Weight != 1 || n.post[t][0].Weight != 1 {
			return false
		}
	}
	return true
}

// IsFreeChoice reports whether the net is free-choice: every arc from a
// place is either the unique outgoing arc of that place or the unique
// incoming arc of its target transition. Equivalently, if a place has
// several output transitions, each of those transitions has that place as
// its only input. This guarantees that whenever one output transition of a
// choice place is enabled, all of them are.
func (n *Net) IsFreeChoice() bool {
	for p := 0; p < n.NumPlaces(); p++ {
		if len(n.placeOut[p]) <= 1 {
			continue
		}
		for _, ta := range n.placeOut[p] {
			if len(n.pre[ta.Transition]) != 1 {
				return false
			}
		}
	}
	return true
}

// IsExtendedFreeChoice reports whether every pair of transitions sharing an
// input place has identical presets (the equal-conflict generalisation of
// free choice used by Teruel for weighted nets).
func (n *Net) IsExtendedFreeChoice() bool {
	for p := 0; p < n.NumPlaces(); p++ {
		outs := n.placeOut[p]
		for i := 1; i < len(outs); i++ {
			if !n.samePreset(outs[0].Transition, outs[i].Transition) {
				return false
			}
		}
	}
	return true
}

func (n *Net) samePreset(a, b Transition) bool {
	if len(n.pre[a]) != len(n.pre[b]) {
		return false
	}
	for i := range n.pre[a] {
		if n.pre[a][i] != n.pre[b][i] {
			return false
		}
	}
	return true
}

// EqualConflict reports whether transitions a and b are in equal-conflict
// relation: Pre[P,a] = Pre[P,b] ≠ 0 (Teruel). In a free-choice net two
// distinct transitions are in equal conflict exactly when they share their
// (single) input place.
func (n *Net) EqualConflict(a, b Transition) bool {
	if len(n.pre[a]) == 0 || len(n.pre[b]) == 0 {
		return false
	}
	return n.samePreset(a, b)
}

// ConflictCluster is a maximal set of transitions that are pairwise in
// equal-conflict relation, together with the choice place(s) they share.
// In a free-choice net every cluster with more than one transition stems
// from exactly one choice place.
type ConflictCluster struct {
	Places      []Place
	Transitions []Transition
}

// ConflictClusters partitions the transitions with non-empty presets into
// equal-conflict clusters, sorted by first transition index. Source
// transitions (empty preset) are never part of a cluster. A cluster's
// places are its transitions' common preset. The result is fresh on every
// call.
func (n *Net) ConflictClusters() []ConflictCluster { return n.clusters(1) }

// FreeChoiceSets returns only the clusters with ≥ 2 transitions: the
// decision points the QSS algorithm must resolve. They are computed on the
// first call and the same slice is returned on every call after it, from
// any goroutine; callers must not modify it or the clusters in it.
func (n *Net) FreeChoiceSets() []ConflictCluster {
	n.choiceOnce.Do(func() { n.choices = n.clusters(2) })
	return n.choices
}

// clusters returns the equal-conflict clusters of at least minSize
// transitions. Transitions in equal conflict have one preset and so one
// first input place: the transitions whose first input place is p are
// sorted by preset, then by index, and each run of equal presets is a
// cluster. The cost is O(arcs · log arcs) even where many transitions
// share their first input place but not their presets, which only a net
// that is not free-choice has.
func (n *Net) clusters(minSize int) []ConflictCluster {
	var out []ConflictCluster
	var bucket []Transition
	for p := range n.placeOut {
		bucket = bucket[:0]
		for _, a := range n.placeOut[p] {
			if t := a.Transition; n.pre[t][0].Place == Place(p) {
				bucket = append(bucket, t)
			}
		}
		if len(bucket) < minSize {
			continue
		}
		slices.SortFunc(bucket, func(a, b Transition) int {
			if c := n.comparePresets(a, b); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
		for i := 0; i < len(bucket); {
			j := i + 1
			for j < len(bucket) && n.samePreset(bucket[i], bucket[j]) {
				j++
			}
			if j-i >= minSize {
				t := bucket[i]
				places := make([]Place, len(n.pre[t]))
				for k, a := range n.pre[t] {
					places[k] = a.Place
				}
				out = append(out, ConflictCluster{Places: places, Transitions: slices.Clone(bucket[i:j])})
			}
			i = j
		}
	}
	// Each cluster's first transition is its lowest, and no two clusters
	// share one.
	slices.SortFunc(out, func(a, b ConflictCluster) int {
		return cmp.Compare(a.Transitions[0], b.Transitions[0])
	})
	return out
}

// comparePresets orders transitions by preset: by their arcs in place
// order, compared by place and then weight. It is 0 exactly when
// samePreset holds.
func (n *Net) comparePresets(a, b Transition) int {
	return slices.CompareFunc(n.pre[a], n.pre[b], func(x, y ArcRef) int {
		if c := cmp.Compare(x.Place, y.Place); c != 0 {
			return c
		}
		return cmp.Compare(x.Weight, y.Weight)
	})
}

// StronglyConnected reports whether the underlying directed graph (places
// and transitions as vertices, arcs as edges) is strongly connected.
// Embedded-system nets with source/sink transitions never are; the check
// matters because classic free-choice results (Hack) assume it.
func (n *Net) StronglyConnected() bool {
	v := n.NumPlaces() + n.NumTransitions()
	if v == 0 {
		return true
	}
	// Vertex numbering: places 0..|P|-1, transitions |P|..|P|+|T|-1.
	fwd := make([][]int, v)
	rev := make([][]int, v)
	addEdge := func(a, b int) {
		fwd[a] = append(fwd[a], b)
		rev[b] = append(rev[b], a)
	}
	for p := 0; p < n.NumPlaces(); p++ {
		for _, ta := range n.placeOut[p] {
			addEdge(p, n.NumPlaces()+int(ta.Transition))
		}
	}
	for t := 0; t < n.NumTransitions(); t++ {
		for _, pa := range n.post[t] {
			addEdge(n.NumPlaces()+t, int(pa.Place))
		}
	}
	reach := func(adj [][]int) int {
		seen := make([]bool, v)
		stack := []int{0}
		seen[0] = true
		count := 0
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			count++
			for _, y := range adj[x] {
				if !seen[y] {
					seen[y] = true
					stack = append(stack, y)
				}
			}
		}
		return count
	}
	return reach(fwd) == v && reach(rev) == v
}

// WeaklyConnected reports whether the underlying undirected graph is
// connected (ignoring isolated comparison when the net is empty).
func (n *Net) WeaklyConnected() bool {
	v := n.NumPlaces() + n.NumTransitions()
	if v == 0 {
		return true
	}
	adj := make([][]int, v)
	link := func(a, b int) {
		adj[a] = append(adj[a], b)
		adj[b] = append(adj[b], a)
	}
	for p := 0; p < n.NumPlaces(); p++ {
		for _, ta := range n.placeOut[p] {
			link(p, n.NumPlaces()+int(ta.Transition))
		}
	}
	for t := 0; t < n.NumTransitions(); t++ {
		for _, pa := range n.post[t] {
			link(n.NumPlaces()+t, int(pa.Place))
		}
	}
	seen := make([]bool, v)
	stack := []int{0}
	seen[0] = true
	count := 0
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		count++
		for _, y := range adj[x] {
			if !seen[y] {
				seen[y] = true
				stack = append(stack, y)
			}
		}
	}
	return count == v
}

// Classify summarises the structural class of the net for reports.
func (n *Net) Classify() string {
	switch {
	case n.IsMarkedGraph():
		return "marked graph"
	case n.IsConflictFree():
		return "conflict-free"
	case n.IsFreeChoice():
		return "free-choice"
	case n.IsExtendedFreeChoice():
		return "extended free-choice"
	default:
		return "general"
	}
}
