package petri

import "math/bits"

// NodeSet is a bitset over node indices (places or transitions). The QSS
// reduction pipeline in internal/core represents T-reductions as kept-node
// bitsets over the parent net instead of materialised subnets, so the hot
// enumeration loop never touches the Builder.
type NodeSet []uint64

// NewNodeSet returns an empty set sized for indices 0..n-1.
func NewNodeSet(n int) NodeSet { return make(NodeSet, (n+63)/64) }

// Add inserts index i. i must be within the size the set was created with.
func (s NodeSet) Add(i int) { s[i>>6] |= 1 << (uint(i) & 63) }

// Has reports whether index i is in the set.
func (s NodeSet) Has(i int) bool {
	w := i >> 6
	return w < len(s) && s[w]&(1<<(uint(i)&63)) != 0
}

// Count returns the number of indices in the set.
func (s NodeSet) Count() int {
	c := 0
	for _, w := range s {
		c += bits.OnesCount64(w)
	}
	return c
}
