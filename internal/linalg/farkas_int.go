package linalg

import "math/bits"

// The int64 tier of the Farkas enumeration: the identical elimination
// and support-pruning sequence as minimalSemiflowsBig on rows of plain
// int64 entries. Entries are bounded by intLimit = 2³⁰, so a combination
// cp·x + cn·y stays below 2⁶¹ and native arithmetic cannot wrap. An
// input or intermediate beyond the bound aborts the tier and the caller
// reruns the system in big.Int. Because both paths perform the same
// combinations in the same order, prune the same rows and normalise by
// the same GCDs, a completed int64 run returns exactly the rows — same
// values, same order — the big.Int path would.
const intLimit = int64(1) << 30

// rowSlab holds the working rows of one elimination round back to back.
// Row r is vals[r*w:(r+1)*w]: the values of the equations not yet
// eliminated, the next one first, followed by the non-negative
// unit-vector combination producing them. masks[r*words:(r+1)*words] is
// the support of that combination and bits[r] its size. Each round
// drops the eliminated equation's column, which is zero in every row it
// keeps or makes.
type rowSlab struct {
	w, words, n int
	vals        []int64
	masks       []uint64
	bits        []int
}

// reset empties s for rows of width w with room for capRows of them,
// reusing its arrays when they are large enough.
func (s *rowSlab) reset(w, words, capRows int) {
	s.w, s.words, s.n = w, words, 0
	s.vals = resize(s.vals, capRows*w)
	s.masks = resize(s.masks, capRows*words)
	s.bits = resize(s.bits, capRows)
}

func resize[T any](xs []T, n int) []T {
	if cap(xs) < n {
		return make([]T, n)
	}
	return xs[:n]
}

func (s *rowSlab) row(r int) []int64      { return s.vals[r*s.w : (r+1)*s.w] }
func (s *rowSlab) support(r int) []uint64 { return s.masks[r*s.words : (r+1)*s.words] }

// carry appends src's row r without its first column.
func (s *rowSlab) carry(src *rowSlab, r int) {
	copy(s.row(s.n), src.row(r)[1:])
	copy(s.support(s.n), src.support(r))
	s.bits[s.n] = src.bits[r]
	s.n++
}

// combine appends cp·src[p] + cn·src[q] without its first column, with
// cp = |src[q][0]| and cn = src[p][0] so that the first column cancels,
// divided by the GCD of its entries. It reports false, appending
// nothing, when an entry of the normalised row exceeds intLimit. Right
// halves are non-negative and cp, cn positive, so the row's support is
// the union of its parents'.
func (s *rowSlab) combine(src *rowSlab, p, q int) bool {
	rp, rq := src.row(p), src.row(q)
	cp, cn := -rq[0], rp[0]
	rp, rq = rp[1:], rq[1:]
	dst := s.row(s.n)
	var g, hi int64
	for k := range dst {
		x := cp*rp[k] + cn*rq[k]
		dst[k] = x
		if x < 0 {
			x = -x
		}
		hi = max(hi, x)
		if g != 1 {
			g = gcd64(g, x)
		}
	}
	if g > 1 {
		for k := range dst {
			dst[k] /= g
		}
		hi /= g
	}
	if hi > intLimit {
		return false
	}
	mp, mq, m := src.support(p), src.support(q), s.support(s.n)
	b := 0
	for k := range m {
		m[k] = mp[k] | mq[k]
		b += bits.OnesCount64(m[k])
	}
	s.bits[s.n] = b
	s.n++
	return true
}

// prune keeps, in order, the rows whose support is minimal: a row goes
// when another row's support is a strict subset of its own, or equal to
// it and earlier. Dominance is transitive, so testing a row against the
// survivors before it and every row after it decides it, and survivors
// move down as they are found. The first carried rows survived the
// previous round's prune and are pairwise incomparable, so none of them
// is tested against another; and a row can only be dropped by one whose
// support is no larger.
func (s *rowSlab) prune(carried int) {
	kept := 0
	for i := 0; i < s.n; i++ {
		if s.dominated(i, kept, carried) {
			continue
		}
		if kept != i {
			copy(s.row(kept), s.row(i))
			copy(s.support(kept), s.support(i))
			s.bits[kept] = s.bits[i]
		}
		kept++
	}
	s.n = kept
}

// dominated reports whether row i goes, given the kept survivors before
// it at the front of s.
func (s *rowSlab) dominated(i, kept, carried int) bool {
	mi, bi := s.support(i), s.bits[i]
	from := 0
	if i < carried {
		from = kept // every survivor before a carried row is carried
	}
	for j := from; j < kept; j++ {
		if s.bits[j] <= bi && within(s.support(j), mi) {
			return true
		}
	}
	for j := max(i+1, carried); j < s.n; j++ {
		if s.bits[j] < bi && within(s.support(j), mi) {
			return true
		}
	}
	return false
}

// within reports small ⊆ big.
func within(small, big []uint64) bool {
	for k := range small {
		if small[k]&^big[k] != 0 {
			return false
		}
	}
	return true
}

// semiflowsInt runs the Farkas elimination on s in int64. It returns
// the minimal semiflows as int rows cut from one array, in
// minimalSemiflowsBig's order. capped=true (with ok=true) is the
// authoritative "maxRows exceeded" verdict; ok=false means an input or
// intermediate left the tier's range and the caller must rerun the
// system in big.Int.
func semiflowsInt(s System, maxRows int) (out [][]int, capped, ok bool) {
	numEq, numVar := s.Eqs, s.Vars
	for _, x := range s.Coef {
		if x > intLimit || x < -intLimit {
			return nil, false, false
		}
	}
	words := (numVar + 63) / 64
	var cur, next rowSlab
	cur.reset(numEq+numVar, words, numVar)
	for v := 0; v < numVar; v++ {
		r := cur.row(v)
		copy(r, s.Coef[v*numEq:(v+1)*numEq])
		r[numEq+v] = 1
		cur.support(v)[v/64] = 1 << (v % 64)
		cur.bits[v] = 1
	}
	cur.n = numVar

	var zero, pos, neg []int
	for e := 0; e < numEq; e++ {
		zero, pos, neg = zero[:0], pos[:0], neg[:0]
		for r := 0; r < cur.n; r++ {
			switch x := cur.vals[r*cur.w]; {
			case x == 0:
				zero = append(zero, r)
			case x > 0:
				pos = append(pos, r)
			default:
				neg = append(neg, r)
			}
		}
		// Combinations are made until the round passes maxRows, which
		// happens at the first one when the carried rows alone reach it.
		combos := min(len(pos)*len(neg), max(maxRows-len(zero)+1, 1))
		next.reset(cur.w-1, words, len(zero)+combos)
		for _, r := range zero {
			next.carry(&cur, r)
		}
		for _, p := range pos {
			for _, q := range neg {
				if !next.combine(&cur, p, q) {
					return nil, false, false
				}
				if next.n > maxRows {
					return nil, true, true
				}
			}
		}
		next.prune(len(zero))
		if next.n > maxRows {
			return nil, true, true
		}
		cur, next = next, cur
	}

	// The rows are now their right halves; divide each by its GCD.
	out = make([][]int, 0, cur.n)
	buf := make([]int, cur.n*numVar)
	for r := 0; r < cur.n; r++ {
		var g int64
		for _, x := range cur.row(r) {
			g = gcd64(g, x)
		}
		if g == 0 {
			continue
		}
		v := buf[:numVar:numVar]
		buf = buf[numVar:]
		for k, x := range cur.row(r) {
			v[k] = int(x / g)
		}
		out = append(out, v)
	}
	return out, false, true
}

// minimalSemiflowsInt is semiflowsInt on a big.Int matrix, refusing one
// with an entry beyond int64.
func minimalSemiflowsInt(a *Mat, maxRows int) (out []Vec, capped, ok bool) {
	s, ok := systemOf(a)
	if !ok {
		return nil, false, false
	}
	rows, capped, ok := semiflowsInt(s, maxRows)
	if !ok || capped {
		return nil, capped, ok
	}
	out = make([]Vec, len(rows))
	for i, r := range rows {
		out[i] = VecFromInts(r)
	}
	return out, false, true
}

// gcd64 folds |x| into the running non-negative GCD g (g=0 is the
// identity, matching big.Int.GCD's treatment of the first operand).
func gcd64(g, x int64) int64 {
	if x < 0 {
		x = -x
	}
	for x != 0 {
		g, x = x, g%x
	}
	return g
}
