package linalg

import (
	"math/big"

	"fcpn/internal/trace"
)

// MinimalSemiflows computes the set of minimal-support non-negative integer
// solutions x of A·x = 0, where A is given row-wise (each row is one
// homogeneous equation over the x variables).
//
// For T-invariants of a net with incidence matrix D (|T|×|P|), pass
// A = Dᵀ (one row per place, one column per transition).
//
// The algorithm is the classical Farkas / Fourier–Motzkin procedure used by
// Petri-net tools (Colom & Silva): start from [B | I] with B = Aᵀ
// (one working row per variable), then eliminate one equation at a time by
// replacing the row set with (a) rows already satisfying the equation and
// (b) all positive combinations of row pairs with opposite signs. Rows
// whose support strictly contains another row's support are pruned after
// every elimination, which both bounds the blow-up and guarantees that the
// surviving rows are exactly the minimal-support semiflows (each divided by
// the GCD of its entries).
//
// maxRows caps the intermediate row count; when exceeded the function
// returns nil and false. Pass 0 for the default cap (100000).
//
// Arithmetic runs on overflow-checked int64 rows first (farkas_int.go)
// and falls back to this exact big.Int implementation only when an
// input or intermediate leaves the int64 tier's safe range. Phase traces
// showed the big.Int path spending roughly half its cycles in allocation
// and GC; practical nets never leave the int64 range, so the int64 tier
// is the common case. Both paths run the identical elimination/pruning
// sequence, so the output — values and order — is the same whichever
// completes.
func MinimalSemiflows(a *Mat, maxRows int) ([]Vec, bool) {
	return MinimalSemiflowsTraced(a, maxRows, nil)
}

// MinimalSemiflowsTraced is MinimalSemiflows with tier-residency tracing:
// the int64 attempt records one "linalg/int64" detail span and a big.Int
// fallback one "linalg/bigint" span, so qssd reports (and the phasegate
// baseline) show how much of the exact-arithmetic hot path stays on
// machine integers. A nil tracer disables collection.
func MinimalSemiflowsTraced(a *Mat, maxRows int, tr *trace.Tracer) ([]Vec, bool) {
	if maxRows <= 0 {
		maxRows = 100000
	}
	sp := tr.StartDetail("linalg/int64")
	out, capped, ok := minimalSemiflowsInt(a, maxRows)
	sp.End()
	if ok {
		return out, !capped
	}
	sp = tr.StartDetail("linalg/bigint")
	res, okBig := minimalSemiflowsBig(a, maxRows)
	sp.End()
	return res, okBig
}

func minimalSemiflowsBig(a *Mat, maxRows int) ([]Vec, bool) {
	numEq := a.Rows
	numVar := a.Cols

	// Working rows: pair of (left: value of each remaining equation,
	// right: the non-negative combination of unit vectors producing it).
	type row struct {
		left  Vec // length numEq
		right Vec // length numVar
	}
	rows := make([]row, numVar)
	for v := 0; v < numVar; v++ {
		left := NewVec(numEq)
		for e := 0; e < numEq; e++ {
			left[e].Set(a.Data[e][v])
		}
		right := NewVec(numVar)
		right[v].SetInt64(1)
		rows[v] = row{left, right}
	}

	supportContains := func(big, small Vec) bool {
		for i := range small {
			if small[i].Sign() != 0 && big[i].Sign() == 0 {
				return false
			}
		}
		return true
	}

	prune := func(rs []row) []row {
		// Remove rows whose right-support is a strict superset of another
		// row's right-support (and duplicate supports beyond the first).
		var keep []row
		for i := range rs {
			minimal := true
			for j := range rs {
				if i == j {
					continue
				}
				if supportContains(rs[i].right, rs[j].right) {
					// j's support ⊆ i's support.
					if !supportContains(rs[j].right, rs[i].right) {
						minimal = false // strictly smaller support exists
						break
					}
					// Equal support: keep only the first occurrence.
					if j < i {
						minimal = false
						break
					}
				}
			}
			if minimal {
				keep = append(keep, rs[i])
			}
		}
		return keep
	}

	for e := 0; e < numEq; e++ {
		var zero, pos, neg []row
		for _, r := range rows {
			switch r.left[e].Sign() {
			case 0:
				zero = append(zero, r)
			case 1:
				pos = append(pos, r)
			default:
				neg = append(neg, r)
			}
		}
		next := zero
		for _, rp := range pos {
			for _, rn := range neg {
				// Combine: |neg|·pos + |pos|·neg ⇒ zero in column e.
				cp := new(big.Int).Abs(rn.left[e])
				cn := new(big.Int).Abs(rp.left[e])
				left := NewVec(numEq)
				left.AddScaled(cp, rp.left)
				left.AddScaled(cn, rn.left)
				right := NewVec(numVar)
				right.AddScaled(cp, rp.right)
				right.AddScaled(cn, rn.right)
				// Normalise early to keep numbers small.
				g := new(big.Int)
				for i := range left {
					if left[i].Sign() != 0 {
						g.GCD(nil, nil, g, new(big.Int).Abs(left[i]))
					}
				}
				for i := range right {
					if right[i].Sign() != 0 {
						g.GCD(nil, nil, g, new(big.Int).Abs(right[i]))
					}
				}
				if g.Sign() != 0 && g.Cmp(big.NewInt(1)) > 0 {
					for i := range left {
						left[i].Quo(left[i], g)
					}
					for i := range right {
						right[i].Quo(right[i], g)
					}
				}
				next = append(next, row{left, right})
				if len(next) > maxRows {
					return nil, false
				}
			}
		}
		rows = prune(next)
		if len(rows) > maxRows {
			return nil, false
		}
	}

	out := make([]Vec, 0, len(rows))
	for _, r := range rows {
		if r.right.IsZero() {
			continue
		}
		r.right.NormalizeGCD()
		out = append(out, r.right)
	}
	return out, true
}

// CoversAll reports whether the union of the supports of the given vectors
// covers every index in [0, n).
func CoversAll(vs []Vec, n int) bool {
	covered := make([]bool, n)
	for _, v := range vs {
		for _, i := range v.Support() {
			covered[i] = true
		}
	}
	for _, c := range covered {
		if !c {
			return false
		}
	}
	return true
}

// SumVecs returns the componentwise sum of the given vectors (all length n).
func SumVecs(vs []Vec, n int) Vec {
	sum := NewVec(n)
	for _, v := range vs {
		sum.Add(v)
	}
	return sum
}
