package linalg

import (
	"errors"
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
// and falls back to the exact big.Int implementation below only when an
// input or intermediate leaves the int64 tier's safe range. Both paths
// run the identical elimination/pruning sequence, so the output —
// values and order — is the same whichever completes.
func MinimalSemiflows(a *Mat, maxRows int) ([]Vec, bool) {
	maxRows = rowCap(maxRows)
	if out, capped, ok := minimalSemiflowsInt(a, maxRows); ok {
		return out, !capped
	}
	return minimalSemiflowsBig(a, maxRows)
}

// ErrRowCap is returned by Semiflows when the enumeration exceeds its
// row cap.
var ErrRowCap = errors.New("linalg: semiflow enumeration exceeded its row cap")

// BigSemiflowError is returned by Semiflows when a minimal semiflow has
// an entry that does not fit in int.
type BigSemiflowError struct {
	Flow Vec
}

func (e *BigSemiflowError) Error() string {
	return "linalg: semiflow does not fit in int: " + e.Flow.String()
}

// Semiflows is MinimalSemiflows on an int64 system, returning the
// semiflows as int rows cut from one array. The int64 tier reads s
// directly under one "linalg/int64" detail span on tr; only when it
// refuses the system is s converted to a Mat and solved in big.Int,
// under a "linalg/bigint" span. A nil tracer disables collection. The
// error is ErrRowCap or a *BigSemiflowError.
func Semiflows(s System, maxRows int, tr *trace.Tracer) ([][]int, error) {
	maxRows = rowCap(maxRows)
	sp := tr.StartDetail("linalg/int64")
	rows, capped, ok := semiflowsInt(s, maxRows)
	sp.End()
	if ok {
		if capped {
			return nil, ErrRowCap
		}
		return rows, nil
	}
	sp = tr.StartDetail("linalg/bigint")
	vecs, ok := minimalSemiflowsBig(s.mat(), maxRows)
	sp.End()
	if !ok {
		return nil, ErrRowCap
	}
	rows = make([][]int, len(vecs))
	for i, v := range vecs {
		r, fits := v.Ints()
		if !fits {
			return nil, &BigSemiflowError{Flow: v}
		}
		rows[i] = r
	}
	return rows, nil
}

// System is a homogeneous integer system A·x = 0 stored by variable:
// Coef[v*Eqs+e] is A[e][v], the coefficient of variable v in equation
// e. That is the layout of the Farkas working rows' left halves, so the
// int64 tier copies each variable's coefficients as one block.
type System struct {
	Eqs, Vars int
	Coef      []int64
}

// NewSystem returns the zero system of eqs equations over vars variables.
func NewSystem(eqs, vars int) System {
	return System{Eqs: eqs, Vars: vars, Coef: make([]int64, eqs*vars)}
}

// Add adds x to the coefficient of variable v in equation e.
func (s System) Add(e, v int, x int64) { s.Coef[v*s.Eqs+e] += x }

// mat returns s as a Mat, one row per equation.
func (s System) mat() *Mat {
	a := NewMat(s.Eqs, s.Vars)
	for e, row := range a.Data {
		for v, x := range row {
			x.SetInt64(s.Coef[v*s.Eqs+e])
		}
	}
	return a
}

// systemOf returns a as a System; ok is false when an entry does not fit
// in int64.
func systemOf(a *Mat) (s System, ok bool) {
	s = NewSystem(a.Rows, a.Cols)
	for e, row := range a.Data {
		for v, x := range row {
			if !x.IsInt64() {
				return System{}, false
			}
			s.Coef[v*s.Eqs+e] = x.Int64()
		}
	}
	return s, true
}

// rowCap resolves a maxRows argument: 0 or less means 100000.
func rowCap(maxRows int) int {
	if maxRows <= 0 {
		return 100000
	}
	return maxRows
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
