// Package linalg provides the exact integer and rational linear algebra
// needed by Petri-net invariant analysis: the Farkas/Fourier–Motzkin
// algorithm for minimal-support non-negative integer solutions of
// A·x = 0 (semiflows), arbitrary-precision vectors and matrices, and
// Gaussian elimination over the rationals for rank computations.
//
// Arithmetic is exact at every size. Callers hand the Farkas enumeration
// an int64 System built straight from their data (Semiflows) and get
// plain int rows back. It runs on flat, overflow-checked int64 row slabs
// and falls back to math/big only when an input or intermediate outgrows
// the int64 tier's safe range, so invariant computation never overflows
// no matter how unbalanced the arc weights are — and builds no big.Int
// for the systems that don't need one. The rank computation runs in
// math/big throughout.
package linalg

import (
	"fmt"
	"math/big"
	"strings"
)

// Vec is a dense vector of arbitrary-precision integers.
type Vec []*big.Int

// NewVec returns a zero vector of length n.
func NewVec(n int) Vec {
	v := make(Vec, n)
	for i := range v {
		v[i] = new(big.Int)
	}
	return v
}

// VecFromInts converts an []int into a Vec.
func VecFromInts(xs []int) Vec {
	v := make(Vec, len(xs))
	for i, x := range xs {
		v[i] = big.NewInt(int64(x))
	}
	return v
}

// Clone returns an independent copy of v.
func (v Vec) Clone() Vec {
	c := make(Vec, len(v))
	for i := range v {
		c[i] = new(big.Int).Set(v[i])
	}
	return c
}

// IsZero reports whether every component is zero.
func (v Vec) IsZero() bool {
	for i := range v {
		if v[i].Sign() != 0 {
			return false
		}
	}
	return true
}

// Sign summarises the vector: +1 if all components ≥ 0 with at least one
// positive, -1 if all ≤ 0 with at least one negative, 0 otherwise.
func (v Vec) Sign() int {
	pos, neg := false, false
	for i := range v {
		switch v[i].Sign() {
		case 1:
			pos = true
		case -1:
			neg = true
		}
	}
	switch {
	case pos && !neg:
		return 1
	case neg && !pos:
		return -1
	default:
		return 0
	}
}

// Ints converts the vector to []int64-sized ints; ok is false if any
// component overflows int.
func (v Vec) Ints() ([]int, bool) {
	out := make([]int, len(v))
	for i := range v {
		if !v[i].IsInt64() {
			return nil, false
		}
		x := v[i].Int64()
		if int64(int(x)) != x {
			return nil, false
		}
		out[i] = int(x)
	}
	return out, true
}

// NormalizeGCD divides v by the GCD of its components (in place) so that
// semiflows are reported in canonical minimal-magnitude form. The zero
// vector is left untouched.
func (v Vec) NormalizeGCD() {
	g := new(big.Int)
	for i := range v {
		if v[i].Sign() != 0 {
			g.GCD(nil, nil, g, new(big.Int).Abs(v[i]))
		}
	}
	if g.Sign() == 0 || g.Cmp(big.NewInt(1)) == 0 {
		return
	}
	for i := range v {
		v[i].Quo(v[i], g)
	}
}

// AddScaled sets v = v + k·w and returns v.
func (v Vec) AddScaled(k *big.Int, w Vec) Vec {
	tmp := new(big.Int)
	for i := range v {
		tmp.Mul(k, w[i])
		v[i].Add(v[i], tmp)
	}
	return v
}

// String renders the vector as [a b c].
func (v Vec) String() string {
	parts := make([]string, len(v))
	for i := range v {
		parts[i] = v[i].String()
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// Mat is a dense matrix of arbitrary-precision integers, row major.
type Mat struct {
	Rows, Cols int
	Data       []Vec
}

// NewMat returns a zero matrix with the given shape.
func NewMat(rows, cols int) *Mat {
	m := &Mat{Rows: rows, Cols: cols, Data: make([]Vec, rows)}
	for i := range m.Data {
		m.Data[i] = NewVec(cols)
	}
	return m
}

// MatFromInts converts a [][]int into a Mat. All rows must share a length.
func MatFromInts(rows [][]int) (*Mat, error) {
	m := &Mat{Rows: len(rows)}
	if len(rows) > 0 {
		m.Cols = len(rows[0])
	}
	for i, r := range rows {
		if len(r) != m.Cols {
			return nil, fmt.Errorf("linalg: ragged matrix: row %d has %d cols, want %d", i, len(r), m.Cols)
		}
		m.Data = append(m.Data, VecFromInts(r))
	}
	return m, nil
}

// At returns the element at (i, j).
func (m *Mat) At(i, j int) *big.Int { return m.Data[i][j] }

// String renders the matrix one row per line.
func (m *Mat) String() string {
	var sb strings.Builder
	for _, r := range m.Data {
		sb.WriteString(r.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}
