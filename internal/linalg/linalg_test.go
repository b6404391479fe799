package linalg

import (
	"math/big"
	"testing"
	"testing/quick"
)

func TestVecBasics(t *testing.T) {
	v := NewVec(3)
	if !v.IsZero() {
		t.Fatal("fresh vector must be zero")
	}
	v = VecFromInts([]int{2, -4, 6})
	if v.IsZero() {
		t.Fatal("non-zero vector reported zero")
	}
	if got := support(v); len(got) != 3 {
		t.Fatalf("support = %v", got)
	}
	c := v.Clone()
	c[0].SetInt64(99)
	if v[0].Int64() == 99 {
		t.Fatal("Clone aliases")
	}
	ints, ok := v.Ints()
	if !ok || ints[1] != -4 {
		t.Fatalf("Ints = %v, %v", ints, ok)
	}
}

func TestVecSign(t *testing.T) {
	cases := []struct {
		in   []int
		want int
	}{
		{[]int{1, 0, 2}, 1},
		{[]int{-1, 0}, -1},
		{[]int{1, -1}, 0},
		{[]int{0, 0}, 0},
	}
	for _, tc := range cases {
		if got := VecFromInts(tc.in).Sign(); got != tc.want {
			t.Fatalf("Sign(%v) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestNormalizeGCD(t *testing.T) {
	v := VecFromInts([]int{4, -6, 8})
	v.NormalizeGCD()
	ints, _ := v.Ints()
	if ints[0] != 2 || ints[1] != -3 || ints[2] != 4 {
		t.Fatalf("NormalizeGCD = %v", ints)
	}
	z := NewVec(2)
	z.NormalizeGCD() // must not panic or divide by zero
	if !z.IsZero() {
		t.Fatal("zero vector changed")
	}
}

func TestVecArithmetic(t *testing.T) {
	v := VecFromInts([]int{4, 6})
	w := VecFromInts([]int{3, 4})
	v.AddScaled(big.NewInt(-2), w)
	ints, _ := v.Ints()
	if ints[0] != -2 || ints[1] != -2 {
		t.Fatalf("AddScaled = %v", ints)
	}
	if got := dot(VecFromInts([]int{1, 2, 3}), VecFromInts([]int{4, 5, 6})); got.Int64() != 32 {
		t.Fatalf("dot = %v", got)
	}
}

// dot returns the inner product ⟨v,w⟩.
func dot(v, w Vec) *big.Int {
	sum := new(big.Int)
	tmp := new(big.Int)
	for i := range v {
		tmp.Mul(v[i], w[i])
		sum.Add(sum, tmp)
	}
	return sum
}

// support returns the indices of v's non-zero components.
func support(v Vec) []int {
	var out []int
	for i := range v {
		if v[i].Sign() != 0 {
			out = append(out, i)
		}
	}
	return out
}

func TestIntsOverflow(t *testing.T) {
	v := NewVec(1)
	v[0].Lsh(big.NewInt(1), 80)
	if _, ok := v.Ints(); ok {
		t.Fatal("overflow not detected")
	}
}

func TestMatFromInts(t *testing.T) {
	m, err := MatFromInts([][]int{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows != 2 || m.Cols != 2 || m.At(1, 0).Int64() != 3 {
		t.Fatalf("MatFromInts wrong: %v", m)
	}
	if _, err := MatFromInts([][]int{{1}, {2, 3}}); err == nil {
		t.Fatal("ragged matrix accepted")
	}
	if m.String() == "" {
		t.Fatal("empty String")
	}
}

func TestRank(t *testing.T) {
	cases := []struct {
		rows [][]int
		want int
	}{
		{[][]int{{1, 0}, {0, 1}}, 2},
		{[][]int{{1, 2}, {2, 4}}, 1},
		{[][]int{{0, 0}, {0, 0}}, 0},
		{[][]int{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}}, 2},
		{[][]int{}, 0},
		{[][]int{{2, 0, -2}, {0, 3, -3}}, 2},
	}
	for _, tc := range cases {
		m, err := MatFromInts(tc.rows)
		if err != nil {
			t.Fatal(err)
		}
		if got := Rank(m); got != tc.want {
			t.Fatalf("Rank(%v) = %d, want %d", tc.rows, got, tc.want)
		}
	}
}

func TestMinimalSemiflowsSimple(t *testing.T) {
	// One equation: x0 - x1 = 0 → single semiflow (1,1).
	a, _ := MatFromInts([][]int{{1, -1}})
	flows, ok := MinimalSemiflows(a, 0)
	if !ok || len(flows) != 1 {
		t.Fatalf("flows = %v ok=%v", flows, ok)
	}
	ints, _ := flows[0].Ints()
	if ints[0] != 1 || ints[1] != 1 {
		t.Fatalf("semiflow = %v", ints)
	}
}

func TestMinimalSemiflowsMultirate(t *testing.T) {
	// Figure 2 balance: t1 - 2 t2 = 0 ; t2 - 2 t3 = 0 → (4,2,1).
	a, _ := MatFromInts([][]int{{1, -2, 0}, {0, 1, -2}})
	flows, ok := MinimalSemiflows(a, 0)
	if !ok || len(flows) != 1 {
		t.Fatalf("flows = %v", flows)
	}
	ints, _ := flows[0].Ints()
	if ints[0] != 4 || ints[1] != 2 || ints[2] != 1 {
		t.Fatalf("semiflow = %v, want [4 2 1]", ints)
	}
}

func TestMinimalSemiflowsTwoFlows(t *testing.T) {
	// Figure 3a incidence transposed: places p1,p2,p3 over t1..t5.
	// p1: t1 - t2 - t3 ; p2: t2 - t4 ; p3: t3 - t5.
	a, _ := MatFromInts([][]int{
		{1, -1, -1, 0, 0},
		{0, 1, 0, -1, 0},
		{0, 0, 1, 0, -1},
	})
	flows, ok := MinimalSemiflows(a, 0)
	if !ok || len(flows) != 2 {
		t.Fatalf("flows = %v", flows)
	}
	want := map[string]bool{"[1 1 0 1 0]": true, "[1 0 1 0 1]": true}
	for _, f := range flows {
		ints, _ := f.Ints()
		key := ""
		for i, x := range ints {
			if i > 0 {
				key += " "
			}
			key += string(rune('0' + x))
		}
		key = "[" + key + "]"
		if !want[key] {
			t.Fatalf("unexpected semiflow %v", ints)
		}
	}
}

func TestMinimalSemiflowsNoSolution(t *testing.T) {
	// x0 = 0 and x0 - x1 = 0 force everything to zero.
	a, _ := MatFromInts([][]int{{1, 0}, {1, -1}, {0, 1}})
	flows, ok := MinimalSemiflows(a, 0)
	if !ok {
		t.Fatal("cap hit unexpectedly")
	}
	if len(flows) != 0 {
		t.Fatalf("expected no semiflows, got %v", flows)
	}
}

func TestMinimalSemiflowsCap(t *testing.T) {
	a, _ := MatFromInts([][]int{{1, -1, 0, 0}, {0, 1, -1, 0}, {0, 0, 1, -1}})
	if _, ok := MinimalSemiflows(a, 1); ok {
		t.Fatal("tiny cap must trigger failure")
	}
}

// Property: every semiflow returned actually solves A·x = 0, is
// non-negative and non-zero.
func TestSemiflowsSolveProperty(t *testing.T) {
	f := func(seed int64) bool {
		rows, cols, a := randomSystem(seed)
		_ = rows
		flows, ok := MinimalSemiflows(a, 20000)
		if !ok {
			return true // cap hit is acceptable for adversarial seeds
		}
		for _, fl := range flows {
			if fl.Sign() != 1 || len(fl) != cols {
				return false
			}
			if !solvesZero(a, fl) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// solvesZero reports whether A·x = 0 for the integer vector x (rows of a
// are equations).
func solvesZero(a *Mat, x Vec) bool {
	for _, row := range a.Data {
		if dot(row, x).Sign() != 0 {
			return false
		}
	}
	return true
}

// Property: supports of returned semiflows are pairwise incomparable
// (minimality of support).
func TestSemiflowsMinimalSupportProperty(t *testing.T) {
	f := func(seed int64) bool {
		_, _, a := randomSystem(seed)
		flows, ok := MinimalSemiflows(a, 20000)
		if !ok {
			return true
		}
		for i := range flows {
			for j := range flows {
				if i == j {
					continue
				}
				if subset(support(flows[i]), support(flows[j])) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func subset(a, b []int) bool {
	set := map[int]bool{}
	for _, x := range b {
		set[x] = true
	}
	for _, x := range a {
		if !set[x] {
			return false
		}
	}
	return true
}

func randomSystem(seed int64) (rows, cols int, a *Mat) {
	state := uint64(seed)*0x9E3779B97F4A7C15 + 1
	next := func(n int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(n))
	}
	rows = 1 + next(4)
	cols = 1 + next(5)
	data := make([][]int, rows)
	for i := range data {
		data[i] = make([]int, cols)
		for j := range data[i] {
			data[i][j] = next(7) - 3
		}
	}
	m, err := MatFromInts(data)
	if err != nil {
		panic(err)
	}
	return rows, cols, m
}
