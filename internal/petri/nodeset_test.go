package petri

import "testing"

func TestNodeSet(t *testing.T) {
	s := NewNodeSet(130)
	for _, i := range []int{0, 63, 64, 129} {
		if s.Has(i) {
			t.Fatalf("empty set has %d", i)
		}
		s.Add(i)
		if !s.Has(i) {
			t.Fatalf("set missing %d after Add", i)
		}
	}
	if s.Count() != 4 {
		t.Fatalf("Count = %d, want 4", s.Count())
	}
	if s.Has(5000) {
		t.Fatal("out-of-range Has must be false, not panic")
	}
	// Zero-size sets are valid (empty nets); Has on them is false.
	if z := NewNodeSet(0); z.Has(0) || z.Count() != 0 {
		t.Fatal("zero-size set must be empty")
	}
}
