package rtos

import (
	"strings"
	"testing"
	"testing/quick"

	"fcpn/internal/petri"
)

func TestKernelAccounting(t *testing.T) {
	k := NewKernel(CostModel{Activation: 100, Poll: 10, Fire: 5, Op: 1, Interrupt: 20}, 2)
	k.Activate(0)
	k.Activate(0)
	k.Activate(1)
	k.Poll()
	k.Admit(Event{}, 0, 1)
	k.ChargeFirings(4)
	k.ChargeOps(7)
	if k.Cycles != 3*100+10+20+4*5+7 {
		t.Fatalf("cycles = %d", k.Cycles)
	}
	if k.Activations != 3 || k.Polls != 1 || k.Interrupts != 1 {
		t.Fatalf("counters = %+v", k)
	}
	if k.PerTask[0] != 2 || k.PerTask[1] != 1 {
		t.Fatalf("per task = %v", k.PerTask)
	}
	if !strings.Contains(k.String(), "activations=3") {
		t.Fatalf("String = %q", k.String())
	}
}

func TestDefaultCostModelShape(t *testing.T) {
	c := DefaultCostModel()
	if c.Activation <= c.Op || c.Activation <= c.Poll {
		t.Fatal("activation must dominate bookkeeping costs")
	}
	if c.Fire <= 0 || c.Interrupt <= 0 {
		t.Fatal("all costs positive")
	}
}

func TestPeriodic(t *testing.T) {
	evs := Periodic(petri.Transition(3), 10, 5, 4)
	if len(evs) != 4 {
		t.Fatalf("len = %d", len(evs))
	}
	for i, ev := range evs {
		if ev.Time != 5+int64(i)*10 || ev.Source != 3 {
			t.Fatalf("event %d = %+v", i, ev)
		}
	}
}

func TestBurstyDeterministicAndMonotone(t *testing.T) {
	a := Bursty(petri.Transition(1), 8, 20, 42)
	b := Bursty(petri.Transition(1), 8, 20, 42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Bursty not deterministic")
		}
	}
	for i := 1; i < len(a); i++ {
		if a[i].Time <= a[i-1].Time {
			t.Fatalf("times must be strictly increasing: %v", a)
		}
	}
	c := Bursty(petri.Transition(1), 8, 20, 43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds must differ")
	}
	// Degenerate mean gap is clamped.
	d := Bursty(petri.Transition(1), 0, 3, 1)
	if len(d) != 3 {
		t.Fatal("clamped gap failed")
	}
}

func TestMergeStable(t *testing.T) {
	a := []Event{{Time: 1, Source: 0}, {Time: 5, Source: 0}}
	b := []Event{{Time: 1, Source: 1}, {Time: 3, Source: 1}}
	m := Merge(a, b)
	if len(m) != 4 {
		t.Fatalf("len = %d", len(m))
	}
	if m[0].Source != 0 || m[1].Source != 1 || m[2].Time != 3 || m[3].Time != 5 {
		t.Fatalf("merge order wrong: %v", m)
	}
}

// Property: merged streams are sorted and preserve all events.
func TestMergeProperty(t *testing.T) {
	f := func(seedA, seedB uint64, nRaw uint8) bool {
		n := int(nRaw%20) + 1
		a := Bursty(petri.Transition(0), 5, n, seedA)
		b := Periodic(petri.Transition(1), 7, 3, n)
		m := Merge(a, b)
		if len(m) != 2*n {
			return false
		}
		for i := 1; i < len(m); i++ {
			if m[i].Time < m[i-1].Time {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestChargeDuration(t *testing.T) {
	cost := DefaultCostModel()
	cost.Durations = map[petri.Transition]int64{
		petri.Transition(1): 500,
		petri.Transition(3): 70,
	}
	k := NewKernel(cost, 0)
	k.ChargeDuration(petri.Transition(1))
	k.ChargeDuration(petri.Transition(2)) // unannotated: free
	k.ChargeDuration(petri.Transition(3))
	if k.Cycles != 570 {
		t.Fatalf("cycles = %d, want 570", k.Cycles)
	}
	// No annotation map at all: ChargeDuration is a no-op.
	plain := NewKernel(DefaultCostModel(), 0)
	plain.ChargeDuration(petri.Transition(1))
	if plain.Cycles != 0 {
		t.Fatalf("unannotated kernel charged %d", plain.Cycles)
	}
}
