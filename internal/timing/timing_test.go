package timing

import (
	"encoding/json"
	"errors"
	"math"
	"testing"
)

func streamOf(s string) []bool {
	out := make([]bool, len(s))
	for i, c := range s {
		out[i] = c == '0' // '0' = miss
	}
	return out
}

func TestParse(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Constraint
		ok   bool
	}{
		{"9,10", Constraint{9, 10}, true},
		{" 3 , 5 ", Constraint{3, 5}, true},
		{"0,4", Constraint{0, 4}, true},
		{"4,4", Constraint{4, 4}, true},
		{"5,4", Constraint{}, false},
		{"-1,4", Constraint{}, false},
		{"1,0", Constraint{}, false},
		{"1", Constraint{}, false},
		{"a,b", Constraint{}, false},
		{"", Constraint{}, false},
	} {
		got, err := Parse(tc.in)
		if tc.ok && (err != nil || got != tc.want) {
			t.Errorf("Parse(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
		if !tc.ok && err == nil {
			t.Errorf("Parse(%q) = %v; want error", tc.in, got)
		}
	}
}

func TestConstraintString(t *testing.T) {
	if got := (Constraint{9, 10}).String(); got != "(9,10)" {
		t.Fatalf("String = %q", got)
	}
	if (Constraint{}).Enabled() {
		t.Fatal("zero constraint must be disabled")
	}
}

func TestMonitorNilSafety(t *testing.T) {
	var m *Monitor
	m.Observe(true) // must not panic
	m.ObserveOverrun(5)
	if m.Violated() {
		t.Fatal("nil monitor violated")
	}
	if m.Verdict() != nil {
		t.Fatal("nil monitor verdict")
	}
	if NewMonitor(Constraint{}) != nil {
		t.Fatal("disabled constraint must yield nil monitor")
	}
}

func TestMonitorBasics(t *testing.T) {
	// (2,3): at most one miss per window of 3.
	c := Constraint{M: 2, K: 3}

	m := Replay(c, streamOf("110110"))
	if m.Violated() {
		t.Fatalf("misses three apart must satisfy (2,3): %s", m.Verdict())
	}
	v := m.Verdict()
	if v.Events != 6 || v.Misses != 2 || !v.Satisfied {
		t.Fatalf("verdict = %+v", v)
	}

	m = Replay(c, streamOf("11001"))
	if !m.Violated() {
		t.Fatal("two misses in one window must violate (2,3)")
	}
	v = m.Verdict()
	if v.Satisfied || v.Violation == nil {
		t.Fatalf("verdict = %+v", v)
	}
	// The first violating window ends at index 3 ("100").
	if v.Violation.End != 3 || v.Violation.Window != "100" || v.Violation.Misses != 2 {
		t.Fatalf("violation = %+v", v.Violation)
	}
	// Observation continues after the latch: totals cover the stream.
	if v.Events != 5 || v.Misses != 2 {
		t.Fatalf("totals after violation = %+v", v)
	}
}

// TestMonitorReset: a reset monitor judges its next stream exactly as a
// fresh one does, whatever the stream before the reset left behind.
func TestMonitorReset(t *testing.T) {
	c := Constraint{M: 2, K: 3}
	m := Replay(c, streamOf("0011001"))
	m.ObserveOverrun(40)
	m.Reset()
	for _, miss := range streamOf("110110") {
		m.Observe(miss)
	}
	got, want := m.Verdict(), Replay(c, streamOf("110110")).Verdict()
	if *got != *want {
		t.Fatalf("reset monitor verdict = %+v, fresh %+v", got, want)
	}
	var nilMon *Monitor
	nilMon.Reset() // must not panic
}

func TestMonitorShortStreamVacuouslySatisfied(t *testing.T) {
	// Fewer events than K: no complete window, satisfied vacuously even
	// if every event missed.
	m := Replay(Constraint{M: 3, K: 4}, streamOf("000"))
	if m.Violated() {
		t.Fatal("stream shorter than k must be vacuously satisfied")
	}
	v := m.Verdict()
	if !v.Satisfied || v.Misses != 3 {
		t.Fatalf("verdict = %+v", v)
	}
}

func TestMonitorZeroMAlwaysSatisfied(t *testing.T) {
	m := Replay(Constraint{M: 0, K: 5}, streamOf("0000000000"))
	if m.Violated() {
		t.Fatal("(0,k) can never be violated")
	}
}

func TestMonitorMEqualsKFirstMissViolates(t *testing.T) {
	m := Replay(Constraint{M: 4, K: 4}, streamOf("1110"))
	v := m.Verdict()
	if v.Satisfied || v.Violation.End != 3 {
		t.Fatalf("(k,k) must break on the first windowed miss: %+v", v)
	}
}

func TestMonitorOverrun(t *testing.T) {
	m := NewMonitor(Constraint{M: 1, K: 2})
	m.Observe(true)
	m.ObserveOverrun(40)
	m.ObserveOverrun(25) // smaller: ignored
	m.Observe(false)
	if v := m.Verdict(); v.WorstOverrun != 40 {
		t.Fatalf("worst overrun = %d, want 40", v.WorstOverrun)
	}
}

func TestBruteForceMatchesMonitorOnCraftedStreams(t *testing.T) {
	cases := []struct {
		c Constraint
		s string
	}{
		{Constraint{2, 3}, "111111"},
		{Constraint{2, 3}, "110110110"},
		{Constraint{2, 3}, "1100"},
		{Constraint{1, 4}, "0101010101"},
		{Constraint{1, 4}, "1000110001"},
		{Constraint{5, 5}, "1111101111"},
		{Constraint{0, 2}, "0000"},
		{Constraint{3, 8}, "1010101010101010"},
		{Constraint{3, 8}, ""},
		{Constraint{1, 1}, "1"},
		{Constraint{1, 1}, "0"},
	}
	for _, tc := range cases {
		stream := streamOf(tc.s)
		got := Replay(tc.c, stream).Verdict()
		want := BruteForce(tc.c, stream)
		ga, _ := json.Marshal(got)
		wa, _ := json.Marshal(want)
		if string(ga) != string(wa) {
			t.Errorf("%v over %q: monitor %s vs brute force %s", tc.c, tc.s, ga, wa)
		}
	}
}

// ---- margin search ---------------------------------------------------

// stepProbe passes at levels <= frontier and fails above it.
func stepProbe(frontier int, count *int) Probe {
	return func(level int) (*Verdict, error) {
		if count != nil {
			*count++
		}
		ok := level <= frontier
		v := &Verdict{M: 1, K: 2, Events: 10, Satisfied: ok}
		if !ok {
			v.Violation = &Violation{End: level, Window: "00", Misses: 2}
		}
		return v, nil
	}
}

func TestSearchMarginFindsFrontier(t *testing.T) {
	for _, frontier := range []int{0, 1, 7, 31, 63, 99} {
		res, err := SearchMargin(100, stepProbe(frontier, nil))
		if err != nil {
			t.Fatal(err)
		}
		if res.Level != frontier {
			t.Fatalf("frontier %d: got margin %d", frontier, res.Level)
		}
		if res.Pass == nil || !res.Pass.Satisfied {
			t.Fatalf("frontier %d: missing pass verdict", frontier)
		}
		if res.Fail == nil || res.Fail.Satisfied {
			t.Fatalf("frontier %d: missing fail verdict", frontier)
		}
	}
}

func TestSearchMarginNominalFailure(t *testing.T) {
	res, err := SearchMargin(50, stepProbe(-1, nil))
	if err != nil {
		t.Fatal(err)
	}
	if res.Level != -1 || res.Fail == nil || res.Pass != nil {
		t.Fatalf("res = %+v", res)
	}
	if res.Probes != 1 {
		t.Fatalf("nominal failure must stop after one probe, got %d", res.Probes)
	}
}

func TestSearchMarginNeverBreaks(t *testing.T) {
	res, err := SearchMargin(64, stepProbe(64, nil))
	if err != nil {
		t.Fatal(err)
	}
	if res.Level != 64 || res.Fail != nil || res.Pass == nil {
		t.Fatalf("res = %+v", res)
	}
	if res.Probes != 2 {
		t.Fatalf("pass-everywhere must stop after two probes, got %d", res.Probes)
	}
}

func TestSearchMarginProbeBudget(t *testing.T) {
	count := 0
	res, err := SearchMargin(1<<20, stepProbe(12345, &count))
	if err != nil {
		t.Fatal(err)
	}
	if res.Level != 12345 {
		t.Fatalf("margin = %d", res.Level)
	}
	if count > 24 { // 2 endpoints + ~20 bisections
		t.Fatalf("too many probes: %d", count)
	}
	if res.Probes != count {
		t.Fatalf("Probes %d != invocations %d", res.Probes, count)
	}

	// The exact worst case over every frontier, at the default drop and
	// overrun ceilings: 2 + ⌈log2(Ceiling)⌉ (log2 alone undercounts).
	for _, tc := range []struct{ ceiling, worst int }{{100, 9}, {700, 12}} {
		worst := 0
		for frontier := -1; frontier <= tc.ceiling; frontier++ {
			res, err := SearchMargin(tc.ceiling, stepProbe(frontier, nil))
			if err != nil {
				t.Fatal(err)
			}
			if res.Level != frontier {
				t.Fatalf("ceiling %d: margin %d, want %d", tc.ceiling, res.Level, frontier)
			}
			if res.Probes > worst {
				worst = res.Probes
			}
		}
		if bound := 2 + int(math.Ceil(math.Log2(float64(tc.ceiling)))); worst != tc.worst || worst != bound {
			t.Fatalf("ceiling %d: worst case %d probes, want %d (bound %d)", tc.ceiling, worst, tc.worst, bound)
		}
	}
}

func TestSearchMarginErrors(t *testing.T) {
	if _, err := SearchMargin(-1, stepProbe(0, nil)); err == nil {
		t.Fatal("negative ceiling must error")
	}
	boom := errors.New("boom")
	if _, err := SearchMargin(4, func(int) (*Verdict, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("probe error must propagate, got %v", err)
	}
	if _, err := SearchMargin(4, func(int) (*Verdict, error) { return nil, nil }); err == nil {
		t.Fatal("nil verdict must error")
	}
}

func TestSearchMarginZeroCeiling(t *testing.T) {
	res, err := SearchMargin(0, stepProbe(99, nil))
	if err != nil {
		t.Fatal(err)
	}
	if res.Level != 0 || res.Probes != 1 {
		t.Fatalf("res = %+v", res)
	}
}
