package sim

import (
	"encoding/json"
	"runtime"
	"testing"

	"fcpn/internal/fault"
	"fcpn/internal/figures"
	"fcpn/internal/rtos"
	"fcpn/internal/timing"
)

func TestParseOverloadKind(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want OverloadKind
		ok   bool
	}{
		{"burst", OverloadBurst, true},
		{" Jitter ", OverloadJitter, true},
		{"drop", OverloadDrop, true},
		{"overrun", OverloadOverrun, true},
		{"storm", 0, false},
		{"", 0, false},
	} {
		got, err := ParseOverloadKind(tc.in)
		if tc.ok && (err != nil || got != tc.want) {
			t.Errorf("ParseOverloadKind(%q) = %v, %v", tc.in, got, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("ParseOverloadKind(%q) accepted", tc.in)
		}
	}
	if OverloadBurst.String() != "burst" || OverloadOverrun.String() != "overrun" {
		t.Fatal("kind names drifted")
	}
}

func marginFixture(t *testing.T) (*MarginConfig, []rtos.Event, func() *OverloadMargin) {
	t.Helper()
	n := figures.Figure4()
	prog := qssProgram(t, n)
	t1, _ := n.TransitionByName("t1")
	// Arrivals comfortably sparser than the per-event service time: the
	// nominal run has no backlog, so the calibrated deadline (2x nominal
	// worst response) leaves real headroom for the search to consume.
	events := rtos.Periodic(t1, 2000, 0, 30)
	cfg := &MarginConfig{
		Kind:   OverloadBurst,
		MK:     timing.Constraint{M: 9, K: 10},
		Seed:   0xC0FFEE,
		Robust: RobustConfig{CyclesPerTick: 1},
	}
	run := func() *OverloadMargin {
		om, err := SearchOverloadMargin(prog, events, rtos.DefaultCostModel(), *cfg)
		if err != nil {
			t.Fatal(err)
		}
		return om
	}
	return cfg, events, run
}

// TestSearchOverloadMarginBurstFiniteAndDeterministic is the acceptance
// shape: under burst overload the margin is finite (the nominal run
// passes, deep-enough bursts break the constraint) and the whole search
// reproduces byte-for-byte from the seed.
func TestSearchOverloadMarginBurstFiniteAndDeterministic(t *testing.T) {
	_, _, run := marginFixture(t)
	om := run()
	res := om.Result
	if om.Deadline <= 0 {
		t.Fatalf("calibrated deadline = %d", om.Deadline)
	}
	if res.Level < 0 {
		t.Fatalf("nominal run must pass under the calibrated deadline: %s", res)
	}
	if res.Level >= res.Ceiling {
		t.Fatalf("burst overload never broke (9,10) within the ceiling: %s", res)
	}
	if res.Pass == nil || !res.Pass.Satisfied || res.Fail == nil || res.Fail.Satisfied {
		t.Fatalf("frontier verdicts inconsistent: pass=%+v fail=%+v", res.Pass, res.Fail)
	}
	a, err := json.Marshal(om)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := json.Marshal(run())
	if string(a) != string(b) {
		t.Fatalf("margin search not reproducible:\n%s\n%s", a, b)
	}
}

// TestBurstSearchMemoryBoundedByWorkload: a burst probe at level L
// serves every event L+1 times, but what it holds must scale with the
// workload, not with L. At a ceiling of 65,536 over Figure 4's 30 events
// the whole search must allocate less than 4 MB.
func TestBurstSearchMemoryBoundedByWorkload(t *testing.T) {
	cfg, _, run := marginFixture(t)
	cfg.Ceiling = 1 << 16
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	om := run()
	runtime.ReadMemStats(&after)
	if om.Result.Level < 0 || om.Result.Level >= om.Result.Ceiling {
		t.Fatalf("burst margin must be finite: %s", om.Result)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	if alloc >= 4<<20 {
		t.Fatalf("burst search at ceiling %d allocated %.1f MB, want < 4 MB", cfg.Ceiling, float64(alloc)/(1<<20))
	}
	t.Logf("burst search at ceiling %d (%s) allocated %.3f MB", cfg.Ceiling, om.Result, float64(alloc)/(1<<20))
}

// TestSearchOverloadMarginOverrunFinite checks the second injector axis:
// scaling task overruns past the deadline's 2x headroom must eventually
// break the constraint, at a seed-reproducible level.
func TestSearchOverloadMarginOverrunFinite(t *testing.T) {
	cfg, _, run := marginFixture(t)
	cfg.Kind = OverloadOverrun
	om := run()
	if om.Result.Level < 0 || om.Result.Level >= om.Result.Ceiling {
		t.Fatalf("overrun margin must be finite and positive: %s", om.Result)
	}
	if om2 := run(); om2.Result.Level != om.Result.Level || om2.Result.Probes != om.Result.Probes {
		t.Fatalf("overrun margin not reproducible: %s vs %s", om.Result, om2.Result)
	}
}

// TestSearchOverloadMarginDropNeverBreaks: losing events only sheds load,
// so the drop axis can never violate a deadline constraint — the search
// must report the full ceiling with no failing verdict.
func TestSearchOverloadMarginDropNeverBreaks(t *testing.T) {
	cfg, _, run := marginFixture(t)
	cfg.Kind = OverloadDrop
	om := run()
	if om.Result.Level != om.Result.Ceiling || om.Result.Fail != nil {
		t.Fatalf("drop margin = %s, want full ceiling", om.Result)
	}
	if om.Result.Ceiling != 100 {
		t.Fatalf("drop ceiling = %d, want 100 (it is a percentage)", om.Result.Ceiling)
	}
}

// TestSearchOverloadMarginConfiguredDeadline: an explicit (uncalibrated)
// deadline is honoured, including one so tight the nominal run fails.
func TestSearchOverloadMarginConfiguredDeadline(t *testing.T) {
	cfg, _, run := marginFixture(t)
	cfg.Robust.Deadline = 1
	om := run()
	if om.Deadline != 1 {
		t.Fatalf("deadline = %d, want the configured 1", om.Deadline)
	}
	if om.Result.Level != -1 || om.Result.Probes != 1 {
		t.Fatalf("nominal failure must stop after one probe: %s", om.Result)
	}
}

func TestSearchOverloadMarginValidation(t *testing.T) {
	n := figures.Figure4()
	prog := qssProgram(t, n)
	t1, _ := n.TransitionByName("t1")
	events := rtos.Periodic(t1, 100, 0, 5)
	cost := rtos.DefaultCostModel()
	if _, err := SearchOverloadMargin(prog, events, cost, MarginConfig{
		Kind: OverloadBurst, MK: timing.Constraint{M: 3, K: 2},
	}); err == nil {
		t.Fatal("invalid constraint accepted")
	}
	if _, err := SearchOverloadMargin(prog, events, cost, MarginConfig{
		Kind: OverloadBurst, MK: timing.Constraint{M: 1, K: 2},
		Robust: RobustConfig{Jitter: &fault.CostJitter{Seed: 1, MaxPct: 10}},
	}); err == nil {
		t.Fatal("caller-owned Jitter accepted")
	}
}

func TestCalibrateDeadline(t *testing.T) {
	n := figures.Figure4()
	prog := qssProgram(t, n)
	t1, _ := n.TransitionByName("t1")
	events := rtos.Periodic(t1, 2000, 0, 10)
	hooks := func() Hooks {
		return Hooks{Resolver: NewDecisionStream(n, 11).Resolver()}
	}
	d1, err := CalibrateDeadline(prog, events, rtos.DefaultCostModel(),
		RobustConfig{CyclesPerTick: 1}, hooks(), DefaultDeadlineFactor)
	if err != nil {
		t.Fatal(err)
	}
	d2, _ := CalibrateDeadline(prog, events, rtos.DefaultCostModel(),
		RobustConfig{CyclesPerTick: 1}, hooks(), DefaultDeadlineFactor)
	if d1 != d2 || d1 < 1 {
		t.Fatalf("calibration = %d, %d", d1, d2)
	}
	// Zero events: minimum budget of one cycle, never zero.
	d0, err := CalibrateDeadline(prog, nil, rtos.DefaultCostModel(),
		RobustConfig{CyclesPerTick: 1}, hooks(), DefaultDeadlineFactor)
	if err != nil || d0 != 1 {
		t.Fatalf("empty-workload calibration = %d (%v)", d0, err)
	}
}
