package fcpn

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"testing"

	"fcpn/internal/atm"
	"fcpn/internal/fault"
	"fcpn/internal/modem"
	"fcpn/internal/rtos"
	"fcpn/internal/sim"
	"fcpn/internal/timing"
)

// loadNet parses one of the shipped example nets.
func loadNet(t *testing.T, path string) *Net {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	n, err := Parse(f)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestATMBoundsUnderBurstScenarios is the acceptance regression: the ATM
// server net synthesised from examples/nets/atmserver.pn reports zero
// structural bound violations under ten seeded burst scenarios.
func TestATMBoundsUnderBurstScenarios(t *testing.T) {
	n := loadNet(t, "examples/nets/atmserver.pn")
	syn, err := Synthesize(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sources := n.SourceTransitions()
	if len(sources) == 0 {
		t.Fatal("atmserver.pn has no source transitions")
	}
	var streams [][]rtos.Event
	for i, src := range sources {
		streams = append(streams, rtos.Periodic(src, int64(2*i+3), int64(i), 40))
	}
	base := rtos.Merge(streams...)
	limits, err := sim.StructuralLimits(n)
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range fault.BurstScenarios(10, 0xFA117, fault.AnySource, 50, 3) {
		events := sc.Apply(base)
		ds := sim.NewDecisionStream(n, sc.Seed)
		rm, err := sim.RunRobust(syn.Program, events, rtos.DefaultCostModel(),
			sim.RobustConfig{Limits: limits}, sim.Hooks{Resolver: ds.Resolver()})
		if err != nil {
			t.Fatalf("scenario %s: %v", sc.Name, err)
		}
		if rm.BoundViolations != 0 {
			t.Fatalf("scenario %s: %d structural bound violations: %v",
				sc.Name, rm.BoundViolations, rm.Violations)
		}
	}
}

// TestATMRobustnessReportDeterministic checks the byte-identical
// reproducibility claim: the same seed yields the identical report.
func TestATMRobustnessReportDeterministic(t *testing.T) {
	cfg := atm.RobustnessConfig{
		Workload:      atm.DefaultWorkload(),
		Scenarios:     6,
		FaultSeed:     0xFA117,
		QueueCapacity: 8,
		Policy:        rtos.DropOldest,
		Deadline:      20000,
		OverrunPct:    15,
	}
	cost := rtos.DefaultCostModel()
	first, err := atm.RunRobustness(cfg, cost)
	if err != nil {
		t.Fatal(err)
	}
	second, err := atm.RunRobustness(cfg, cost)
	if err != nil {
		t.Fatal(err)
	}
	if first.Format() != second.Format() {
		t.Fatalf("same seed produced different reports:\n--- first\n%s--- second\n%s",
			first.Format(), second.Format())
	}
	if first.TotalViolations() != 0 {
		t.Fatalf("ATM robustness run violated structural bounds:\n%s", first.Format())
	}
	// A different seed must change the report (scenario seeds differ).
	cfg.FaultSeed = 0xBEEF
	third, err := atm.RunRobustness(cfg, cost)
	if err != nil {
		t.Fatal(err)
	}
	if first.Format() == third.Format() {
		t.Fatal("different fault seeds produced identical reports")
	}
}

// TestModemRobustness replays the modem under the mixed fault catalogue:
// the simulator must not panic and the structural bounds must hold.
func TestModemRobustness(t *testing.T) {
	m, err := modem.New()
	if err != nil {
		t.Fatal(err)
	}
	syn, err := Synthesize(m.Net, Options{})
	if err != nil {
		t.Fatal(err)
	}
	limits, err := sim.StructuralLimits(m.Net)
	if err != nil {
		t.Fatal(err)
	}
	base := rtos.Merge(
		rtos.Periodic(m.Sample, 5, 0, 60),
		rtos.Bursty(m.Cmd, 40, 8, 0xC0FFEE),
	)
	for _, sc := range fault.DefaultScenarios(10, 0x30DE) {
		events := sc.Apply(base)
		line := modem.NewLine(m)
		rm, err := sim.RunRobust(syn.Program, events, rtos.DefaultCostModel(), sim.RobustConfig{
			Queue:  rtos.QueueConfig{Capacity: 6, Policy: rtos.DropNewest},
			Limits: limits,
		}, sim.Hooks{
			Resolver: line.Resolver(),
			OnFire:   line.OnFire,
			BeforeEvent: func(ev rtos.Event) {
				switch ev.Source {
				case m.Sample:
					line.BeginSample()
				case m.Cmd:
					line.BeginCmd()
				}
			},
		})
		if err != nil {
			t.Fatalf("scenario %s: %v", sc.Name, err)
		}
		if rm.BoundViolations != 0 {
			t.Fatalf("scenario %s: %d violations: %v", sc.Name, rm.BoundViolations, rm.Violations)
		}
	}
}

// TestATMTimingSafetyMargins is the tentpole acceptance check for the ATM
// server: the overload-margin search produces finite non-negative margins
// under two injector kinds, reproducible byte-for-byte from the same seed,
// and every scenario carries a concrete weakly-hard verdict.
func TestATMTimingSafetyMargins(t *testing.T) {
	cfg := atm.RobustnessConfig{
		Workload:    atm.DefaultWorkload(),
		Scenarios:   3,
		FaultSeed:   0xFA117,
		MK:          timing.Constraint{M: 8, K: 10},
		MarginKinds: []sim.OverloadKind{sim.OverloadBurst, sim.OverloadOverrun},
	}
	cost := rtos.DefaultCostModel()
	first, err := atm.RunRobustness(cfg, cost)
	if err != nil {
		t.Fatal(err)
	}
	second, err := atm.RunRobustness(cfg, cost)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(first)
	b, _ := json.Marshal(second)
	if string(a) != string(b) {
		t.Fatalf("same seed produced different timing reports:\n%s\nvs\n%s", a, b)
	}
	ts := first.Timing
	if ts == nil || ts.MK != "(8,10)" || ts.Deadline <= 0 {
		t.Fatalf("missing timing block: %+v", ts)
	}
	if len(ts.Margins) != 2 ||
		ts.Margins[0].Kind != sim.OverloadBurst.String() ||
		ts.Margins[1].Kind != sim.OverloadOverrun.String() {
		t.Fatalf("margins = %+v", ts.Margins)
	}
	for _, om := range ts.Margins {
		if om.Result == nil || om.Result.Level < 0 || om.Result.Level > om.Result.Ceiling {
			t.Fatalf("margin %s not finite: %+v", om.Kind, om.Result)
		}
		if om.Deadline != ts.Deadline {
			t.Fatalf("margin %s deadline %d != calibrated %d", om.Kind, om.Deadline, ts.Deadline)
		}
	}
	for _, sc := range first.Scenarios {
		if sc.Timing == nil || sc.Timing.Events == 0 {
			t.Fatalf("scenario %s has no timing verdict: %+v", sc.Name, sc.Timing)
		}
	}
}

// TestModemTimingSafetyMargins mirrors the ATM acceptance check on the
// modem: nominal verdict satisfied under the calibrated deadline, finite
// reproducible margins under burst and overrun.
func TestModemTimingSafetyMargins(t *testing.T) {
	kinds := []sim.OverloadKind{sim.OverloadBurst, sim.OverloadOverrun}
	mk := timing.Constraint{M: 9, K: 10}
	cost := rtos.DefaultCostModel()
	first, err := modem.RunTimingSafety(modem.DefaultWorkload(), cost, mk, 0, kinds, 0x30DE)
	if err != nil {
		t.Fatal(err)
	}
	second, err := modem.RunTimingSafety(modem.DefaultWorkload(), cost, mk, 0, kinds, 0x30DE)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(first)
	b, _ := json.Marshal(second)
	if string(a) != string(b) {
		t.Fatalf("same seed produced different modem timing results:\n%s\nvs\n%s", a, b)
	}
	if first.Deadline <= 0 || first.Verdict == nil || !first.Verdict.Satisfied {
		t.Fatalf("nominal modem run must satisfy %s under the calibrated deadline: %+v", mk, first)
	}
	if len(first.Margins) != 2 {
		t.Fatalf("margins = %+v", first.Margins)
	}
	for _, om := range first.Margins {
		if om.Result == nil || om.Result.Level < 0 || om.Result.Level > om.Result.Ceiling {
			t.Fatalf("margin %s not finite: %+v", om.Kind, om.Result)
		}
	}
}

// TestBuildRecoversBuilderPanics covers the public panic-recovery
// boundary: programmatic construction errors surface as *BuildError.
func TestBuildRecoversBuilderPanics(t *testing.T) {
	cases := []struct {
		name      string
		construct func(*Builder)
	}{
		{"duplicate place", func(b *Builder) {
			b.Place("p")
			b.Place("p")
		}},
		{"duplicate transition", func(b *Builder) {
			b.Transition("t")
			b.Transition("t")
		}},
		{"non-positive weight", func(b *Builder) {
			p := b.Place("p")
			tr := b.Transition("t")
			b.WeightedArc(p, tr, 0)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n, err := Build("bad", tc.construct)
			if err == nil {
				t.Fatalf("Build succeeded: %v", n)
			}
			var be *BuildError
			if !errors.As(err, &be) {
				t.Fatalf("error %T is not *BuildError: %v", err, err)
			}
			if be.Reason == "" || be.Error() == "" {
				t.Fatalf("empty diagnosis: %+v", be)
			}
		})
	}
}

func TestBuildValidNet(t *testing.T) {
	n, err := Build("good", func(b *Builder) {
		p := b.Place("p")
		tr := b.Transition("t")
		b.Arc(p, tr)
	})
	if err != nil {
		t.Fatal(err)
	}
	if n.Name() != "good" || n.NumPlaces() != 1 || n.NumTransitions() != 1 {
		t.Fatalf("unexpected net: %q %d/%d", n.Name(), n.NumPlaces(), n.NumTransitions())
	}
}

func TestErrBudgetExceededReexport(t *testing.T) {
	if ErrBudgetExceeded == nil {
		t.Fatal("nil sentinel")
	}
	if !errors.Is(ErrBudgetExceeded, ErrBudgetExceeded) {
		t.Fatal("sentinel does not match itself")
	}
}

// TestTimingSafetyPinned pins the bytes of the ATM and modem timing
// experiments: one SHA-256 of each report's JSON. The ATM cases run
// their margin searches behind a bounded ingress queue under each
// overflow policy; the modem cases search every overload kind, once
// with a calibrated deadline and once with a one-cycle deadline that
// fails the nominal run.
func TestTimingSafetyPinned(t *testing.T) {
	cost := rtos.DefaultCostModel()
	kinds := []sim.OverloadKind{sim.OverloadBurst, sim.OverloadJitter, sim.OverloadDrop, sim.OverloadOverrun}
	atmCase := func(capacity int, policy rtos.OverflowPolicy) func() (any, error) {
		return func() (any, error) {
			return atm.RunRobustness(atm.RobustnessConfig{
				Workload:      atm.DefaultWorkload(),
				Scenarios:     3,
				FaultSeed:     0xFA117,
				QueueCapacity: capacity,
				Policy:        policy,
				MK:            timing.Constraint{M: 8, K: 10},
				MarginKinds:   []sim.OverloadKind{sim.OverloadBurst, sim.OverloadOverrun},
			}, cost)
		}
	}
	modemCase := func(deadline int64) func() (any, error) {
		return func() (any, error) {
			return modem.RunTimingSafety(modem.DefaultWorkload(), cost, timing.Constraint{M: 9, K: 10}, deadline, kinds, 0x30DE)
		}
	}
	for _, tc := range []struct {
		name string
		run  func() (any, error)
		want string
	}{
		{"atm/drop-newest", atmCase(4, rtos.DropNewest),
			"2fc47b1d0759de36749f5712a898360ecb791a92fd62eef5c7633d8a4c970795"},
		{"atm/drop-oldest", atmCase(4, rtos.DropOldest),
			"e9c95a922caa26f35033d768c90ab1b65ef06c234f5eafbe7d2589db36c8e49e"},
		{"atm/reject", atmCase(4, rtos.Reject),
			"7e2028865694bf8acd0c62ef741cfd0868358a735b393cee2654256e3b08ec27"},
		{"modem/calibrated", modemCase(0),
			"f5d739291a03e4cc253ee61ff0c028d6326a86bc8d3cf27fb0020c03b3dee5a1"},
		{"modem/deadline1", modemCase(1),
			"d8ee985be35499640cbc833710bd26bdaf6da5c25672f78c73e8835df0a4f2c4"},
	} {
		rep, err := tc.run()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != tc.want {
			t.Errorf("%s: report hash %s, pinned %s\n%s", tc.name, got, tc.want, b)
		}
	}
}
