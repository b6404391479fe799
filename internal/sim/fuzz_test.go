package sim

import (
	"encoding/json"
	"testing"

	"fcpn/internal/codegen"
	"fcpn/internal/figures"
	"fcpn/internal/netgen"
	"fcpn/internal/petri"
	"fcpn/internal/rtos"
	"fcpn/internal/timing"
)

// FuzzScheduleReplay feeds malformed decision streams to the simulator:
// the resolver replays fuzz bytes as choice indices, including negative
// and far out-of-range picks. The simulator must reject or skip them —
// never panic — and the step budget must keep every input terminating.
func FuzzScheduleReplay(f *testing.F) {
	n := figures.Figure4()
	prog, err := compileQSS(n)
	if err != nil {
		f.Fatal(err)
	}
	t1, _ := n.TransitionByName("t1")
	events := rtos.Periodic(t1, 10, 0, 8)
	limits, err := StructuralLimits(n)
	if err != nil {
		f.Fatal(err)
	}

	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{1, 0, 1, 0})
	f.Add([]byte{0xFF, 0x80, 0x7F})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})

	f.Fuzz(func(t *testing.T, stream []byte) {
		i := 0
		resolver := func(p petri.Place, alternatives []petri.Transition) int {
			if len(stream) == 0 {
				return 0
			}
			b := stream[i%len(stream)]
			i++
			// Spread the byte over a hostile range: negatives, valid
			// indices and far out-of-range picks.
			return int(b) - 64
		}
		rm, err := RunRobust(prog, events, rtos.DefaultCostModel(), RobustConfig{
			Queue:      rtos.QueueConfig{Capacity: 4, Policy: rtos.DropOldest},
			StepBudget: 1 << 16,
			Limits:     limits,
		}, Hooks{Resolver: resolver})
		if err != nil {
			return // rejection (including budget exhaustion) is fine; panics are not
		}
		// Whatever nonsense the stream selected, only legal firings ran,
		// so the structural bounds must still hold.
		if rm.BoundViolations != 0 {
			t.Fatalf("malformed stream produced bound violations: %v", rm.Violations)
		}
		// The functional baseline's scheduler cascade must hold up under
		// the same resolver too.
		i = 0
		rm, err = RunRobust(prog, events, rtos.DefaultCostModel(), RobustConfig{
			StepBudget: 1 << 16,
			Limits:     limits,
			Modular:    true,
		}, Hooks{Resolver: resolver})
		if err != nil {
			return
		}
		if rm.BoundViolations != 0 {
			t.Fatalf("malformed stream produced bound violations in the cascade: %v", rm.Violations)
		}
	})
}

// FuzzMarginEarlyStop holds the early-stopping margin search to the
// reference that runs every probe in full (SearchOverloadMarginFull)
// over fuzzed seeds, kinds, ceilings, deadlines and step budgets: both
// must fail together or marshal byte-identically. The seed also picks
// the program, whether arrivals are backlogged or sparse and, from bits
// 16 and up, a bounded ingress queue: bits 16-19 its capacity (0 keeps
// it unbounded, as for every seed below 1<<16) and the bits above them
// its overflow policy.
func FuzzMarginEarlyStop(f *testing.F) {
	nets := []*petri.Net{figures.Figure3a(), figures.Figure4(), figures.Figure5()}
	for s := uint64(1); s <= 6; s++ {
		nets = append(nets, netgen.RandomSchedulablePipeline(s, netgen.DefaultConfig()))
	}
	var progs []*codegen.Program
	for _, n := range nets {
		prog, err := compileQSS(n)
		if err != nil {
			f.Fatal(err)
		}
		progs = append(progs, prog)
	}

	f.Add(uint64(1), uint8(0), uint16(0), int64(0), uint32(0))     // burst, default ceiling
	f.Add(uint64(2), uint8(1), uint16(0), int64(0), uint32(0))     // jitter
	f.Add(uint64(0x103), uint8(1), uint16(0), int64(0), uint32(0)) // jitter, sparse arrivals
	f.Add(uint64(4), uint8(2), uint16(0), int64(0), uint32(0))     // drop: never breaks
	f.Add(uint64(5), uint8(3), uint16(0), int64(0), uint32(0))     // overrun
	f.Add(uint64(6), uint8(0), uint16(9), int64(1), uint32(0))     // nominal run fails
	f.Add(uint64(7), uint8(0), uint16(0), int64(0), uint32(4000))  // small step budget
	f.Add(uint64(8), uint8(3), uint16(0), int64(1<<40), uint32(3000))
	f.Add(uint64(0x030001), uint8(0), uint16(0), int64(0), uint32(0)) // burst, capacity 3, drop-newest
	f.Add(uint64(0x140002), uint8(0), uint16(9), int64(0), uint32(0)) // burst, capacity 4, drop-oldest
	f.Add(uint64(0x220005), uint8(3), uint16(0), int64(0), uint32(0)) // overrun, capacity 2, reject

	f.Fuzz(func(t *testing.T, seed uint64, kind uint8, ceiling uint16, deadline int64, budget uint32) {
		prog := progs[seed%uint64(len(progs))]
		spacing := int64(1)
		if seed&0x100 != 0 {
			spacing = 1000
		}
		var streams [][]rtos.Event
		for i, src := range prog.Net.SourceTransitions() {
			streams = append(streams, rtos.Periodic(src, int64(2*i+3)*spacing, int64(i)*spacing, 12))
		}
		events := rtos.Merge(streams...)
		cfg := MarginConfig{
			Kind:    OverloadKind(kind % 4),
			MK:      timing.Constraint{M: 9, K: 10},
			Seed:    seed,
			Ceiling: int(ceiling),
			Robust: RobustConfig{
				CyclesPerTick: 1,
				Queue:         rtos.QueueConfig{Capacity: int(seed >> 16 & 0xF), Policy: rtos.OverflowPolicy(seed >> 20 % 3)},
				Deadline:      deadline % (1 << 41),
				StepBudget:    int(budget % (1 << 20)),
			},
		}
		if cfg.Kind == OverloadBurst {
			cfg.Ceiling %= 100 // every level adds a copy of the whole stream
		}
		cost := rtos.DefaultCostModel()
		got, gotErr := SearchOverloadMargin(prog, events, cost, cfg)
		want, wantErr := SearchOverloadMarginFull(prog, events, cost, cfg)
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("error %v, reference error %v", gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		a, _ := json.Marshal(got)
		b, _ := json.Marshal(want)
		if string(a) != string(b) {
			t.Fatalf("early-stopping search differs from full probes:\n got %s\nwant %s", a, b)
		}
	})
}
