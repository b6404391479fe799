package sim

import (
	"testing"

	"fcpn/internal/codegen"
	"fcpn/internal/core"
	"fcpn/internal/figures"
	"fcpn/internal/petri"
	"fcpn/internal/rtos"
)

// FuzzScheduleReplay feeds malformed decision streams to the simulator:
// the resolver replays fuzz bytes as choice indices, including negative
// and far out-of-range picks. The simulator must reject or skip them —
// never panic — and the step budget must keep every input terminating.
func FuzzScheduleReplay(f *testing.F) {
	n := figures.Figure4()
	sched, err := core.Solve(n, core.Options{})
	if err != nil {
		f.Fatal(err)
	}
	tp, err := core.PartitionTasks(n, core.Options{})
	if err != nil {
		f.Fatal(err)
	}
	prog, err := codegen.Generate(sched, tp)
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
