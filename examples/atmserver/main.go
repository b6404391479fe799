// ATM server: the paper's Section 5 case study end to end. The FCPN model
// (49 transitions, 41 places, 11 free choices, two independent-rate
// inputs) is scheduled quasi-statically into two tasks, synthesised to C,
// and then executed with real WFQ + message-discard semantics resolving
// the choices, against the 50-cell testbench — finally reproducing
// Table I against the functional five-task baseline.
package main

import (
	"fmt"
	"log"

	"fcpn"
	"fcpn/internal/atm"
	"fcpn/internal/rtos"
	"fcpn/internal/sim"
)

func main() {
	m := atm.New()
	fmt.Printf("ATM server FCPN: %d transitions, %d places, %d free choices\n",
		m.Net.NumTransitions(), m.Net.NumPlaces(), len(m.Net.FreeChoiceSets()))

	syn, err := fcpn.Synthesize(m.Net, fcpn.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("schedulable: %d T-allocations collapse to %d T-reductions (cycles)\n",
		syn.Schedule.AllocationCount, len(syn.Schedule.Cycles))
	fmt.Printf("tasks: %d (one per independent-rate input: Cell, Tick)\n\n", syn.NumTasks())

	// Run the synthesised implementation with the behavioural model
	// resolving the choices: real WFQ virtual times, a real shared
	// buffer, real per-VC discard state.
	server := atm.NewServer(m, atm.DefaultConfig())
	w := atm.NewWorkload(m, atm.DefaultWorkload())
	metrics, err := sim.RunRobust(syn.Program, w.Events, rtos.DefaultCostModel(), sim.RobustConfig{}, sim.Hooks{
		Resolver:    server.Resolver(),
		OnFire:      server.OnFire,
		BeforeEvent: w.CellFeeder(m, server),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("QSS run: %d events, %d activations, %d cycles\n",
		metrics.Events, metrics.Activations, metrics.Cycles)
	fmt.Printf("server stats: %+v\n\n", server.Stats)

	// Table I.
	res, err := atm.RunTableI(atm.DefaultWorkload(), rtos.DefaultCostModel())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Table I reproduction (testbench of 50 ATM cells):")
	fmt.Print(res.Format())
	fmt.Printf("\ncycle ratio functional/QSS = %.2f (paper: 1.26), code ratio = %.2f (paper: 1.31)\n",
		float64(res.Functional.ClockCycles)/float64(res.QSS.ClockCycles),
		float64(res.Functional.LinesOfC)/float64(res.QSS.LinesOfC))
}
