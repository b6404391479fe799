// Package sim executes generated task programs (internal/codegen) on the
// simulated RTOS (internal/rtos) against an event workload, producing the
// metrics of the paper's Table I: task count, generated code size and
// clock cycles.
//
// Both implementations of a net — the quasi-static one and the functional
// (modular) baseline — are driven with the *same* decision stream: the
// k-th control token of each choice place resolves identically in both
// runs, so measured differences come from scheduling, not workload luck.
package sim

import (
	"fcpn/internal/codegen"
	"fcpn/internal/petri"
	"fcpn/internal/rtos"
)

// Metrics is the outcome of one simulated run.
type Metrics struct {
	// Cycles is the total cycle cost (the paper's "Clock cycles" row).
	Cycles int64
	// Activations counts RTOS task dispatches.
	Activations int64
	// Polls counts no-work scheduler examinations (baseline only).
	Polls int64
	// Events is the number of workload events delivered.
	Events int
	// Fired is the per-transition firing count over the whole run.
	Fired []int
	// MaxCounter is the largest queue/counter value observed: the memory
	// bound actually exercised.
	MaxCounter int
	// PerTask counts activations per task.
	PerTask map[string]int64
	// LatencyMax and LatencyAvg summarise per-event service cost in
	// cycles: the dispatched task plus any scheduler cascade, without
	// the interrupt, which is charged when the event is admitted.
	LatencyMax int64
	LatencyAvg int64
	// DroppedEvents counts workload events lost to a bounded ingress
	// queue's overflow policy (see RobustConfig.Queue).
	DroppedEvents int64
	// DeadlineMisses counts events whose response time exceeded the
	// configured watchdog budget.
	DeadlineMisses int64
	// BoundViolations counts places whose observed peak counter exceeded
	// the configured static bound: the executable form of the paper's
	// bounded-memory claim. Zero for every valid schedule under sound
	// (structural) bounds.
	BoundViolations int
}

// cycleStats folds a stream of per-event cycle counts into their
// maximum, sum and mean.
type cycleStats struct {
	max, sum, n int64
}

func (c *cycleStats) add(cycles int64) {
	if cycles > c.max {
		c.max = cycles
	}
	c.sum += cycles
	c.n++
}

func (c *cycleStats) avg() int64 {
	if c.n == 0 {
		return 0
	}
	return c.sum / c.n
}

// DecisionStream resolves the k-th control token of each choice place
// deterministically from a seed, so independent runs see identical data.
type DecisionStream struct {
	seed uint64
	k    []uint64 // per-place occurrence counters
	net  *petri.Net
	// Bias optionally overrides the uniform distribution: Bias[p] gives
	// per-alternative weights for place p (len = number of consumers).
	Bias map[petri.Place][]int
}

// NewDecisionStream creates a stream for the net with the given seed.
func NewDecisionStream(n *petri.Net, seed uint64) *DecisionStream {
	return &DecisionStream{seed: seed, k: make([]uint64, n.NumPlaces()), net: n}
}

// Resolver adapts the stream to the interpreter's callback. The chosen
// transition is a deterministic function of (place, occurrence index,
// seed); its position within the alternatives offered is looked up so QSS
// and modular code see the same decision regardless of code shape.
func (ds *DecisionStream) Resolver() codegen.ChoiceResolver {
	return func(p petri.Place, alts []petri.Transition) int {
		k := ds.k[p]
		ds.k[p] = k + 1
		target := ds.decide(p, k)
		for i, t := range alts {
			if t == target {
				return i
			}
		}
		return -1
	}
}

func (ds *DecisionStream) decide(p petri.Place, k uint64) petri.Transition {
	consumers := ds.net.Consumers(p)
	h := ds.seed ^ (uint64(p)+1)*0x9E3779B97F4A7C15 ^ (k+1)*0xBF58476D1CE4E5B9
	h ^= h >> 31
	h *= 0x94D049BB133111EB
	h ^= h >> 29
	if weights, ok := ds.Bias[p]; ok && len(weights) == len(consumers) {
		total := 0
		for _, w := range weights {
			total += w
		}
		if total > 0 {
			x := int(h % uint64(total))
			for i, w := range weights {
				if x < w {
					return consumers[i].Transition
				}
				x -= w
			}
		}
	}
	return consumers[h%uint64(len(consumers))].Transition
}

// Hooks customises a run: how choices resolve, what observes firings, and
// what happens before each event (e.g. presenting the next cell header to
// a behavioural model).
type Hooks struct {
	Resolver    codegen.ChoiceResolver
	OnFire      func(t petri.Transition)
	BeforeEvent func(ev rtos.Event)
}

// fireHook chains duration charging onto the caller's OnFire when the
// cost model carries per-transition duration annotations (timed Petri
// nets). The interpreter invokes it once per firing, so annotated and
// unannotated runs share one code path; without annotations the caller's
// hook is returned untouched.
func fireHook(k *rtos.Kernel, hooks Hooks) func(petri.Transition) {
	if len(k.Cost.Durations) == 0 {
		return hooks.OnFire
	}
	user := hooks.OnFire
	return func(t petri.Transition) {
		k.ChargeDuration(t)
		if user != nil {
			user(t)
		}
	}
}

// RunQSS drives the quasi-statically scheduled program through RunRobust
// with the default configuration: each event costs one interrupt plus
// one task activation, then the task runs to completion. Choices resolve
// through a seeded DecisionStream.
func RunQSS(prog *codegen.Program, events []rtos.Event, cost rtos.CostModel, seed uint64) (*Metrics, error) {
	rm, err := RunRobust(prog, events, cost, RobustConfig{},
		Hooks{Resolver: NewDecisionStream(prog.Net, seed).Resolver()})
	if err != nil {
		return nil, err
	}
	return &rm.Metrics, nil
}
