// Package rtos models the run-time system underneath the synthesised
// tasks: a cycle-cost accounting kernel with task activation overhead, an
// event queue, and workload generators for interrupt-like (irregular) and
// timer-like (periodic) input events.
//
// The paper evaluated its implementations by clock-cycle counts on an
// embedded target with a commercial RTOS; this package is the simulated
// substitute. Absolute costs are parameters (CostModel); the comparison
// the paper makes — fewer tasks ⇒ fewer activations ⇒ less overhead —
// depends only on the relative values.
package rtos

import (
	"fmt"
	"sort"

	"fcpn/internal/petri"
)

// CostModel assigns cycle costs to the observable actions of an
// implementation.
type CostModel struct {
	// Activation is charged every time the RTOS dispatches a task
	// (context switch, queue management, scheduler bookkeeping).
	Activation int64
	// Poll is charged when the dynamic scheduler examines a task that then
	// has nothing to do.
	Poll int64
	// Fire is charged per transition firing (the data computation; a
	// proxy for the paper's per-operation cost).
	Fire int64
	// Op is charged per counter update or guard evaluation in generated
	// code.
	Op int64
	// Interrupt is charged per external event delivery.
	Interrupt int64
	// Durations, when non-nil, are per-transition execution times in
	// cycles charged ON TOP of Fire for each firing of that transition —
	// the timed-Petri-net duration annotations of the timing-safety
	// layer. Transitions absent from the map cost only Fire. The map is
	// shared by reference across cost-model copies (fault.CostJitter
	// perturbs the scalar costs per dispatch but leaves Durations
	// unscaled: annotations model the data computation's nominal length,
	// overruns model the execution environment).
	Durations map[petri.Transition]int64
}

// DefaultCostModel mirrors a small embedded kernel: task activation is an
// order of magnitude more expensive than straight-line code.
func DefaultCostModel() CostModel {
	return CostModel{
		Activation: 150,
		Poll:       6,
		Fire:       120,
		Op:         2,
		Interrupt:  30,
	}
}

// Kernel accumulates cycle costs and activation counts. A kernel may
// optionally carry an ingress queue and a deadline watchdog; without
// them Admit accepts every event and Complete records nothing.
type Kernel struct {
	Cost        CostModel
	Cycles      int64
	Activations int64
	Polls       int64
	Interrupts  int64
	// PerTask counts activations per task index.
	PerTask []int64
	// Queue, when set, bounds event ingress (see Admit).
	Queue *EventQueue
	// Watch, when set, records per-event deadline misses (see Complete).
	Watch *Watchdog
}

// NewKernel returns a kernel with the given cost model that counts
// activations for tasks 0 to tasks-1.
func NewKernel(cost CostModel, tasks int) *Kernel {
	return &Kernel{Cost: cost, PerTask: make([]int64, tasks)}
}

// Admit delivers copies back-to-back occurrences of one external event
// arriving at the given clock: each copy's interrupt cost is always
// charged (the hardware fired regardless), then each copy is offered to
// the ingress queue under its overflow policy. Without a queue every copy
// is accepted unconditionally but not stored. It reports how many copies
// were admitted for service.
func (k *Kernel) Admit(ev Event, arrival int64, copies int) int {
	k.Cycles += int64(copies) * k.Cost.Interrupt
	k.Interrupts += int64(copies)
	if k.Queue == nil {
		return copies
	}
	admitted := 0
	for i := 0; i < copies; i++ {
		if k.Queue.Offer(ev, arrival) {
			admitted++
		}
	}
	return admitted
}

// Complete records one served event's response time with the watchdog (a
// no-op without one), reporting whether the deadline was missed.
func (k *Kernel) Complete(response int64) bool {
	return k.Watch.Observe(response)
}

// Activate charges one dispatch of the task with the given index.
func (k *Kernel) Activate(task int) {
	k.Cycles += k.Cost.Activation
	k.Activations++
	k.PerTask[task]++
}

// Poll charges one no-work scheduler examination.
func (k *Kernel) Poll() {
	k.Cycles += k.Cost.Poll
	k.Polls++
}

// ChargeFirings charges n transition executions.
func (k *Kernel) ChargeFirings(n int64) { k.Cycles += n * k.Cost.Fire }

// ChargeOps charges n generated-code bookkeeping operations.
func (k *Kernel) ChargeOps(n int64) { k.Cycles += n * k.Cost.Op }

// ChargeDuration charges transition t's duration annotation, if it has
// one (no-op otherwise). The simulator calls it once per firing through
// the interpreter's OnFire hook, so annotated and unannotated runs
// share one code path.
func (k *Kernel) ChargeDuration(t petri.Transition) {
	if d, ok := k.Cost.Durations[t]; ok {
		k.Cycles += d
	}
}

// String summarises the kernel counters.
func (k *Kernel) String() string {
	return fmt.Sprintf("cycles=%d activations=%d polls=%d interrupts=%d",
		k.Cycles, k.Activations, k.Polls, k.Interrupts)
}

// Event is one external input occurrence: the source transition fires at
// the given time (times order the merged workload; the cost model is
// cycle-based, not latency-based).
type Event struct {
	Time   int64
	Source petri.Transition
}

// Periodic generates count events for src with the given period, starting
// at phase.
func Periodic(src petri.Transition, period, phase int64, count int) []Event {
	out := make([]Event, count)
	for i := range out {
		out[i] = Event{Time: phase + int64(i)*period, Source: src}
	}
	return out
}

// Bursty generates count events for src with pseudo-random gaps averaging
// meanGap (deterministic per seed): the "interrupt at irregular times"
// input of the paper's ATM server.
func Bursty(src petri.Transition, meanGap int64, count int, seed uint64) []Event {
	if meanGap < 1 {
		meanGap = 1
	}
	state := seed*6364136223846793005 + 1442695040888963407
	next := func(n int64) int64 {
		state = state*6364136223846793005 + 1442695040888963407
		return int64((state >> 33) % uint64(n))
	}
	out := make([]Event, count)
	t := int64(0)
	for i := range out {
		t += 1 + next(2*meanGap)
		out[i] = Event{Time: t, Source: src}
	}
	return out
}

// Merge interleaves event streams by time, stably (equal times keep the
// argument order).
func Merge(streams ...[]Event) []Event {
	var all []Event
	for _, s := range streams {
		all = append(all, s...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Time < all[j].Time })
	return all
}
