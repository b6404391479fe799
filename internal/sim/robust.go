package sim

import (
	"errors"
	"fmt"
	"sort"

	"fcpn/internal/codegen"
	"fcpn/internal/core"
	"fcpn/internal/invariant"
	"fcpn/internal/petri"
	"fcpn/internal/rtos"
	"fcpn/internal/timing"
)

// CostPerturber perturbs the kernel cost model per dispatch (task
// overruns). fault.CostJitter is the standard implementation; the
// interface keeps sim decoupled from the fault package.
type CostPerturber interface {
	Perturb(base rtos.CostModel, dispatch int64) rtos.CostModel
}

// RobustConfig parameterises a RunRobust run: a bounded ingress queue, a
// deadline watchdog, per-dispatch cost jitter, a step budget, static
// buffer bounds to verify at runtime, and the functional baseline's
// scheduler cascade. The zero value is the idealised run RunQSS makes.
type RobustConfig struct {
	// CyclesPerTick converts workload timestamps into cycles (default 1).
	CyclesPerTick int64
	// Queue bounds event ingress; Capacity <= 0 keeps the idealised
	// unbounded queue.
	Queue rtos.QueueConfig
	// Deadline, in cycles, is the watchdog's per-event response budget;
	// 0 disables deadline accounting.
	Deadline int64
	// Jitter, when set, perturbs the cost model per dispatch.
	Jitter CostPerturber
	// StepBudget caps total interpreter ops; exceeding it terminates the
	// run with an error wrapping core.ErrBudgetExceeded (default 1 << 26).
	StepBudget int
	// Limits are sound per-place token bounds (entries < 0 are
	// unchecked). Peaks above a limit count as BoundViolations. Use
	// StructuralLimits for bounds valid under any interleaving.
	Limits []int
	// CycleLimits are the schedule's per-cycle buffer bounds
	// (Schedule.BufferBounds). Peaks above them are reported as
	// CycleExceedances — expected under overload backlog, hence
	// informational, not violations.
	CycleLimits []int
	// Modular runs the functional baseline's dynamic scheduler cascade
	// after each event.
	Modular bool
	// MK, when enabled, checks the run's deadline hit/miss stream (the
	// watchdog's Observe outcomes) against the weakly-hard (m,k)
	// constraint; the verdict lands in RobustMetrics.Timing. With
	// Deadline == 0 the watchdog is disabled, every event counts as a
	// hit, and the verdict is trivially satisfied.
	MK timing.Constraint
}

// PlaceBound records one place whose observed peak counter passed a
// static bound.
type PlaceBound struct {
	Place    petri.Place
	Name     string
	Observed int
	Bound    int
}

func (b PlaceBound) String() string {
	return fmt.Sprintf("%s: observed %d > bound %d", b.Name, b.Observed, b.Bound)
}

// RobustMetrics extends Metrics with the robustness layer's observations.
type RobustMetrics struct {
	Metrics
	// RejectedEvents counts arrivals refused under the Reject policy
	// (DroppedEvents counts both kinds of loss).
	RejectedEvents int64
	// ResponseMax/ResponseAvg summarise response times (queueing delay +
	// service) in cycles; WorstOverrun is the largest excess past the
	// deadline.
	ResponseMax, ResponseAvg, WorstOverrun int64
	// CPUBusy and Makespan describe the timeline in cycles.
	CPUBusy, Makespan int64
	// PeakCounters[p] is the per-place peak token count observed.
	PeakCounters []int
	// Violations details every BoundViolations entry (sorted by place).
	Violations []PlaceBound
	// CycleExceedances lists places whose peak passed the per-cycle
	// schedule bound: backlog buffering beyond one cycle, the graceful
	// degradation signal under overload.
	CycleExceedances []PlaceBound
	// Steps is the interpreter op count; BudgetExhausted reports whether
	// the run was cut off by the step budget.
	Steps           int
	BudgetExhausted bool
	// Timing is the weakly-hard (m,k) verdict over the served events'
	// hit/miss stream; nil unless RobustConfig.MK is enabled.
	Timing *timing.Verdict
}

// StructuralLimits derives sound per-place token bounds from the net's
// P-invariants: for any reachable marking — under any event interleaving,
// duplication or loss — a place covered by an invariant cannot exceed its
// bound. Places with no invariant cover get -1 (unchecked). These are the
// bounds RunRobust verifies as BoundViolations: a violation disproves the
// schedulability theorem's bounded-memory claim (or reveals a broken
// implementation), so valid schedules must report zero.
func StructuralLimits(n *petri.Net) ([]int, error) {
	pis, err := invariant.PInvariants(n, invariant.Options{})
	if err != nil {
		return nil, fmt.Errorf("sim: structural limits: %w", err)
	}
	return invariant.StructuralBounds(n, pis), nil
}

// ScheduleLimits returns the schedule's per-cycle buffer bounds — the
// paper's statically allocatable buffer sizes. They are exact for
// single-cycle run-to-completion execution and are reported as
// CycleExceedances (not violations) when cross-event backlog passes them.
func ScheduleLimits(s *core.Schedule) ([]int, error) { return s.BufferBounds() }

const defaultStepBudget = 1 << 26

// RunRobust is the simulator's event loop. It drives a program against a
// (possibly fault-injected) workload on a single CPU with real arrival
// times, a bounded ingress queue, an optional deadline watchdog and
// per-dispatch cost jitter, verifying observed per-place peaks against
// static buffer bounds. Events serve in stable time order: ties keep
// their input order. Each event's interrupt is charged to Cycles when
// the event is admitted and does not advance the clock; its service
// (task activation, body, and the cascade under cfg.Modular) does.
//
// When the step budget runs out, the metrics collected so far are
// returned together with an error wrapping core.ErrBudgetExceeded.
func RunRobust(prog *codegen.Program, events []rtos.Event, cost rtos.CostModel, cfg RobustConfig, hooks Hooks) (*RobustMetrics, error) {
	r := newRunner(prog, cost)
	err := r.run(timeOrdered(events), 1, cfg, hooks, false)
	if err != nil && !errors.Is(err, core.ErrBudgetExceeded) {
		return nil, err
	}
	rm := r.metrics(cfg)
	if err != nil {
		rm.BudgetExhausted = true
		return rm, budgetError(err)
	}
	return rm, nil
}

// budgetError is how a run that exhausted its step budget reports it.
func budgetError(err error) error { return fmt.Errorf("sim: robust run stopped: %w", err) }

// runner is the simulator's state for one program: the interpreter, the
// kernel, the watchdog and the (m,k) monitor a run drives, and what the
// last run observed. RunRobust makes one per run; a margin search keeps
// one and resets it for every probe.
type runner struct {
	prog  *codegen.Program
	cost  rtos.CostModel
	in    *codegen.Interp
	k     rtos.Kernel
	watch rtos.Watchdog
	mon   *timing.Monitor
	mk    timing.Constraint // the constraint mon checks

	service, response cycleStats
	clock             int64
	// stopped reports that the last run ended at its first violating
	// (m,k) window; with record set, responses holds each served event's
	// response time in service order.
	stopped   bool
	record    bool
	responses []int64
}

func newRunner(prog *codegen.Program, cost rtos.CostModel) *runner {
	return &runner{
		prog: prog,
		cost: cost,
		in:   codegen.NewInterp(prog, nil),
		k:    *rtos.NewKernel(cost, len(prog.Tasks)),
	}
}

// reset prepares the runner for a run under cfg, defaults applied.
func (r *runner) reset(cfg RobustConfig, hooks Hooks) {
	r.in.Reset(hooks.Resolver)
	r.in.MaxOps = cfg.StepBudget
	clear(r.k.PerTask)
	r.k = rtos.Kernel{Cost: r.cost, PerTask: r.k.PerTask}
	r.in.OnFire = fireHook(&r.k, hooks)
	// A bounded queue may lose arrivals. An unbounded one never does, so
	// the kernel gets no queue and run serves events straight from the
	// stream it was given. Under overload nearly the whole stream waits
	// at once, and copying it into a queue was a run's largest set-up
	// cost.
	if cfg.Queue.Capacity > 0 {
		r.k.Queue = rtos.NewEventQueue(cfg.Queue)
	}
	if cfg.Deadline > 0 {
		r.watch = rtos.Watchdog{Budget: cfg.Deadline}
		r.k.Watch = &r.watch
	}
	if r.mon == nil || r.mk != cfg.MK {
		r.mon, r.mk = timing.NewMonitor(cfg.MK), cfg.MK
	} else {
		r.mon.Reset()
	}
	r.service, r.response, r.clock, r.stopped = cycleStats{}, cycleStats{}, 0, false
	r.responses = r.responses[:0]
}

// run serves one workload: events, in time order, each arriving copies
// times back to back. With stopAtViolation set, the run ends as soon as
// the (m,k) monitor has latched its first violating window while events
// are still left to serve, and r.stopped reports it: the verdict's
// Satisfied bit is then final, but everything else covers only the
// events served so far. The margin search's probes use it, since
// bisection reads nothing else.
func (r *runner) run(events []rtos.Event, copies int, cfg RobustConfig, hooks Hooks, stopAtViolation bool) error {
	if cfg.CyclesPerTick <= 0 {
		cfg.CyclesPerTick = 1
	}
	if cfg.StepBudget <= 0 {
		cfg.StepBudget = defaultStepBudget
	}
	r.reset(cfg, hooks)
	k, in, mon := &r.k, r.in, r.mon
	next := 0 // index of the next arrival in events
	// Without a queue, events[head] is the next event to serve and
	// served counts its copies already served.
	head, served := 0, 0
	for {
		// Admit every arrival up to the current clock (the interrupt
		// handler runs even while a task occupies the CPU).
		for next < len(events) && events[next].Time*cfg.CyclesPerTick <= r.clock {
			k.Admit(events[next], events[next].Time*cfg.CyclesPerTick, copies)
			next++
		}
		var qe rtos.QueuedEvent
		ok := false
		if k.Queue != nil {
			qe, ok = k.Queue.Pop()
		} else if head < next {
			qe, ok = rtos.QueuedEvent{Ev: events[head], Arrival: events[head].Time * cfg.CyclesPerTick}, true
			if served++; served == copies {
				head, served = head+1, 0
			}
		}
		if !ok {
			if next >= len(events) {
				return nil
			}
			r.clock = events[next].Time * cfg.CyclesPerTick // CPU idles
			continue
		}
		if stopAtViolation && mon.Violated() {
			r.stopped = true
			return nil
		}
		ti := in.SourceTask(qe.Ev.Source)
		if ti < 0 {
			return fmt.Errorf("sim: no task for source %s", r.prog.Net.TransitionName(qe.Ev.Source))
		}
		if hooks.BeforeEvent != nil {
			hooks.BeforeEvent(qe.Ev)
		}
		if cfg.Jitter != nil {
			// Every earlier dispatch completed, so service.n is this
			// dispatch's index.
			k.Cost = cfg.Jitter.Perturb(r.cost, r.service.n)
		}
		start := k.Cycles
		if err := r.serve(ti, qe.Ev.Source, cfg.Modular); err != nil {
			return err
		}
		svc := k.Cycles - start
		r.service.add(svc)
		r.clock += svc
		resp := r.clock - qe.Arrival
		r.response.add(resp)
		if r.record {
			r.responses = append(r.responses, resp)
		}
		miss := k.Complete(resp)
		if miss {
			mon.ObserveOverrun(resp - cfg.Deadline)
		}
		mon.Observe(miss)
	}
}

// metrics reports the last run under cfg.
func (r *runner) metrics(cfg RobustConfig) *RobustMetrics {
	k, in := &r.k, r.in
	perTask := make(map[string]int64)
	for ti, n := range k.PerTask {
		if n > 0 {
			perTask[r.prog.Tasks[ti].Task.Name] += n
		}
	}
	rm := &RobustMetrics{
		Metrics: Metrics{
			Cycles:      k.Cycles,
			Activations: k.Activations,
			Polls:       k.Polls,
			Events:      int(r.service.n),
			Fired:       append([]int(nil), in.Stats.Fired...),
			MaxCounter:  in.Stats.MaxCounter,
			PerTask:     perTask,
			LatencyMax:  r.service.max,
			LatencyAvg:  r.service.avg(),
		},
		ResponseMax:  r.response.max,
		ResponseAvg:  r.response.avg(),
		CPUBusy:      r.service.sum,
		Makespan:     r.clock,
		PeakCounters: append([]int(nil), in.Stats.MaxCounters...),
		Steps:        in.Stats.Ops,
		Timing:       r.mon.Verdict(),
	}
	if k.Queue != nil {
		rm.DroppedEvents = k.Queue.Lost()
		rm.RejectedEvents = k.Queue.Rejected
	}
	if k.Watch != nil {
		rm.DeadlineMisses = k.Watch.Misses
		rm.WorstOverrun = k.Watch.WorstOverrun
	}
	rm.Violations = boundCheck(r.prog.Net, rm.PeakCounters, cfg.Limits)
	rm.BoundViolations = len(rm.Violations)
	rm.CycleExceedances = boundCheck(r.prog.Net, rm.PeakCounters, cfg.CycleLimits)
	return rm
}

// timeOrdered returns the events in stable time order. The workload and
// every injector emit ordered streams, so the copy and the sort are only
// paid for input that needs them.
func timeOrdered(events []rtos.Event) []rtos.Event {
	for i := 1; i < len(events); i++ {
		if events[i].Time < events[i-1].Time {
			ordered := append([]rtos.Event(nil), events...)
			sort.SliceStable(ordered, func(a, b int) bool { return ordered[a].Time < ordered[b].Time })
			return ordered
		}
	}
	return events
}

// serve dispatches one admitted event: it activates task ti and runs
// src's body, then, when modular is set, the functional baseline's
// dynamic scheduler keeps examining the module tasks until a full pass
// makes no progress. A task that fires pays an activation, an idle one a
// poll. Firings and ops are charged once, after the cascade, and not at
// all when a dispatch fails, so a run cut off by its step budget reports
// the charges of the events it finished.
func (r *runner) serve(ti int, src petri.Transition, modular bool) error {
	k, in := &r.k, r.in
	k.Activate(ti)
	beforeFired, beforeOps := in.Stats.Firings, in.Stats.Ops
	if err := in.RunSource(src); err != nil {
		return err
	}
	for progress := modular; progress; {
		progress = false
		for mi := range r.prog.Tasks {
			fired, err := in.RunTask(mi)
			if err != nil {
				return err
			}
			if fired {
				k.Activate(mi)
				progress = true
			} else {
				k.Poll()
			}
		}
	}
	k.ChargeFirings(int64(in.Stats.Firings - beforeFired))
	k.ChargeOps(int64(in.Stats.Ops - beforeOps))
	return nil
}

// boundCheck compares per-place peaks against limits (entries < 0 are
// unchecked), returning the offenders sorted by place index.
func boundCheck(n *petri.Net, peaks, limits []int) []PlaceBound {
	if limits == nil {
		return nil
	}
	var out []PlaceBound
	for p := 0; p < n.NumPlaces() && p < len(limits) && p < len(peaks); p++ {
		if limits[p] < 0 {
			continue
		}
		if peaks[p] > limits[p] {
			out = append(out, PlaceBound{
				Place:    petri.Place(p),
				Name:     n.PlaceName(petri.Place(p)),
				Observed: peaks[p],
				Bound:    limits[p],
			})
		}
	}
	return out
}
