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
	rm, _, err := runRobust(prog, events, cost, cfg, hooks, false)
	return rm, err
}

// runRobust is RunRobust's event loop. With stopAtViolation set, the run
// ends as soon as the (m,k) monitor has latched its first violating
// window while events are still left to serve, and stopped reports it:
// the verdict's Satisfied bit is then final, but every metric covers
// only the events served so far. The margin search's probes use it,
// since bisection reads nothing else.
func runRobust(prog *codegen.Program, events []rtos.Event, cost rtos.CostModel, cfg RobustConfig, hooks Hooks, stopAtViolation bool) (*RobustMetrics, bool, error) {
	if cfg.CyclesPerTick <= 0 {
		cfg.CyclesPerTick = 1
	}
	if cfg.StepBudget <= 0 {
		cfg.StepBudget = defaultStepBudget
	}

	ordered := timeOrdered(events)
	in := codegen.NewInterp(prog, hooks.Resolver)
	in.MaxOps = cfg.StepBudget
	k := rtos.NewKernel(cost)
	in.OnFire = fireHook(k, hooks)
	// A bounded queue may lose arrivals. An unbounded one never does, so
	// it would hold exactly ordered[head:next]: the kernel gets no queue
	// and events are served straight from ordered. Under overload nearly
	// the whole stream waits at once, and copying it was the run's
	// largest set-up cost.
	if cfg.Queue.Capacity > 0 {
		k.Queue = rtos.NewEventQueue(cfg.Queue)
	}
	if cfg.Deadline > 0 {
		k.Watch = &rtos.Watchdog{Budget: cfg.Deadline}
	}
	mon := timing.NewMonitor(cfg.MK)

	var clock int64
	var service, response cycleStats
	next := 0 // index of the next arrival in ordered
	head := 0 // index of the next event to serve, without a queue
	stopped := false
	var runErr error
	for {
		// Admit every arrival up to the current clock (the interrupt
		// handler runs even while a task occupies the CPU).
		for next < len(ordered) && ordered[next].Time*cfg.CyclesPerTick <= clock {
			k.Admit(ordered[next], ordered[next].Time*cfg.CyclesPerTick)
			next++
		}
		var qe rtos.QueuedEvent
		ok := false
		if k.Queue != nil {
			qe, ok = k.Queue.Pop()
		} else if head < next {
			qe, ok = rtos.QueuedEvent{Ev: ordered[head], Arrival: ordered[head].Time * cfg.CyclesPerTick}, true
			head++
		}
		if !ok {
			if next >= len(ordered) {
				break
			}
			clock = ordered[next].Time * cfg.CyclesPerTick // CPU idles
			continue
		}
		if stopAtViolation && mon.Violated() {
			stopped = true
			break
		}
		ti := prog.TaskBySource(qe.Ev.Source)
		if ti < 0 {
			return nil, false, fmt.Errorf("sim: no task for source %s", prog.Net.TransitionName(qe.Ev.Source))
		}
		if hooks.BeforeEvent != nil {
			hooks.BeforeEvent(qe.Ev)
		}
		if cfg.Jitter != nil {
			// Every earlier dispatch completed, so service.n is this
			// dispatch's index.
			k.Cost = cfg.Jitter.Perturb(cost, service.n)
		}
		start := k.Cycles
		if runErr = serveEvent(prog, in, k, ti, qe.Ev.Source, cfg.Modular); runErr != nil {
			break
		}
		svc := k.Cycles - start
		service.add(svc)
		clock += svc
		resp := clock - qe.Arrival
		response.add(resp)
		miss := k.Complete(resp)
		if miss {
			mon.ObserveOverrun(resp - cfg.Deadline)
		}
		mon.Observe(miss)
	}

	rm := &RobustMetrics{
		Metrics: Metrics{
			Cycles:      k.Cycles,
			Activations: k.Activations,
			Polls:       k.Polls,
			Events:      int(service.n),
			Fired:       append([]int(nil), in.Stats.Fired...),
			MaxCounter:  in.Stats.MaxCounter,
			PerTask:     k.PerTask,
			LatencyMax:  service.max,
			LatencyAvg:  service.avg(),
		},
		ResponseMax:  response.max,
		ResponseAvg:  response.avg(),
		CPUBusy:      service.sum,
		Makespan:     clock,
		PeakCounters: append([]int(nil), in.Stats.MaxCounters...),
		Steps:        in.Stats.Ops,
		Timing:       mon.Verdict(),
	}
	if k.Queue != nil {
		rm.DroppedEvents = k.Queue.Lost()
		rm.RejectedEvents = k.Queue.Rejected
	}
	if k.Watch != nil {
		rm.DeadlineMisses = k.Watch.Misses
		rm.WorstOverrun = k.Watch.WorstOverrun
	}
	rm.Violations = boundCheck(prog.Net, rm.PeakCounters, cfg.Limits)
	rm.BoundViolations = len(rm.Violations)
	rm.CycleExceedances = boundCheck(prog.Net, rm.PeakCounters, cfg.CycleLimits)

	if runErr != nil {
		if errors.Is(runErr, core.ErrBudgetExceeded) {
			rm.BudgetExhausted = true
			return rm, false, fmt.Errorf("sim: robust run stopped: %w", runErr)
		}
		return nil, false, runErr
	}
	return rm, stopped, nil
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

// serveEvent dispatches one admitted event: it activates the source's
// task and runs the source body, then, when modular is set, the
// functional baseline's dynamic scheduler keeps examining the module
// tasks until a full pass makes no progress. A task that fires pays an
// activation, an idle one a poll. Firings and ops are charged once,
// after the cascade, and not at all when a dispatch fails, so a run cut
// off by its step budget reports the charges of the events it finished.
func serveEvent(prog *codegen.Program, in *codegen.Interp, k *rtos.Kernel, ti int, src petri.Transition, modular bool) error {
	k.Activate(prog.Tasks[ti].Task.Name)
	beforeFired, beforeOps := in.Stats.Firings, in.Stats.Ops
	if err := in.RunSource(src); err != nil {
		return err
	}
	for progress := modular; progress; {
		progress = false
		for mi := range prog.Tasks {
			fired, err := in.RunTask(mi)
			if err != nil {
				return err
			}
			if fired {
				k.Activate(prog.Tasks[mi].Task.Name)
				progress = true
			} else {
				k.Poll(prog.Tasks[mi].Task.Name)
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
