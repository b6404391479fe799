// Package fault perturbs RTOS workloads deterministically: seedable
// injectors rewrite an event stream (bursts, duplicates, losses, timer
// jitter) and a cost-jitter model perturbs the kernel cost model per
// dispatch (task overruns).
//
// The paper's guarantee — a valid quasi-static schedule implies bounded
// memory and run-to-completion tasks — is proved for the net, not for the
// environment. The injectors model a hostile environment so the simulator
// (internal/sim) can check the guarantee *executably*: statically computed
// buffer bounds must hold under any legal firing sequence, however the
// input events arrive. Everything here is a pure function of (input
// stream, seed); the same seed reproduces the same perturbed workload
// byte-for-byte, which the robustness reports rely on.
package fault

import (
	"fmt"
	"sort"

	"fcpn/internal/petri"
	"fcpn/internal/rtos"
)

// AnySource matches every event source in an injector filter.
const AnySource = petri.Transition(-1)

// Rand is a small deterministic generator (splitmix64). Injectors draw
// from it in a fixed order, so a Scenario's output depends only on the
// input stream and the seed.
type Rand struct{ state uint64 }

// NewRand seeds a generator. The zero seed is remapped so the stream is
// never the all-zero fixed point.
func NewRand(seed uint64) *Rand {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &Rand{state: seed}
}

// Uint64 returns the next value of the splitmix64 sequence.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Intn returns a value in [0, n); n must be positive.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("fault: Intn(%d)", n))
	}
	return int(r.Uint64() % uint64(n))
}

// Pct returns a value in [0, 100), for percentage draws.
func (r *Rand) Pct() int { return r.Intn(100) }

// Injector rewrites an event stream. Apply must not mutate its input and
// must draw randomness only from r.
type Injector interface {
	// Apply returns the perturbed stream, time-ordered.
	Apply(events []rtos.Event, r *Rand) []rtos.Event
}

func matches(filter petri.Transition, ev rtos.Event) bool {
	return filter == AnySource || ev.Source == filter
}

// Burst turns selected events into back-to-back arrival bursts: Extra
// copies of the event are inserted at the same timestamp, modelling an
// interrupt storm or a device retrying faster than the service rate.
type Burst struct {
	// Pct is the percentage of matching events that burst.
	Pct int
	// Extra is the number of additional copies per bursting event.
	Extra int
	// Source restricts the injector to one event source (AnySource = all).
	Source petri.Transition
}

// Apply implements Injector.
func (b Burst) Apply(events []rtos.Event, r *Rand) []rtos.Event {
	// Size for the worst case (every matching event bursts) up front: the
	// margin bisection applies injectors thousands of times, and growing
	// the slice inside the loop dominated its profile.
	worst := len(events)
	if b.Pct > 0 && b.Extra > 0 {
		worst += len(events) * b.Extra
	}
	out := make([]rtos.Event, 0, worst)
	for _, ev := range events {
		out = append(out, ev)
		if !matches(b.Source, ev) || r.Pct() >= b.Pct {
			continue
		}
		for i := 0; i < b.Extra; i++ {
			out = append(out, ev)
		}
	}
	return out
}

// Duplicate re-delivers selected events once (the duplicated-interrupt /
// at-least-once delivery fault).
type Duplicate struct {
	Pct    int
	Source petri.Transition
}

// Apply implements Injector.
func (d Duplicate) Apply(events []rtos.Event, r *Rand) []rtos.Event {
	out := make([]rtos.Event, 0, len(events))
	for _, ev := range events {
		out = append(out, ev)
		if matches(d.Source, ev) && r.Pct() < d.Pct {
			out = append(out, ev)
		}
	}
	return out
}

// Drop removes selected events (event loss: a missed interrupt or an
// overrun input latch).
type Drop struct {
	Pct    int
	Source petri.Transition
}

// Apply implements Injector.
func (d Drop) Apply(events []rtos.Event, r *Rand) []rtos.Event {
	out := make([]rtos.Event, 0, len(events))
	for _, ev := range events {
		if matches(d.Source, ev) && r.Pct() < d.Pct {
			continue
		}
		out = append(out, ev)
	}
	return out
}

// JitterTicks perturbs the timestamps of matching events by a uniform
// offset in [-Window, +Window] and re-sorts the stream, reordering timer
// ticks relative to the other inputs (clock drift / deferred timer ISR).
// Times never go negative.
type JitterTicks struct {
	Window int64
	Source petri.Transition
}

// Apply implements Injector.
func (j JitterTicks) Apply(events []rtos.Event, r *Rand) []rtos.Event {
	out := append([]rtos.Event(nil), events...)
	if j.Window <= 0 {
		return out
	}
	span := 2*j.Window + 1
	for i := range out {
		if !matches(j.Source, out[i]) {
			continue
		}
		t := out[i].Time + int64(r.Intn(int(span))) - j.Window
		if t < 0 {
			t = 0
		}
		out[i].Time = t
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].Time < out[b].Time })
	return out
}

// Scenario is one named, seeded fault configuration: the injectors run in
// order over a fresh Rand(Seed), so applying the same scenario to the
// same stream always yields the same perturbed stream.
type Scenario struct {
	Name      string
	Seed      uint64
	Injectors []Injector
}

// Apply runs the scenario's injector chain over the stream.
func (s Scenario) Apply(events []rtos.Event) []rtos.Event {
	r := NewRand(s.Seed)
	out := append([]rtos.Event(nil), events...)
	for _, inj := range s.Injectors {
		out = inj.Apply(out, r)
	}
	return out
}

// BurstScenarios builds n seeded event-burst scenarios (the adversarial
// workload of the robustness acceptance check): each bursts pct% of
// matching events with extra back-to-back copies.
func BurstScenarios(n int, baseSeed uint64, src petri.Transition, pct, extra int) []Scenario {
	out := make([]Scenario, n)
	for i := range out {
		out[i] = Scenario{
			Name:      fmt.Sprintf("burst-%02d", i+1),
			Seed:      scenarioSeed(baseSeed, i),
			Injectors: []Injector{Burst{Pct: pct, Extra: extra, Source: src}},
		}
	}
	return out
}

// DefaultScenarios builds n mixed scenarios cycling through the injector
// catalogue: bursts, duplicates, losses, tick jitter, and a combined
// burst+loss case.
func DefaultScenarios(n int, baseSeed uint64) []Scenario {
	out := make([]Scenario, n)
	for i := range out {
		seed := scenarioSeed(baseSeed, i)
		var injs []Injector
		var kind string
		switch i % 5 {
		case 0:
			kind, injs = "burst", []Injector{Burst{Pct: 30, Extra: 3, Source: AnySource}}
		case 1:
			kind, injs = "duplicate", []Injector{Duplicate{Pct: 25, Source: AnySource}}
		case 2:
			kind, injs = "drop", []Injector{Drop{Pct: 20, Source: AnySource}}
		case 3:
			kind, injs = "jitter", []Injector{JitterTicks{Window: 7, Source: AnySource}}
		default:
			kind, injs = "burst+drop", []Injector{
				Burst{Pct: 20, Extra: 2, Source: AnySource},
				Drop{Pct: 15, Source: AnySource},
			}
		}
		out[i] = Scenario{
			Name:      fmt.Sprintf("%s-%02d", kind, i+1),
			Seed:      seed,
			Injectors: injs,
		}
	}
	return out
}

func scenarioSeed(base uint64, i int) uint64 {
	r := NewRand(base ^ (uint64(i)+1)*0xD1342543DE82EF95)
	return r.Uint64()
}
