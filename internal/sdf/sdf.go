// Package sdf implements Synchronous Dataflow (SDF) static scheduling after
// Lee & Messerschmitt ("Static scheduling of synchronous data flow programs
// for digital signal processing", IEEE ToC 1987): repetition vectors from
// the balance equations, periodic admissible sequential schedules (PASS)
// built by demand-driven simulation, and buffer-bound computation.
//
// SDF graphs are the special case of Petri nets that are marked graphs
// (Section 2 of Sgroi et al.); the same simulation engine statically
// schedules each conflict-free T-reduction of the QSS algorithm.
package sdf

import (
	"errors"
	"fmt"
	"strings"

	"fcpn/internal/linalg"
	"fcpn/internal/petri"
	"fcpn/internal/trace"
)

// Actor is an SDF computation node.
type Actor struct {
	Name string
}

// Channel is a FIFO arc between actors: the producer writes Produce tokens
// per firing, the consumer reads Consume tokens per firing, and Delay
// initial tokens are present.
type Channel struct {
	From, To         int // actor indices
	Produce, Consume int
	Delay            int
}

// Graph is an SDF graph.
type Graph struct {
	Actors   []Actor
	Channels []Channel
}

// NewGraph returns an empty SDF graph.
func NewGraph() *Graph { return &Graph{} }

// AddActor appends an actor and returns its index.
func (g *Graph) AddActor(name string) int {
	g.Actors = append(g.Actors, Actor{Name: name})
	return len(g.Actors) - 1
}

// Connect adds a channel from actor a to actor b with the given rates and
// initial delay tokens.
func (g *Graph) Connect(a, b, produce, consume, delay int) error {
	if a < 0 || a >= len(g.Actors) || b < 0 || b >= len(g.Actors) {
		return fmt.Errorf("sdf: actor index out of range (%d -> %d)", a, b)
	}
	if produce <= 0 || consume <= 0 || delay < 0 {
		return fmt.Errorf("sdf: invalid rates produce=%d consume=%d delay=%d", produce, consume, delay)
	}
	g.Channels = append(g.Channels, Channel{a, b, produce, consume, delay})
	return nil
}

// ErrInconsistent is returned when the balance equations only have the
// trivial solution: the graph has no periodic schedule.
var ErrInconsistent = errors.New("sdf: graph is not sample-rate consistent")

// ErrDeadlock is returned when the repetition vector exists but simulation
// cannot complete one period (insufficient delays on a cycle).
var ErrDeadlock = errors.New("sdf: deadlock, insufficient initial tokens")

// RepetitionVector solves the balance equations
// q[from]·produce = q[to]·consume for every channel and returns the
// smallest positive integer solution. Disconnected graphs are handled per
// weakly-connected component (each normalised independently).
func (g *Graph) RepetitionVector() ([]int, error) { return g.RepetitionVectorTraced(nil) }

// RepetitionVectorTraced is RepetitionVector with the balance-equation
// solve's exact-arithmetic tier residency recorded on tr (the
// "linalg/int64" detail phase, plus "linalg/bigint" when the int64 tier
// overflows); a nil tracer disables collection.
func (g *Graph) RepetitionVectorTraced(tr *trace.Tracer) ([]int, error) {
	n := len(g.Actors)
	if n == 0 {
		return nil, nil
	}
	// Build one equation per channel over the q variables. Self-loops
	// contribute produce−consume to a single cell, as they should.
	sys := linalg.NewSystem(len(g.Channels), n)
	for i, c := range g.Channels {
		sys.Add(i, c.From, int64(c.Produce))
		sys.Add(i, c.To, -int64(c.Consume))
	}
	flows, err := linalg.Semiflows(sys, 0, tr)
	var wide *linalg.BigSemiflowError
	switch {
	case errors.As(err, &wide):
		return nil, errors.New("sdf: repetition vector overflows int")
	case err != nil:
		return nil, errors.New("sdf: balance system too large")
	}
	// The repetition vector is the smallest positive combination covering
	// every actor. A channel's balance equation makes its two actors both
	// zero or both positive, so each connected component carries at most
	// one minimal semiflow, covering all of it: the supports are
	// disjoint and the sum cannot overflow.
	counts := make([]int, n)
	for _, f := range flows {
		for i, x := range f {
			counts[i] += x
		}
	}
	for _, q := range counts {
		if q == 0 {
			return nil, ErrInconsistent
		}
	}
	return counts, nil
}

// Schedule computes a PASS: a firing order in which each actor i appears
// exactly q[i] times and every firing has sufficient input tokens. The
// construction is Lee's demand-free simulation: repeatedly fire any actor
// with remaining count whose input channels hold enough tokens; if none
// can fire before all counts are exhausted, the graph deadlocks.
func (g *Graph) Schedule() ([]int, error) {
	q, err := g.RepetitionVector()
	if err != nil {
		return nil, err
	}
	return g.scheduleWith(q)
}

func (g *Graph) scheduleWith(q []int) ([]int, error) {
	remaining := append([]int(nil), q...)
	tokens := make([]int, len(g.Channels))
	for i, c := range g.Channels {
		tokens[i] = c.Delay
	}
	inOf := make([][]int, len(g.Actors))
	for i, c := range g.Channels {
		inOf[c.To] = append(inOf[c.To], i)
	}
	canFire := func(a int) bool {
		if remaining[a] == 0 {
			return false
		}
		for _, ci := range inOf[a] {
			if tokens[ci] < g.Channels[ci].Consume {
				return false
			}
		}
		return true
	}
	var order []int
	total := 0
	for _, k := range q {
		total += k
	}
	for len(order) < total {
		fired := false
		for a := range g.Actors {
			if !canFire(a) {
				continue
			}
			for _, ci := range inOf[a] {
				tokens[ci] -= g.Channels[ci].Consume
			}
			for ci, c := range g.Channels {
				if c.From == a {
					tokens[ci] += c.Produce
				}
			}
			remaining[a]--
			order = append(order, a)
			fired = true
		}
		if !fired {
			return nil, fmt.Errorf("%w after %d of %d firings", ErrDeadlock, len(order), total)
		}
	}
	return order, nil
}

// BufferBounds simulates the schedule and reports the maximum token count
// each channel reaches: the statically allocatable buffer sizes.
func (g *Graph) BufferBounds(schedule []int) ([]int, error) {
	tokens := make([]int, len(g.Channels))
	maxTokens := make([]int, len(g.Channels))
	for i, c := range g.Channels {
		tokens[i] = c.Delay
		maxTokens[i] = c.Delay
	}
	for _, a := range schedule {
		for i, c := range g.Channels {
			if c.To == a {
				tokens[i] -= c.Consume
				if tokens[i] < 0 {
					return nil, fmt.Errorf("sdf: schedule underflows channel %d at actor %s", i, g.Actors[a].Name)
				}
			}
		}
		for i, c := range g.Channels {
			if c.From == a {
				tokens[i] += c.Produce
				if tokens[i] > maxTokens[i] {
					maxTokens[i] = tokens[i]
				}
			}
		}
	}
	return maxTokens, nil
}

// Names resolves a schedule to actor names.
func (g *Graph) Names(schedule []int) []string {
	out := make([]string, len(schedule))
	for i, a := range schedule {
		out[i] = g.Actors[a].Name
	}
	return out
}

// ToPetri converts the SDF graph to its marked-graph Petri net: one
// transition per actor, one place per channel, arc weights from the rates,
// initial marking from the delays.
func (g *Graph) ToPetri(name string) *petri.Net {
	b := petri.NewBuilder(name)
	trans := make([]petri.Transition, len(g.Actors))
	used := map[string]int{}
	for i, a := range g.Actors {
		nm := a.Name
		if c := used[nm]; c > 0 {
			nm = fmt.Sprintf("%s_%d", nm, c)
		}
		used[a.Name]++
		trans[i] = b.Transition(nm)
	}
	for i, c := range g.Channels {
		p := b.MarkedPlace(fmt.Sprintf("ch%d_%s_%s", i, g.Actors[c.From].Name, g.Actors[c.To].Name), c.Delay)
		b.WeightedArcTP(trans[c.From], p, c.Produce)
		b.WeightedArc(p, trans[c.To], c.Consume)
	}
	return b.Build()
}

// FromPetri converts a marked-graph Petri net into an SDF graph. Places
// with missing producer or consumer (environment buffers) are skipped: the
// SDF view covers the closed dataflow core. An error is returned when the
// net is not a marked graph.
func FromPetri(n *petri.Net) (*Graph, error) {
	if !n.IsMarkedGraph() {
		return nil, fmt.Errorf("sdf: net %q is not a marked graph", n.Name())
	}
	g := NewGraph()
	for _, t := range n.Transitions() {
		g.AddActor(n.TransitionName(t))
	}
	init := n.InitialMarking()
	for _, p := range n.Places() {
		prod := n.Producers(p)
		cons := n.Consumers(p)
		if len(prod) != 1 || len(cons) != 1 {
			continue
		}
		if err := g.Connect(int(prod[0].Transition), int(cons[0].Transition),
			prod[0].Weight, cons[0].Weight, init[p]); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// FlatSchedule renders a schedule as a space-separated actor-name string,
// useful for golden tests.
func (g *Graph) FlatSchedule(schedule []int) string {
	return strings.Join(g.Names(schedule), " ")
}
