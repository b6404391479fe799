// Package spec is a specification frontend for the synthesis flow: a
// concurrent process network with data-dependent control, in the style of
// the medium-grained functional decompositions the paper's introduction
// describes (SDL-like processes, dataflow actors with if-then-else).
// A System compiles into a Free-Choice Petri Net accepted by the scheduler.
//
// A system has environment inputs (compiled to source transitions),
// channels (places), and processes. A process is a straight-line reactive
// body: it is triggered by receiving from an input or channel and then
// runs computations, sends to channels, branches on data (If) and performs
// fixed-count loops (Repeat, compiled to multirate arc weights exactly as
// the paper's Figure 4). Unbounded data-dependent loops are deliberately
// not expressible: they admit no finite complete cycle, so no valid
// quasi-static schedule exists for them.
package spec

import (
	"fmt"

	"fcpn/internal/petri"
)

// ChannelID identifies a declared channel or input stream.
type ChannelID int

// System is a specification under construction.
type System struct {
	name      string
	channels  []channelDecl
	processes []*Process
	inputs    map[ChannelID]bool
	outputs   map[ChannelID]bool
}

type channelDecl struct {
	name string
}

// NewSystem starts an empty specification.
func NewSystem(name string) *System {
	return &System{
		name:    name,
		inputs:  map[ChannelID]bool{},
		outputs: map[ChannelID]bool{},
	}
}

// Input declares an environment input stream (an interrupt, a timer, a
// sensor): it compiles to a source transition feeding a place.
func (s *System) Input(name string) ChannelID {
	id := s.addChannel(name)
	s.inputs[id] = true
	return id
}

// Channel declares an internal channel between processes.
func (s *System) Channel(name string) ChannelID {
	return s.addChannel(name)
}

// Output declares an environment output stream: tokens sent to it are
// consumed by an implicit sink transition (the environment), so they never
// accumulate.
func (s *System) Output(name string) ChannelID {
	id := s.addChannel(name)
	s.outputs[id] = true
	return id
}

func (s *System) addChannel(name string) ChannelID {
	s.channels = append(s.channels, channelDecl{name: name})
	return ChannelID(len(s.channels) - 1)
}

// Process declares a process; populate its body with the returned handle.
func (s *System) Process(name string) *Process {
	p := &Process{name: name}
	s.processes = append(s.processes, p)
	return p
}

// Stmt is one statement of a process body.
type Stmt interface{ stmt() }

type recvStmt struct {
	ch ChannelID
	k  int
}
type sendStmt struct {
	ch ChannelID
	k  int
}
type runStmt struct {
	name string
}
type ifStmt struct {
	name     string
	branches [][]Stmt
	labels   []string
}
type repeatStmt struct {
	k    int
	body []Stmt
}
type parStmt struct {
	name     string
	branches [][]Stmt
}

func (recvStmt) stmt()   {}
func (sendStmt) stmt()   {}
func (runStmt) stmt()    {}
func (ifStmt) stmt()     {}
func (repeatStmt) stmt() {}
func (parStmt) stmt()    {}

// Process is a reactive sequential body.
type Process struct {
	name string
	body []Stmt
}

// Receive consumes one token from a channel or input. The first statement
// of every process must be a Receive: it is the activation trigger.
func (p *Process) Receive(ch ChannelID) *Process {
	p.body = append(p.body, recvStmt{ch: ch, k: 1})
	return p
}

// ReceiveN consumes k tokens at once (a blocking read of k items).
func (p *Process) ReceiveN(ch ChannelID, k int) *Process {
	p.body = append(p.body, recvStmt{ch: ch, k: k})
	return p
}

// Run adds a computation step (one transition).
func (p *Process) Run(name string) *Process {
	p.body = append(p.body, runStmt{name: name})
	return p
}

// Send produces one token into a channel or output.
func (p *Process) Send(ch ChannelID) *Process {
	p.body = append(p.body, sendStmt{ch: ch, k: 1})
	return p
}

// SendN produces k tokens at once.
func (p *Process) SendN(ch ChannelID, k int) *Process {
	p.body = append(p.body, sendStmt{ch: ch, k: k})
	return p
}

// Branch is one alternative of an If.
type Branch struct {
	Label string
	Body  func(*Process)
}

// If adds a data-dependent branch: at run time the value decides which
// alternative executes; the branches re-join afterwards. It compiles to a
// free-choice place. Each branch needs at least one Run (the choice's
// transition).
func (p *Process) If(name string, branches ...Branch) *Process {
	st := ifStmt{name: name}
	for _, br := range branches {
		sub := &Process{}
		br.Body(sub)
		st.branches = append(st.branches, sub.body)
		st.labels = append(st.labels, br.Label)
	}
	p.body = append(p.body, st)
	return p
}

// Repeat executes body exactly k times per activation, compiled to
// multirate arc weights (the Figure 4 pattern); k must be ≥ 1.
func (p *Process) Repeat(k int, body func(*Process)) *Process {
	sub := &Process{}
	body(sub)
	p.body = append(p.body, repeatStmt{k: k, body: sub.body})
	return p
}

// Par executes every branch once per activation — a fork–join: the
// preceding step forks one token per branch; the following step
// synchronises on all of them. Each branch must start with a Run.
func (p *Process) Par(name string, branches ...func(*Process)) *Process {
	st := parStmt{name: name}
	for _, br := range branches {
		sub := &Process{}
		br(sub)
		st.branches = append(st.branches, sub.body)
	}
	p.body = append(p.body, st)
	return p
}

// Compile lowers the system to a Free-Choice Petri Net and validates it.
func (s *System) Compile() (*petri.Net, error) {
	c := &compiler{sys: s, b: petri.NewBuilder(s.name)}
	if err := c.run(); err != nil {
		return nil, err
	}
	n := c.b.Build()
	if err := n.Validate(); err != nil {
		return nil, fmt.Errorf("spec: compiled net invalid: %w", err)
	}
	return n, nil
}

type compiler struct {
	sys      *System
	b        *petri.Builder
	chPlaces []petri.Place
	uniq     int
}

func (c *compiler) fresh(prefix string) string {
	c.uniq++
	return fmt.Sprintf("%s_%d", prefix, c.uniq)
}

func (c *compiler) run() error {
	s := c.sys
	if len(s.processes) == 0 {
		return fmt.Errorf("spec: system %q has no processes", s.name)
	}
	// Channels become places; inputs gain source transitions; outputs
	// gain sink transitions. Both loops walk the channels in ChannelID
	// order, so the same system always compiles to the same net indices.
	c.chPlaces = make([]petri.Place, len(s.channels))
	for i, ch := range s.channels {
		c.chPlaces[i] = c.b.Place("ch_" + ch.name)
	}
	for id, ch := range s.channels {
		if s.inputs[ChannelID(id)] {
			src := c.b.Transition(ch.name)
			c.b.ArcTP(src, c.chPlaces[id])
		}
	}
	for id, ch := range s.channels {
		if s.outputs[ChannelID(id)] {
			sink := c.b.Transition("env_" + ch.name)
			c.b.Arc(c.chPlaces[id], sink)
		}
	}
	for _, p := range s.processes {
		if err := c.compileProcess(p); err != nil {
			return err
		}
	}
	return c.checkChannelUse()
}

// checkChannelUse rejects dangling channels early with clear messages: a
// channel nobody sends to starves its consumers (inconsistent reduction),
// one nobody receives from accumulates tokens (unbounded) — both would
// otherwise surface later as cryptic schedulability failures.
func (c *compiler) checkChannelUse() error {
	n := c.b.Build()
	for id, ch := range c.sys.channels {
		p, _ := n.PlaceByName("ch_" + ch.name)
		producers := len(n.Producers(p))
		consumers := len(n.Consumers(p))
		switch {
		case c.sys.inputs[ChannelID(id)]:
			if consumers == 0 {
				return fmt.Errorf("spec: no process receives from input %q", ch.name)
			}
		case c.sys.outputs[ChannelID(id)]:
			if producers == 0 {
				return fmt.Errorf("spec: no process sends to output %q", ch.name)
			}
		default:
			if producers == 0 {
				return fmt.Errorf("spec: no process sends to channel %q", ch.name)
			}
			if consumers == 0 {
				return fmt.Errorf("spec: no process receives from channel %q", ch.name)
			}
		}
	}
	return nil
}

// compileProcess lowers one body. The body is a pipeline: each Run is a
// transition; consecutive transitions are linked by fresh places; Receive
// attaches channel consumption to the *next* transition, Send attaches
// production to the *previous* one.
func (c *compiler) compileProcess(p *Process) error {
	if len(p.body) == 0 {
		return fmt.Errorf("spec: process %q has an empty body", p.name)
	}
	if _, ok := p.body[0].(recvStmt); !ok {
		return fmt.Errorf("spec: process %q must start with Receive (its activation trigger)", p.name)
	}
	_, err := c.compileSeq(p.name, p.body, nil, nil)
	return err
}

// pendingIn carries channel reads to attach to the next transition.
type pendingIn struct {
	place  petri.Place
	weight int
}

// compileSeq compiles a statement list. prev is the transition the
// sequence continues from (nil at process start); pending are reads to be
// attached to the next transition. It returns every transition the
// sequence can end at (several when the last statement is an If).
func (c *compiler) compileSeq(proc string, body []Stmt, prev *petri.Transition, pending []pendingIn) ([]petri.Transition, error) {
	link := func(t petri.Transition) {
		if prev != nil {
			p := c.b.Place(c.fresh("p_" + proc))
			c.b.ArcTP(*prev, p)
			c.b.Arc(p, t)
		}
		for _, in := range pending {
			c.b.WeightedArc(in.place, t, in.weight)
		}
		prev, pending = &t, nil
	}
	for i := 0; i < len(body); i++ {
		last := i == len(body)-1
		switch st := body[i].(type) {
		case recvStmt:
			if st.k < 1 {
				return nil, fmt.Errorf("spec: process %q: ReceiveN needs k >= 1", proc)
			}
			pending = append(pending, pendingIn{c.chPlaces[st.ch], st.k})
		case sendStmt:
			if st.k < 1 {
				return nil, fmt.Errorf("spec: process %q: SendN needs k >= 1", proc)
			}
			if prev == nil {
				return nil, fmt.Errorf("spec: process %q: Send before any computation", proc)
			}
			c.b.WeightedArcTP(*prev, c.chPlaces[st.ch], st.k)
		case runStmt:
			t := c.b.Transition(st.name)
			link(t)
		case ifStmt:
			if prev == nil {
				return nil, fmt.Errorf("spec: process %q: If before any computation", proc)
			}
			if len(pending) > 0 {
				return nil, fmt.Errorf("spec: process %q: Receive immediately before If is not free-choice; Run a step first", proc)
			}
			if len(st.branches) < 2 {
				return nil, fmt.Errorf("spec: process %q: If %q needs at least two branches", proc, st.name)
			}
			choice := c.b.Place(st.name)
			c.b.ArcTP(*prev, choice)
			// Each branch starts with its own transition consuming the
			// choice place; unless the If ends the sequence, the branches
			// re-join into a merge place consumed by the continuation.
			var ends []petri.Transition
			for bi, branch := range st.branches {
				label := st.labels[bi]
				if label == "" {
					label = fmt.Sprintf("alt%d", bi)
				}
				head := c.b.Transition(st.name + "_" + label)
				c.b.Arc(choice, head)
				ht := head
				branchEnds, err := c.compileSeq(proc, branch, &ht, nil)
				if err != nil {
					return nil, err
				}
				ends = append(ends, branchEnds...)
			}
			if last {
				return ends, nil
			}
			merge := c.b.Place(c.fresh(st.name + "_join"))
			for _, e := range ends {
				c.b.ArcTP(e, merge)
			}
			joinT := c.b.Transition(c.fresh(st.name + "_cont"))
			c.b.Arc(merge, joinT)
			prev, pending = &joinT, nil
		case parStmt:
			if prev == nil {
				return nil, fmt.Errorf("spec: process %q: Par before any computation", proc)
			}
			if len(pending) > 0 {
				return nil, fmt.Errorf("spec: process %q: Receive immediately before Par is unsupported; Run a step first", proc)
			}
			if len(st.branches) < 2 {
				return nil, fmt.Errorf("spec: process %q: Par %q needs at least two branches", proc, st.name)
			}
			// Fork: prev produces one token per branch; join: a fresh
			// transition consumes one token from every branch end.
			join := c.b.Transition(c.fresh(st.name + "_join"))
			for bi, branch := range st.branches {
				if len(branch) == 0 {
					return nil, fmt.Errorf("spec: process %q: empty Par branch", proc)
				}
				firstRun, ok := branch[0].(runStmt)
				if !ok {
					return nil, fmt.Errorf("spec: process %q: Par branch must start with Run", proc)
				}
				fork := c.b.Place(c.fresh(fmt.Sprintf("%s_fork%d", st.name, bi)))
				c.b.ArcTP(*prev, fork)
				head := c.b.Transition(firstRun.name)
				c.b.Arc(fork, head)
				ht := head
				branchEnds, err := c.compileSeq(proc, branch[1:], &ht, nil)
				if err != nil {
					return nil, err
				}
				meet := c.b.Place(c.fresh(fmt.Sprintf("%s_meet%d", st.name, bi)))
				for _, e := range branchEnds {
					c.b.ArcTP(e, meet)
				}
				c.b.Arc(meet, join)
			}
			prev, pending = &join, nil
			if last {
				return []petri.Transition{join}, nil
			}
		case repeatStmt:
			if st.k < 1 {
				return nil, fmt.Errorf("spec: process %q: Repeat needs k >= 1", proc)
			}
			if prev == nil {
				return nil, fmt.Errorf("spec: process %q: Repeat before any computation", proc)
			}
			if len(pending) > 0 {
				return nil, fmt.Errorf("spec: process %q: Receive immediately before Repeat is unsupported; Run a step first", proc)
			}
			if len(st.body) == 0 {
				return nil, fmt.Errorf("spec: process %q: empty Repeat body", proc)
			}
			firstRun, ok := st.body[0].(runStmt)
			if !ok {
				return nil, fmt.Errorf("spec: process %q: Repeat body must start with Run", proc)
			}
			// prev produces k tokens into the loop-entry place; the body
			// runs once per token; every body end feeds an accumulator
			// consumed k-at-a-time by the continuation (Figure 4).
			entry := c.b.Place(c.fresh("loop_" + proc))
			c.b.WeightedArcTP(*prev, entry, st.k)
			head := c.b.Transition(firstRun.name)
			c.b.Arc(entry, head)
			ht := head
			bodyEnds, err := c.compileSeq(proc, st.body[1:], &ht, nil)
			if err != nil {
				return nil, err
			}
			if last {
				return bodyEnds, nil
			}
			acc := c.b.Place(c.fresh("acc_" + proc))
			for _, e := range bodyEnds {
				c.b.ArcTP(e, acc)
			}
			cont := c.b.Transition(c.fresh(proc + "_cont"))
			c.b.WeightedArc(acc, cont, st.k)
			prev, pending = &cont, nil
		default:
			return nil, fmt.Errorf("spec: process %q: unknown statement %T", proc, st)
		}
	}
	if len(pending) > 0 {
		return nil, fmt.Errorf("spec: process %q: trailing Receive with no following computation", proc)
	}
	if prev == nil {
		return nil, fmt.Errorf("spec: process %q compiled to no transitions", proc)
	}
	return []petri.Transition{*prev}, nil
}
