// Package codegen synthesises software for a quasi-statically schedulable
// net (Section 4 of the paper). The program is a function of the net and
// its task partition: each task walks the net from its source
// transitions, branching at every free choice, and picks each consumer's
// guard from the arc weights around its input place. The valid schedule
// shows that the net has bounded-memory code; its cycles are not read.
// The same intermediate tree is lowered two ways:
//
//   - to C source (cgen.go), following the paper's Schedule/Task algorithm:
//     an if-then-else per free choice, counting variables with if-guards
//     when the consumer fires less often than the producer and while-loops
//     when it fires more often, and one task function per independent-rate
//     input invoked by the RTOS;
//   - to an executable form interpreted by interp.go, used by the
//     simulator (internal/sim) and by the equivalence property tests.
//
// GenerateModular produces the paper's comparison baseline ("functional
// task partitioning"): one task per functional module with counter-based
// firing, communicating through inter-module queues.
package codegen

import (
	"fmt"
	"sort"

	"fcpn/internal/core"
	"fcpn/internal/petri"
)

// Node is one statement of the generated task body.
type Node interface{ node() }

// FireNode executes the computation of one transition.
type FireNode struct {
	T petri.Transition
}

// IncNode adds By tokens to the counter of place P.
type IncNode struct {
	P  petri.Place
	By int
}

// DecNode removes By tokens from the counter of place P.
type DecNode struct {
	P  petri.Place
	By int
}

// Cond is one conjunct of a guard: counter(P) >= W.
type Cond struct {
	P petri.Place
	W int
}

// GuardNode is an if (Loop=false) or while (Loop=true) over a conjunction
// of counter conditions.
type GuardNode struct {
	Conds []Cond
	Loop  bool
	Body  []Node
}

// Branch is one alternative of a free choice: transition T's code.
type Branch struct {
	T    petri.Transition
	Body []Node
}

// ChoiceNode dispatches on the value of the control token in place P
// (if-then-else in the generated C). Consuming the token is implicit in
// taking a branch.
type ChoiceNode struct {
	P        petri.Place
	Branches []Branch
}

// CallNode invokes a shared drain helper: the translation of the paper's
// label/goto sharing of merge-place code (we emit a static helper function
// instead of a goto, with the same effect on code size).
type CallNode struct {
	Name   string
	Helper *Helper
}

func (FireNode) node()   {}
func (IncNode) node()    {}
func (DecNode) node()    {}
func (GuardNode) node()  {}
func (ChoiceNode) node() {}
func (CallNode) node()   {}

// Helper is one shared drain block, emitted once per program.
type Helper struct {
	Name string
	Body []Node
	// covers lists the transitions fired inside the body, so tasks calling
	// the helper know those transitions are handled.
	covers []petri.Transition
}

// collectFired walks a node list and gathers every transition fired in it
// (including nested guards, choices and called helpers).
func collectFired(nodes []Node, into map[petri.Transition]bool) {
	for _, node := range nodes {
		switch x := node.(type) {
		case FireNode:
			into[x.T] = true
		case GuardNode:
			collectFired(x.Body, into)
		case CallNode:
			if x.Helper != nil {
				collectFired(x.Helper.Body, into)
			}
		case ChoiceNode:
			for _, br := range x.Branches {
				collectFired(br.Body, into)
			}
		}
	}
}

// SourceBody is the statement list run when one source event arrives.
type SourceBody struct {
	Source petri.Transition
	Body   []Node
}

// TaskCode is the generated code of one task.
type TaskCode struct {
	Task core.Task
	// Bodies holds one entry point per source of the task.
	Bodies []SourceBody
	// Residual drains transitions not reachable from any source by the
	// structured traversal (autonomous loops); appended after each body.
	Residual []Node
}

// Program is a complete generated implementation.
type Program struct {
	Net       *petri.Net
	Partition *core.TaskPartition
	Tasks     []*TaskCode
	// HasCounter marks the places compiled to a counter variable; others
	// are transient within one pass.
	HasCounter []bool
	// Helpers are the shared merge-drain blocks referenced by CallNodes —
	// the code the paper shares across branches and tasks via labels and
	// gotos — in creation order.
	Helpers []*Helper
	// helperOf maps a consumer transition to its shared drain helper.
	helperOf map[petri.Transition]*Helper
}

// Generate builds the Program of sched's net under the task partition. It
// reads only sched.Net: each task's code is a traversal of the net from
// the task's sources, and no cycle of the schedule shapes it.
func Generate(sched *core.Schedule, partition *core.TaskPartition) (*Program, error) {
	n := sched.Net
	prog := &Program{
		Net:        n,
		Partition:  partition,
		HasCounter: make([]bool, n.NumPlaces()),
		helperOf:   map[petri.Transition]*Helper{},
	}
	for _, task := range partition.Tasks {
		tc, err := prog.generateTask(task)
		if err != nil {
			return nil, err
		}
		prog.Tasks = append(prog.Tasks, tc)
	}
	return prog, nil
}

// guardKind classifies how a consumer is sequenced after production into
// its input place.
type guardKind int

const (
	guardPlain guardKind = iota // fire immediately, no counter
	guardIf                     // accumulate, fire when enough
	guardWhile                  // fire repeatedly while enough
)

// classify decides the guard for consumer tc of place p, per the paper's
// f-ratio rule expressed structurally: consumers that can fire several
// times per production get a while, consumers that need several
// productions get an if, 1:1 single-producer chains need no counter.
func (prog *Program) classify(p petri.Place, tc petri.Transition) guardKind {
	n := prog.Net
	wCons := n.Weight(p, tc)
	producers := n.Producers(p)
	if len(n.Pre(tc)) > 1 {
		return guardWhile // synchronisation: all inputs counted
	}
	if len(producers) != 1 {
		return guardWhile // merged place: tokens arrive from several paths
	}
	wProd := producers[0].Weight
	switch {
	case wProd > wCons:
		return guardWhile
	case wProd < wCons:
		return guardIf
	default:
		return guardPlain
	}
}

// genCtx carries the per-task state of the structured emitter.
type genCtx struct {
	task    core.Task
	tc      *TaskCode
	stack   map[petri.Transition]bool
	emitted map[petri.Transition]bool
}

func (prog *Program) generateTask(task core.Task) (*TaskCode, error) {
	tc := &TaskCode{Task: task}
	ctx := &genCtx{
		task:    task,
		tc:      tc,
		emitted: map[petri.Transition]bool{},
	}
	for _, src := range task.Sources {
		ctx.stack = map[petri.Transition]bool{}
		body, err := prog.emitTransition(ctx, src)
		if err != nil {
			return nil, err
		}
		tc.Bodies = append(tc.Bodies, SourceBody{Source: src, Body: body})
	}
	emitted := ctx.emitted
	// Residual pass: counter-based draining blocks for task transitions
	// the structured traversal did not reach (none for source-driven
	// free-choice pipelines; autonomous loops land here).
	for _, t := range task.Transitions {
		if emitted[t] || isSource(prog.Net, t) {
			continue
		}
		tc.Residual = append(tc.Residual, prog.residualBlock(t))
		emitted[t] = true
	}
	if len(task.Sources) == 0 && len(tc.Residual) == 0 {
		return nil, fmt.Errorf("codegen: task %s has no entry points", task.Name)
	}
	return tc, nil
}

func isSource(n *petri.Net, t petri.Transition) bool { return len(n.Pre(t)) == 0 }

// residualBlock emits `while (inputs ready) { dec inputs; fire; inc outputs }`.
func (prog *Program) residualBlock(t petri.Transition) Node {
	n := prog.Net
	var conds []Cond
	var body []Node
	for _, a := range n.Pre(t) {
		prog.HasCounter[a.Place] = true
		conds = append(conds, Cond{a.Place, a.Weight})
	}
	body = append(body, FireNode{t})
	for _, a := range n.Pre(t) {
		body = append(body, DecNode{a.Place, a.Weight})
	}
	for _, a := range n.Post(t) {
		prog.HasCounter[a.Place] = true
		body = append(body, IncNode{a.Place, a.Weight})
	}
	return GuardNode{Conds: conds, Loop: true, Body: body}
}

// emitTransition emits the firing of t followed by the propagation of its
// produced tokens.
func (prog *Program) emitTransition(ctx *genCtx, t petri.Transition) ([]Node, error) {
	if ctx.stack[t] {
		return nil, fmt.Errorf("codegen: transition %s re-entered within one pass; net has an in-task cycle (use residual mode)",
			prog.Net.TransitionName(t))
	}
	ctx.stack[t] = true
	defer delete(ctx.stack, t)
	ctx.emitted[t] = true
	nodes := []Node{FireNode{T: t}}

	// Output places sharing one single consumer are handled as a group,
	// so a transition producing into both inputs of a synchronising
	// consumer emits the Incs together followed by one guard instead of
	// duplicating the consumer's body per place.
	handled := map[petri.Transition]bool{}
	for _, out := range prog.Net.Post(t) {
		consumers := prog.Net.Consumers(out.Place)
		if len(consumers) == 1 {
			tc := consumers[0].Transition
			if !ctx.stack[tc] && ctx.task.Contains(tc) {
				if handled[tc] {
					continue
				}
				handled[tc] = true
				var arcs []petri.ArcRef
				for _, o := range prog.Net.Post(t) {
					c := prog.Net.Consumers(o.Place)
					if len(c) == 1 && c[0].Transition == tc {
						arcs = append(arcs, o)
					}
				}
				prop, err := prog.emitConsumerGroup(ctx, tc, arcs)
				if err != nil {
					return nil, err
				}
				nodes = append(nodes, prop...)
				continue
			}
		}
		prop, err := prog.emitPlace(ctx, out.Place, out.Weight)
		if err != nil {
			return nil, err
		}
		nodes = append(nodes, prop...)
	}
	return nodes, nil
}

// emitConsumerGroup emits the propagation of tokens produced into one or
// more places all consumed by the same transition tc (already known to be
// in the task and not on the emission stack). When a produced place is a
// merge place (several producers), the consumer's drain block is shared
// through a helper — the equivalent of the paper's label/goto sharing of
// merge code — so each additional production site costs one call, not a
// duplicated body.
func (prog *Program) emitConsumerGroup(ctx *genCtx, tc petri.Transition, produced []petri.ArcRef) ([]Node, error) {
	n := prog.Net
	// Single produced place with a plain 1:1 single-input consumer keeps
	// the unguarded straight-line form.
	if len(produced) == 1 && prog.classify(produced[0].Place, tc) == guardPlain {
		return prog.emitTransition(ctx, tc)
	}
	var nodes []Node
	for _, a := range produced {
		prog.HasCounter[a.Place] = true
		nodes = append(nodes, IncNode{a.Place, a.Weight})
	}
	share := false
	for _, a := range produced {
		if len(n.Producers(a.Place)) > 1 {
			share = true
		}
	}
	if share {
		// Helpers are program-global: a merge place fed by several tasks
		// yields one drain block that every producing task calls — the
		// paper's "code patterns shared by different tasks".
		if h := prog.helperOf[tc]; h != nil {
			for _, t := range h.covers {
				ctx.emitted[t] = true
			}
			return append(nodes, CallNode{Name: h.Name, Helper: h}), nil
		}
		h := &Helper{Name: "drain_" + n.TransitionName(tc)}
		prog.helperOf[tc] = h
		prog.Helpers = append(prog.Helpers, h)
		guard, err := prog.consumerGuard(ctx, tc, true)
		if err != nil {
			return nil, err
		}
		h.Body = []Node{guard}
		fired := map[petri.Transition]bool{}
		collectFired(h.Body, fired)
		for t := range fired {
			h.covers = append(h.covers, t)
		}
		return append(nodes, CallNode{Name: h.Name, Helper: h}), nil
	}
	kind := guardIf
	for _, a := range produced {
		if prog.classify(a.Place, tc) == guardWhile {
			kind = guardWhile
		}
	}
	guard, err := prog.consumerGuard(ctx, tc, kind == guardWhile)
	if err != nil {
		return nil, err
	}
	return append(nodes, guard), nil
}

// consumerGuard builds the guarded firing block of tc: test every input,
// fire, decrement, propagate. The body fires first and then decrements,
// matching the paper's listing (`t4; count(p2)-=2;`).
func (prog *Program) consumerGuard(ctx *genCtx, tc petri.Transition, loop bool) (Node, error) {
	n := prog.Net
	var conds []Cond
	for _, in := range n.Pre(tc) {
		prog.HasCounter[in.Place] = true
		conds = append(conds, Cond{in.Place, in.Weight})
	}
	fire, err := prog.emitTransition(ctx, tc)
	if err != nil {
		return nil, err
	}
	body := []Node{fire[0]}
	for _, in := range n.Pre(tc) {
		body = append(body, DecNode{in.Place, in.Weight})
	}
	body = append(body, fire[1:]...)
	return GuardNode{Conds: conds, Loop: loop, Body: body}, nil
}

// emitPlace emits the code consuming wProduced fresh tokens in place p.
func (prog *Program) emitPlace(ctx *genCtx, p petri.Place, wProduced int) ([]Node, error) {
	n := prog.Net
	consumers := n.Consumers(p)
	switch {
	case len(consumers) == 0:
		// Sink place: tokens leave the system (environment output).
		return nil, nil

	case len(consumers) > 1:
		// Free choice: dispatch on the control token value.
		choice := ChoiceNode{P: p}
		for _, ta := range consumers {
			body, err := prog.emitTransition(ctx, ta.Transition)
			if err != nil {
				return nil, err
			}
			choice.Branches = append(choice.Branches, Branch{T: ta.Transition, Body: body})
		}
		if wProduced == 1 && len(n.Producers(p)) == 1 {
			// One control token per pass: no counter needed.
			return []Node{choice}, nil
		}
		// Several control tokens may be pending: count them and loop.
		prog.HasCounter[p] = true
		return []Node{
			IncNode{p, wProduced},
			GuardNode{
				Conds: []Cond{{p, 1}},
				Loop:  true,
				Body:  []Node{DecNode{p, 1}, choice},
			},
		}, nil

	default:
		// Reached only when the single consumer cannot run inline: it is
		// an ancestor on the emission stack (a state loop) or belongs to
		// another task. Record the tokens; the consumer's own guard (or
		// the other task) drains them.
		prog.HasCounter[p] = true
		return []Node{IncNode{p, wProduced}}, nil
	}
}

// CounterPlaces lists the places compiled to counter variables, sorted.
func (prog *Program) CounterPlaces() []petri.Place {
	var out []petri.Place
	for p, ok := range prog.HasCounter {
		if ok {
			out = append(out, petri.Place(p))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TaskBySource maps a source transition to the index of the task it
// activates, or -1.
func (prog *Program) TaskBySource(src petri.Transition) int {
	for i, tc := range prog.Tasks {
		for _, b := range tc.Bodies {
			if b.Source == src {
				return i
			}
		}
	}
	return -1
}
