package core

import (
	"fmt"
	"sort"
	"strings"

	"fcpn/internal/invariant"
	"fcpn/internal/petri"
)

// Task is one software task of the synthesised implementation: a group of
// source transitions with dependent firing rates plus every transition
// belonging to a T-invariant of one of those sources. Transitions may
// appear in several tasks (shared code, Section 4).
type Task struct {
	// Name is derived from the source transitions ("task_Cell").
	Name string
	// Sources are the input transitions that activate the task.
	Sources []petri.Transition
	// Transitions is the sorted set of transitions the task executes.
	Transitions []petri.Transition
}

// Contains reports whether the task executes transition t.
func (tk *Task) Contains(t petri.Transition) bool {
	i := sort.Search(len(tk.Transitions), func(i int) bool { return tk.Transitions[i] >= t })
	return i < len(tk.Transitions) && tk.Transitions[i] == t
}

// TaskPartition groups the net's transitions into the minimum number of
// quasi-statically schedulable tasks: one per group of dependent-rate
// sources. Two sources have dependent rates when they occur in a common
// minimal T-invariant of the net (their firing counts are then rationally
// related); independence is the transitive closure's complement.
type TaskPartition struct {
	Net   *petri.Net
	Tasks []Task
}

// PartitionTasks computes the task partition of the net from its minimal
// T-invariants. For a net without source transitions the whole net forms
// one autonomous task.
func PartitionTasks(n *petri.Net, opt Options) (*TaskPartition, error) {
	tis, err := invariant.TInvariants(n, invariant.Options{MaxRows: opt.MaxRows, Trace: opt.Trace})
	if err != nil {
		return nil, PartitionError(err)
	}
	return PartitionWith(n, tis), nil
}

// PartitionError is the error of PartitionTasks on a net whose T-semiflow
// enumeration failed with err.
func PartitionError(err error) error {
	return fmt.Errorf("core: task partition: %w", err)
}

// PartitionWith is PartitionTasks given the net's minimal T-invariants,
// which must be what invariant.TInvariants returns on n (the set and its
// order): internal/engine passes the ones its analysis already holds.
func PartitionWith(n *petri.Net, tis []invariant.TInvariant) *TaskPartition {
	sources := n.SourceTransitions()
	tp := &TaskPartition{Net: n}
	if len(sources) == 0 {
		all := n.Transitions()
		tp.Tasks = []Task{{Name: "task_main", Transitions: all}}
		return tp
	}

	// Union-find over sources: two sources are joined when a minimal
	// invariant contains both.
	parent := make(map[petri.Transition]petri.Transition, len(sources))
	for _, s := range sources {
		parent[s] = s
	}
	var find func(x petri.Transition) petri.Transition
	find = func(x petri.Transition) petri.Transition {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	union := func(a, b petri.Transition) { parent[find(a)] = find(b) }
	for _, ti := range tis {
		var inTi []petri.Transition
		for _, s := range sources {
			if ti.Contains(s) {
				inTi = append(inTi, s)
			}
		}
		for i := 1; i < len(inTi); i++ {
			union(inTi[0], inTi[i])
		}
	}

	// Group sources and collect each group's transitions: the union of
	// supports of every invariant containing one of the group's sources.
	groups := map[petri.Transition][]petri.Transition{}
	for _, s := range sources {
		r := find(s)
		groups[r] = append(groups[r], s)
	}
	var roots []petri.Transition
	for r := range groups {
		roots = append(roots, r)
	}
	sort.Slice(roots, func(i, j int) bool { return groups[roots[i]][0] < groups[roots[j]][0] })

	for _, r := range roots {
		set := map[petri.Transition]bool{}
		for _, s := range groups[r] {
			set[s] = true
		}
		for _, ti := range tis {
			hit := false
			for _, s := range groups[r] {
				if ti.Contains(s) {
					hit = true
					break
				}
			}
			if !hit {
				continue
			}
			for _, t := range ti.Support() {
				set[t] = true
			}
		}
		task := Task{Sources: groups[r]}
		for t := range set {
			task.Transitions = append(task.Transitions, t)
		}
		sort.Slice(task.Transitions, func(i, j int) bool { return task.Transitions[i] < task.Transitions[j] })
		names := make([]string, len(task.Sources))
		for i, s := range task.Sources {
			names[i] = n.TransitionName(s)
		}
		// Name-sort so the task's identity depends on which sources it
		// owns, not on the order the net happened to declare them —
		// isomorphic nets must synthesise identically named tasks.
		sort.Strings(names)
		task.Name = "task_" + strings.Join(names, "_")
		tp.Tasks = append(tp.Tasks, task)
	}

	// Source-free invariants (autonomous loops) attach to every task they
	// share a transition with; fully disjoint ones form an extra task.
	var orphan []petri.Transition
	for _, ti := range tis {
		srcFree := true
		for _, s := range sources {
			if ti.Contains(s) {
				srcFree = false
				break
			}
		}
		if !srcFree {
			continue
		}
		attached := false
		for i := range tp.Tasks {
			shares := false
			for _, t := range ti.Support() {
				if tp.Tasks[i].Contains(t) {
					shares = true
					break
				}
			}
			if shares {
				tp.Tasks[i].Transitions = mergeSorted(tp.Tasks[i].Transitions, ti.Support())
				attached = true
			}
		}
		if !attached {
			orphan = mergeSorted(orphan, ti.Support())
		}
	}
	if len(orphan) > 0 {
		tp.Tasks = append(tp.Tasks, Task{Name: "task_autonomous", Transitions: orphan})
	}
	return tp
}

func mergeSorted(a, b []petri.Transition) []petri.Transition {
	set := map[petri.Transition]bool{}
	for _, t := range a {
		set[t] = true
	}
	for _, t := range b {
		set[t] = true
	}
	out := make([]petri.Transition, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SharedTransitions lists the transitions appearing in more than one task:
// the code the paper shares between tasks via labels and gotos.
func (tp *TaskPartition) SharedTransitions() []petri.Transition {
	count := make([]int, tp.Net.NumTransitions())
	for _, task := range tp.Tasks {
		for _, t := range task.Transitions {
			count[t]++
		}
	}
	var out []petri.Transition
	for t, c := range count {
		if c > 1 {
			out = append(out, petri.Transition(t))
		}
	}
	return out
}

// NumTasks reports the number of tasks: the paper's headline metric
// (Table I row 1).
func (tp *TaskPartition) NumTasks() int { return len(tp.Tasks) }
