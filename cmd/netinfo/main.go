// Command netinfo prints a structural and behavioural report for a Petri
// net in the textual format: node counts, subclass, choices, invariants,
// boundedness and (for bounded nets) deadlock/liveness, siphons and traps,
// and — for free-choice nets — quasi-static schedulability. With -json it
// instead emits the analysis engine's deterministic NetReport (the same
// document type qssd produces per net). With -phases the human report is
// followed by a per-phase timing table (see docs/TRACING.md) covering the
// invariant, reachability and scheduling work the report performed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"fcpn"
	"fcpn/internal/core"
	"fcpn/internal/invariant"
	"fcpn/internal/petri"
	"fcpn/internal/reach"
	"fcpn/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "netinfo:", err)
		os.Exit(1)
	}
}

// run is the testable core of the command.
func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("netinfo", flag.ContinueOnError)
	asJSON := fs.Bool("json", false, "emit the analysis-engine report as JSON")
	dot := fs.Bool("dot", false, "emit Graphviz dot instead of the report")
	simplify := fs.Bool("simplify", false, "apply Murata's reduction rules and print the reduced net")
	maxStates := fs.Int("max-states", 100000, "state cap for behavioural analysis")
	phases := fs.Bool("phases", false, "append a per-phase timing table to the report")
	if err := fs.Parse(args); err != nil {
		return err
	}

	in := stdin
	if fs.NArg() > 0 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	n, err := fcpn.Parse(in)
	if err != nil {
		return err
	}
	if *simplify {
		red, trace := petri.Simplify(n)
		for _, step := range trace {
			fmt.Fprintln(stdout, "#", step)
		}
		fmt.Fprint(stdout, petri.Format(red))
		return nil
	}
	if *dot {
		fmt.Fprint(stdout, n.DOT())
		return nil
	}
	if *asJSON {
		// The deterministic engine report: same type as one `qssd` batch
		// entry, so tooling can consume both uniformly.
		rep, err := fcpn.Analyze(n, fcpn.Options{})
		if err != nil {
			return err
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	var tr *trace.Tracer
	if *phases {
		tr = trace.New()
	}
	report(stdout, n, *maxStates, tr)
	if *phases {
		printPhases(stdout, tr.Report())
	}
	return nil
}

// printPhases renders a tracer report as an aligned table; detail phases
// (nested inside a top-level phase, or cache counters) are indented.
func printPhases(w io.Writer, rep *trace.Report) {
	if rep == nil || len(rep.Phases) == 0 {
		return
	}
	fmt.Fprintf(w, "\nphase timings (total %.3f ms across top-level phases):\n", rep.TopTotalMS())
	fmt.Fprintf(w, "  %-28s %8s %12s %12s %12s\n", "phase", "count", "total ms", "min ms", "max ms")
	for _, p := range rep.Phases {
		name := p.Name
		if p.Detail {
			name = "  " + name
		}
		fmt.Fprintf(w, "  %-28s %8d %12.3f %12.3f %12.3f\n",
			name, p.Count, p.TotalMS, p.MinMS, p.MaxMS)
	}
}

// report prints the human-readable analysis. tr may be nil; when set,
// each section runs under a top-level span and the inner invariant,
// reachability and scheduling calls record their detail phases into it.
func report(w io.Writer, n *petri.Net, maxStates int, tr *trace.Tracer) {
	fmt.Fprintf(w, "net %q: %d places, %d transitions, %d arcs\n",
		n.Name(), n.NumPlaces(), n.NumTransitions(), n.NumArcs())
	fmt.Fprintf(w, "class: %s\n", n.Classify())
	fmt.Fprintf(w, "sources: %s\n", nameList(n, n.SourceTransitions()))
	fmt.Fprintf(w, "sinks: %s\n", nameList(n, n.SinkTransitions()))

	choices := n.FreeChoiceSets()
	fmt.Fprintf(w, "free choices: %d\n", len(choices))
	for _, c := range choices {
		var places []string
		for _, p := range c.Places {
			places = append(places, n.PlaceName(p))
		}
		fmt.Fprintf(w, "  %s -> %s\n", strings.Join(places, "+"), nameList(n, c.Transitions))
	}

	sp := tr.Start("invariant/tsemiflows")
	tis, err := invariant.TInvariants(n, invariant.Options{Trace: tr})
	sp.End()
	if err != nil {
		fmt.Fprintf(w, "T-invariants: %v\n", err)
	} else {
		fmt.Fprintf(w, "T-invariants (minimal): %d, consistent: %v\n", len(tis), invariant.Consistent(n, tis))
		for _, ti := range tis {
			fmt.Fprintf(w, "  %v\n", ti.Counts)
		}
	}
	sp = tr.Start("invariant/psemiflows")
	pis, err := invariant.PInvariants(n, invariant.Options{Trace: tr})
	sp.End()
	if err != nil {
		fmt.Fprintf(w, "P-invariants: %v\n", err)
	} else {
		fmt.Fprintf(w, "P-invariants (minimal): %d, conservative: %v\n", len(pis), invariant.Conservative(n, pis))
	}

	if rep, err := invariant.RankTheoremFC(n, invariant.Options{}); err == nil {
		fmt.Fprintf(w, "rank theorem (FC): rank(D)=%d clusters=%d well-formed=%v\n",
			rep.Rank, rep.Clusters, rep.WellFormed)
	}

	sp = tr.Start("reach/coverability")
	bounded, err := reach.Boundedness(n, n.InitialMarking())
	var k int
	if err == nil && bounded {
		k, _ = reach.KBound(n, n.InitialMarking())
	}
	sp.End()
	switch {
	case err != nil:
		fmt.Fprintf(w, "boundedness: %v\n", err)
	case bounded:
		fmt.Fprintf(w, "bounded: yes (k = %d)\n", k)
		sp = tr.Start("reach/deadlock")
		dead, derr := reach.HasDeadlock(n, n.InitialMarking(), reach.Options{MaxStates: maxStates, Trace: tr})
		sp.End()
		if derr == nil {
			fmt.Fprintf(w, "deadlock reachable: %v\n", dead)
		}
		sp = tr.Start("reach/liveness")
		live, lerr := reach.Live(n, n.InitialMarking(), reach.Options{MaxStates: maxStates, Trace: tr})
		sp.End()
		if lerr == nil {
			fmt.Fprintf(w, "live: %v\n", live)
		}
	default:
		fmt.Fprintln(w, "bounded: no (under unconstrained firing; quasi-static scheduling may still bound it)")
	}

	sp = tr.Start("reach/siphons")
	siphons := reach.MinimalSiphons(n, 64)
	commoner := reach.CommonerHolds(n, n.InitialMarking(), 64)
	sp.End()
	fmt.Fprintf(w, "minimal siphons: %d, Commoner holds: %v\n", len(siphons), commoner)

	if n.IsFreeChoice() {
		sp = tr.Start("core/solve")
		s, err := core.Solve(n, core.Options{Trace: tr})
		sp.End()
		if err != nil {
			fmt.Fprintf(w, "quasi-static schedulable: no (%v)\n", err)
		} else {
			fmt.Fprintf(w, "quasi-static schedulable: yes (%d cycles from %d allocations)\n",
				len(s.Cycles), s.AllocationCount)
			sp = tr.Start("core/tasks")
			tp, err := core.PartitionTasks(n, core.Options{Trace: tr})
			sp.End()
			if err == nil {
				fmt.Fprintf(w, "tasks: %d\n", tp.NumTasks())
			}
		}
	}
}

func nameList(n *petri.Net, ts []petri.Transition) string {
	if len(ts) == 0 {
		return "(none)"
	}
	return strings.Join(n.SequenceNames(ts), " ")
}
