// Command qss is the software-synthesis front end: it reads a Free-Choice
// Petri Net in the textual format, checks quasi-static schedulability,
// and prints the valid schedule, the task partition, or the generated C
// implementation.
//
// Usage:
//
//	qss [-c] [-standalone] [-guards] [-schedule] [-tasks] [-bounds]
//	    [-verify-bounds] [-cpuprofile f] [-trace f] [file.pn]
//
// With no file the net is read from stdin. With no mode flags, -schedule
// is assumed. -verify-bounds replays the synthesised implementation under
// seeded fault scenarios (bursts, duplicates, losses, timer jitter) and
// checks the observed buffer peaks against the net's structural bounds;
// -guards emits runtime overflow checks into the generated C.
// -cpuprofile and -trace capture a pprof CPU profile / runtime execution
// trace of the whole run for `go tool pprof` / `go tool trace`.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	rtrace "runtime/trace"
	"strings"

	"fcpn"
	"fcpn/internal/codegen"
	"fcpn/internal/core"
	"fcpn/internal/fault"
	"fcpn/internal/rtos"
	"fcpn/internal/sim"
	"fcpn/internal/timing"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "qss:", err)
		os.Exit(1)
	}
}

// run is the testable core of the command.
func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("qss", flag.ContinueOnError)
	emitC := fs.Bool("c", false, "emit the synthesised C implementation")
	emitH := fs.Bool("h", false, "emit the companion C header (task entries + hooks)")
	standalone := fs.Bool("standalone", false, "with -c: append a main() driver")
	showSchedule := fs.Bool("schedule", false, "print the valid schedule (default)")
	showTasks := fs.Bool("tasks", false, "print the task partition")
	showBounds := fs.Bool("bounds", false, "print static buffer bounds")
	explore := fs.Bool("explore", false, "print the code/buffer tradeoff of the cycle strategies")
	asJSON := fs.Bool("json", false, "print the valid schedule as JSON")
	showIR := fs.Bool("ir", false, "print the generated code's intermediate tree")
	showTree := fs.Bool("tree", false, "print the schedule as a decision tree")
	treeDot := fs.Bool("tree-dot", false, "print the decision tree as Graphviz dot")
	maxAlloc := fs.Int("max-allocations", 0, "cap on distinct T-reductions (0 = default)")
	guards := fs.Bool("guards", false, "with -c: emit runtime overflow checks against the static buffer bounds")
	verifyBounds := fs.Bool("verify-bounds", false, "replay the schedule under seeded fault scenarios and check buffer bounds")
	scenarios := fs.Int("scenarios", 10, "with -verify-bounds: number of seeded fault scenarios")
	faultSeed := fs.Uint64("fault-seed", 0xFA117, "with -verify-bounds/-mk: scenario and injector seed")
	eventsPer := fs.Int("events", 50, "with -verify-bounds/-mk: workload events per source transition")
	mkFlag := fs.String("mk", "", "check the weakly-hard (m,k) deadline constraint, e.g. -mk 9,10")
	marginFlag := fs.String("margin", "", "with -mk: comma-separated overload kinds to margin-search (burst,jitter,drop,overrun)")
	deadlineFlag := fs.Int64("deadline", 0, "with -mk: per-event response budget in cycles (0 = calibrate to 2x nominal worst response)")
	cpuprofile := fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	execTrace := fs.String("trace", "", "write a runtime/trace execution trace of the run to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *execTrace != "" {
		f, err := os.Create(*execTrace)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := rtrace.Start(f); err != nil {
			return err
		}
		defer rtrace.Stop()
	}

	in := stdin
	name := "<stdin>"
	if fs.NArg() > 0 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
		name = fs.Arg(0)
	}
	net, err := fcpn.Parse(in)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}

	opt := fcpn.Options{MaxAllocations: *maxAlloc}
	syn, err := fcpn.Synthesize(net, opt)
	if err != nil {
		return err
	}

	if !*emitC && !*emitH && !*showTasks && !*showBounds && !*explore && !*asJSON && !*showIR && !*showTree && !*treeDot && !*verifyBounds && *mkFlag == "" {
		*showSchedule = true
	}
	if *emitH {
		fmt.Fprint(stdout, codegen.EmitH(syn.Program))
	}
	if *treeDot {
		fmt.Fprint(stdout, syn.Schedule.TreeDOT())
	}
	if *showTree {
		fmt.Fprint(stdout, syn.Schedule.FormatTree())
	}
	if *showIR {
		fmt.Fprint(stdout, codegen.FormatIR(syn.Program))
	}
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(syn.Schedule.Export()); err != nil {
			return err
		}
	}
	if *showSchedule {
		fmt.Fprintf(stdout, "net %q is quasi-statically schedulable: %d T-allocations, %d distinct T-reductions\n",
			net.Name(), syn.Schedule.AllocationCount, len(syn.Schedule.Cycles))
		for i, names := range syn.Schedule.CycleStrings() {
			fmt.Fprintf(stdout, "  cycle %d: (%s)\n", i+1, strings.Join(names, " "))
		}
		if st, err := syn.Schedule.Stats(); err == nil {
			fmt.Fprintf(stdout, "  stats: longest cycle %d firings, %d total; buffers %d tokens (max %d per place)\n",
				st.MaxCycleLen, st.TotalFirings, st.TotalBufferBound, st.MaxBuffer)
		}
	}
	if *showTasks {
		fmt.Fprintf(stdout, "tasks: %d\n", syn.NumTasks())
		for _, task := range syn.Partition.Tasks {
			var srcs []string
			for _, s := range task.Sources {
				srcs = append(srcs, net.TransitionName(s))
			}
			fmt.Fprintf(stdout, "  %s (sources: %s): %s\n", task.Name,
				strings.Join(srcs, ", "),
				strings.Join(net.SequenceNames(task.Transitions), " "))
		}
		shared := syn.Partition.SharedTransitions()
		if len(shared) > 0 {
			fmt.Fprintf(stdout, "  shared: %s\n", strings.Join(net.SequenceNames(shared), " "))
		}
	}
	if *showBounds {
		bounds, err := syn.BufferBounds()
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, "static buffer bounds:")
		for p, k := range bounds {
			fmt.Fprintf(stdout, "  %s: %d\n", net.PlaceName(fcpn.Place(p)), k)
		}
	}
	if *explore {
		points, err := core.Explore(net, core.Options{MaxAllocations: *maxAlloc})
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, "schedule exploration (code batching vs. buffer memory):")
		fmt.Fprintf(stdout, "  %-12s %16s %14s %10s\n", "strategy", "total buffers", "max buffer", "switches")
		for _, pt := range points {
			fmt.Fprintf(stdout, "  %-12s %16d %14d %10d\n",
				pt.Strategy, pt.TotalBufferBound, pt.MaxBufferBound, pt.Switches)
		}
	}
	if *verifyBounds {
		if err := runVerifyBounds(stdout, syn, *scenarios, *faultSeed, *eventsPer); err != nil {
			return err
		}
	}
	if *mkFlag != "" {
		if err := runTimingSafety(stdout, syn, *mkFlag, *marginFlag, *deadlineFlag, *faultSeed, *eventsPer); err != nil {
			return err
		}
	}
	if *emitC {
		cfg := codegen.CConfig{Standalone: *standalone}
		if *guards {
			bounds, err := syn.BufferBounds()
			if err != nil {
				return err
			}
			cfg.Guards = true
			cfg.Bounds = bounds
		}
		fmt.Fprint(stdout, codegen.EmitC(syn.Program, cfg))
	}
	return nil
}

// runTimingSafety replays the synthesised implementation against the
// deterministic periodic workload (the -verify-bounds workload, fault
// free), checks the deadline hit/miss stream against the weakly-hard
// (m,k) constraint, and — when -margin lists overload kinds — binary
// searches each kind's injector intensity for the harshest overload the
// constraint survives. Exits non-zero when the nominal run violates the
// constraint.
func runTimingSafety(stdout io.Writer, syn *fcpn.Synthesis, mkStr, marginStr string, deadline int64, seed uint64, eventsPer int) error {
	c, err := timing.Parse(mkStr)
	if err != nil {
		return err
	}
	net := syn.Net
	sources := net.SourceTransitions()
	if len(sources) == 0 {
		fmt.Fprintln(stdout, "timing: net has no source transitions; nothing to replay")
		return nil
	}
	if eventsPer <= 0 {
		eventsPer = 50
	}
	var streams [][]rtos.Event
	for i, src := range sources {
		streams = append(streams, rtos.Periodic(src, int64(2*i+3), int64(i), eventsPer))
	}
	base := rtos.Merge(streams...)
	cost := rtos.DefaultCostModel()
	hooks := func() sim.Hooks {
		return sim.Hooks{Resolver: sim.NewDecisionStream(net, seed).Resolver()}
	}

	// One fault-free run gives the calibrated deadline, the verdict and
	// every margin search's level 0.
	nom := sim.RunNominal(syn.Program, base, cost, sim.MarginConfig{
		MK:     c,
		Seed:   seed,
		Robust: sim.RobustConfig{CyclesPerTick: 1},
		Hooks:  hooks,
	})
	if deadline == 0 {
		if deadline, err = nom.Deadline(sim.DefaultDeadlineFactor); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "timing: deadline calibrated to %d cycles (%dx nominal worst response)\n",
			deadline, sim.DefaultDeadlineFactor)
	}
	verdict, err := nom.Verdict(deadline)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "timing: %s\n", verdict)

	if marginStr != "" {
		for _, name := range strings.Split(marginStr, ",") {
			kind, err := sim.ParseOverloadKind(name)
			if err != nil {
				return err
			}
			om, err := nom.SearchMargin(kind, deadline)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "  margin %-8s %s\n", om.Kind+":", om.Result)
		}
	}
	if !verdict.Satisfied {
		return fmt.Errorf("timing: weakly-hard constraint %s violated", c)
	}
	return nil
}

// runVerifyBounds replays the synthesised implementation under n seeded
// fault scenarios, resolving choices from each scenario's seed, and
// checks the observed per-place peaks against the net's structural
// (P-invariant) bounds — the executable form of the schedulability
// theorem's bounded-memory claim. Per-cycle schedule bounds are reported
// as backlog (expected under bursts), not as violations.
func runVerifyBounds(stdout io.Writer, syn *fcpn.Synthesis, n int, seed uint64, eventsPer int) error {
	net := syn.Net
	sources := net.SourceTransitions()
	if len(sources) == 0 {
		fmt.Fprintln(stdout, "verify-bounds: net has no source transitions; nothing to replay")
		return nil
	}
	if eventsPer <= 0 {
		eventsPer = 50
	}
	var streams [][]rtos.Event
	for i, src := range sources {
		// Deterministic co-prime-ish periods so the sources interleave.
		streams = append(streams, rtos.Periodic(src, int64(2*i+3), int64(i), eventsPer))
	}
	base := rtos.Merge(streams...)
	limits, err := sim.StructuralLimits(net)
	if err != nil {
		return err
	}
	cycleLimits, err := syn.BufferBounds()
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "verify-bounds: %d scenarios x %d events over %d source(s)\n",
		n, len(base), len(sources))
	fmt.Fprintf(stdout, "  %-16s %8s %8s %10s %8s %8s\n",
		"scenario", "served", "dropped", "violations", "backlog", "peak")
	total := 0
	for _, sc := range fault.DefaultScenarios(n, seed) {
		events := sc.Apply(base)
		ds := sim.NewDecisionStream(net, sc.Seed)
		rm, err := sim.RunRobust(syn.Program, events, rtos.DefaultCostModel(), sim.RobustConfig{
			Limits:      limits,
			CycleLimits: cycleLimits,
		}, sim.Hooks{Resolver: ds.Resolver()})
		if err != nil {
			return fmt.Errorf("verify-bounds: scenario %s: %w", sc.Name, err)
		}
		maxPeak := 0
		for _, p := range rm.PeakCounters {
			if p > maxPeak {
				maxPeak = p
			}
		}
		fmt.Fprintf(stdout, "  %-16s %8d %8d %10d %8d %8d\n",
			sc.Name, rm.Events, rm.DroppedEvents, rm.BoundViolations, len(rm.CycleExceedances), maxPeak)
		for _, v := range rm.Violations {
			fmt.Fprintf(stdout, "    violation: %s\n", v)
		}
		total += rm.BoundViolations
	}
	if total > 0 {
		return fmt.Errorf("verify-bounds: %d structural bound violation(s)", total)
	}
	fmt.Fprintln(stdout, "  all structural bounds held")
	return nil
}
