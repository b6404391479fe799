package fcpn

// One benchmark per table and figure of the paper (see DESIGN.md's
// experiment index), plus the ablations. Run with:
//
//	go test -bench=. -benchmem
//
// The benchmarks print the reproduced quantities (schedule sizes, task
// counts, cycle counts, Table I rows) through b.Log / ReportMetric so a
// single bench run regenerates every number in EXPERIMENTS.md.

import (
	"testing"

	"fcpn/internal/atm"
	"fcpn/internal/bdf"
	"fcpn/internal/codegen"
	"fcpn/internal/core"
	"fcpn/internal/figures"
	"fcpn/internal/invariant"
	"fcpn/internal/modem"
	"fcpn/internal/netgen"
	"fcpn/internal/petri"
	"fcpn/internal/rtos"
	"fcpn/internal/safenet"
	"fcpn/internal/sdf"
	"fcpn/internal/sim"
	"fcpn/internal/trace"
)

// BenchmarkFigure1Classify reproduces Figure 1: the structural free-choice
// test separating net (a) from net (b).
func BenchmarkFigure1Classify(b *testing.B) {
	fc, nfc := figures.Figure1a(), figures.Figure1b()
	for i := 0; i < b.N; i++ {
		if !fc.IsFreeChoice() || nfc.IsFreeChoice() {
			b.Fatal("classification changed")
		}
	}
}

// BenchmarkFigure2RepetitionVector reproduces Figure 2: the minimal
// T-invariant f(σ) = (4,2,1) of the multirate marked graph and its static
// schedule.
func BenchmarkFigure2RepetitionVector(b *testing.B) {
	n := figures.Figure2()
	for i := 0; i < b.N; i++ {
		g, err := sdf.FromPetri(n)
		if err != nil {
			b.Fatal(err)
		}
		q, err := g.RepetitionVector()
		if err != nil || q[0] != 4 || q[1] != 2 || q[2] != 1 {
			b.Fatalf("q = %v (%v)", q, err)
		}
		if _, err := g.Schedule(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3Schedule reproduces Figure 3: solving the schedulable
// net (a) and diagnosing the non-schedulable net (b).
func BenchmarkFigure3Schedule(b *testing.B) {
	a, nb := figures.Figure3a(), figures.Figure3b()
	for i := 0; i < b.N; i++ {
		s, err := core.Solve(a, core.Options{})
		if err != nil || len(s.Cycles) != 2 {
			b.Fatalf("fig3a: %v", err)
		}
		if _, err := core.Solve(nb, core.Options{}); err == nil {
			b.Fatal("fig3b must not be schedulable")
		}
	}
}

// BenchmarkFigure4Codegen reproduces Figure 4 and the Section 4 C listing:
// schedule the weighted net and emit its single-task implementation.
func BenchmarkFigure4Codegen(b *testing.B) {
	n := figures.Figure4()
	for i := 0; i < b.N; i++ {
		syn, err := Synthesize(n, Options{})
		if err != nil {
			b.Fatal(err)
		}
		src := syn.C(true)
		if codegen.LineCount(src) == 0 {
			b.Fatal("empty C")
		}
	}
}

// BenchmarkFigure5Reduce reproduces Figure 5/6: both T-reductions of the
// two-source weighted net, their invariants, and the two-cycle valid
// schedule.
func BenchmarkFigure5Reduce(b *testing.B) {
	n := figures.Figure5()
	for i := 0; i < b.N; i++ {
		allocs, err := core.EnumerateAllocations(n, 0)
		if err != nil || len(allocs) != 2 {
			b.Fatalf("allocations: %v", err)
		}
		for _, a := range allocs {
			red := core.Reduce(n, a)
			if !red.Subnet().IsConflictFree() {
				b.Fatal("reduction not conflict-free")
			}
			rep := core.CheckReduction(n, red, core.Options{})
			if !rep.Schedulable {
				b.Fatalf("reduction must be schedulable: %s", rep.FailReason)
			}
		}
	}
}

// BenchmarkFigure7Diagnose reproduces Figure 7: detecting the inconsistent
// reductions of the non-schedulable net.
func BenchmarkFigure7Diagnose(b *testing.B) {
	n := figures.Figure7()
	for i := 0; i < b.N; i++ {
		_, err := core.Solve(n, core.Options{})
		nse, ok := err.(*core.NotSchedulableError)
		if !ok || nse.Report.Consistent {
			b.Fatalf("unexpected verdict: %v", err)
		}
	}
}

// BenchmarkATMSchedule reproduces the Section 5 scheduling numbers: the
// 49-transition/41-place/11-choice model's 2048 allocations collapsing to
// the distinct T-reductions of the valid schedule, and the 2-task
// partition.
func BenchmarkATMSchedule(b *testing.B) {
	m := atm.New()
	var cycles, tasks int
	for i := 0; i < b.N; i++ {
		s, err := core.Solve(m.Net, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		tp, err := core.PartitionTasks(m.Net, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		cycles, tasks = len(s.Cycles), tp.NumTasks()
	}
	b.ReportMetric(float64(cycles), "cycles-in-schedule")
	b.ReportMetric(float64(tasks), "tasks")
}

// BenchmarkSolveReductions times the Definition 3.5 sweep the engine runs
// on an enumerated reduction set — the parent's T-semiflows restricted to
// each distinct reduction, then the cycle search — on the ATM server and
// on a heavy generated pipeline (72 distinct reductions). A reduction
// memoises nothing, so every iteration sweeps the same enumerated set;
// the enumeration itself is not timed.
func BenchmarkSolveReductions(b *testing.B) {
	heavy := netgen.DefaultConfig()
	heavy.MaxSources, heavy.MaxDepth = 4, 5
	for _, bc := range []struct {
		name string
		net  *petri.Net
	}{
		{"atm", atm.New().Net},
		{"heavy-pipeline", netgen.RandomSchedulablePipeline(1, heavy)},
	} {
		reds, err := core.EnumerateDistinctReductions(bc.net, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.SolveReductions(bc.net, reds, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTableIQSS reproduces the QSS column of Table I: the 2-task
// implementation driven by the 50-cell testbench.
func BenchmarkTableIQSS(b *testing.B) {
	m := atm.New()
	syn, err := Synthesize(m.Net, Options{})
	if err != nil {
		b.Fatal(err)
	}
	w := atm.NewWorkload(m, atm.DefaultWorkload())
	cost := rtos.DefaultCostModel()
	var clock int64
	for i := 0; i < b.N; i++ {
		server := atm.NewServer(m, atm.DefaultConfig())
		metrics, err := sim.RunRobust(syn.Program, w.Events, cost, sim.RobustConfig{}, sim.Hooks{
			Resolver:    server.Resolver(),
			OnFire:      server.OnFire,
			BeforeEvent: w.CellFeeder(m, server),
		})
		if err != nil {
			b.Fatal(err)
		}
		clock = metrics.Cycles
	}
	b.ReportMetric(float64(len(syn.Program.Tasks)), "tasks")
	b.ReportMetric(float64(codegen.LineCount(syn.C(false))), "C-lines")
	b.ReportMetric(float64(clock), "clock-cycles")
}

// BenchmarkTableIFunctional reproduces the functional-partitioning column
// of Table I: five module tasks under dynamic scheduling, same testbench.
func BenchmarkTableIFunctional(b *testing.B) {
	m := atm.New()
	var modules []codegen.Module
	for _, mod := range m.Modules() {
		modules = append(modules, codegen.Module{Name: mod.Name, Transitions: mod.Transitions})
	}
	prog, err := codegen.GenerateModular(m.Net, modules)
	if err != nil {
		b.Fatal(err)
	}
	w := atm.NewWorkload(m, atm.DefaultWorkload())
	cost := rtos.DefaultCostModel()
	var clock int64
	for i := 0; i < b.N; i++ {
		server := atm.NewServer(m, atm.DefaultConfig())
		metrics, err := sim.RunRobust(prog, w.Events, cost, sim.RobustConfig{Modular: true}, sim.Hooks{
			Resolver:    server.Resolver(),
			OnFire:      server.OnFire,
			BeforeEvent: w.CellFeeder(m, server),
		})
		if err != nil {
			b.Fatal(err)
		}
		clock = metrics.Cycles
	}
	b.ReportMetric(float64(len(prog.Tasks)), "tasks")
	b.ReportMetric(float64(codegen.LineCount(codegen.EmitC(prog, codegen.CConfig{}))), "C-lines")
	b.ReportMetric(float64(clock), "clock-cycles")
}

// BenchmarkTableIFull regenerates the whole table in one shot and reports
// the two ratios the paper's conclusion highlights.
func BenchmarkTableIFull(b *testing.B) {
	var res *atm.TableIResult
	for i := 0; i < b.N; i++ {
		r, err := atm.RunTableI(atm.DefaultWorkload(), rtos.DefaultCostModel())
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	b.ReportMetric(float64(res.Functional.ClockCycles)/float64(res.QSS.ClockCycles), "cycle-ratio")
	b.ReportMetric(float64(res.Functional.LinesOfC)/float64(res.QSS.LinesOfC), "loc-ratio")
}

// BenchmarkAblationReductionDedup measures the effect of deduplicating
// T-reductions on the ATM model: 2048 allocations versus the distinct
// reductions actually scheduled.
func BenchmarkAblationReductionDedup(b *testing.B) {
	m := atm.New()
	for _, dedup := range []bool{true, false} {
		name := "dedup"
		if !dedup {
			name = "nodedup"
		}
		b.Run(name, func(b *testing.B) {
			tr := trace.New()
			var cycles int
			for i := 0; i < b.N; i++ {
				s, err := core.Solve(m.Net, core.Options{KeepDuplicateReductions: !dedup, Trace: tr})
				if err != nil {
					b.Fatal(err)
				}
				cycles = len(s.Cycles)
			}
			b.ReportMetric(float64(cycles), "cycles-in-schedule")
			// The per-phase trace shows where dedup saves the time: the
			// number of per-reduction schedulability checks per solve.
			if p, ok := tr.Report().Phase("core/check"); ok {
				b.ReportMetric(float64(p.Count)/float64(b.N), "checks/solve")
			}
		})
	}
}

// BenchmarkAblationOverheadSweep sweeps the RTOS activation cost and
// reports the Table I cycle ratio at each point: the crossover analysis
// the paper's tradeoff discussion calls for.
func BenchmarkAblationOverheadSweep(b *testing.B) {
	for _, activation := range []int64{0, 50, 150, 500, 1500} {
		b.Run(benchName("act", activation), func(b *testing.B) {
			cost := rtos.DefaultCostModel()
			cost.Activation = activation
			var ratio float64
			for i := 0; i < b.N; i++ {
				res, err := atm.RunTableI(atm.DefaultWorkload(), cost)
				if err != nil {
					b.Fatal(err)
				}
				ratio = float64(res.Functional.ClockCycles) / float64(res.QSS.ClockCycles)
			}
			b.ReportMetric(ratio, "cycle-ratio")
		})
	}
}

// BenchmarkAblationCycleSearch compares the cost of the exact Farkas
// invariant computation against the whole Solve on the figure nets: the
// paper's complexity discussion (reduction enumeration exponential,
// per-reduction scheduling polynomial).
func BenchmarkAblationCycleSearch(b *testing.B) {
	nets := figures.All()
	for _, name := range []string{"figure3a", "figure4", "figure5"} {
		n := nets[name]
		b.Run(name+"/invariants", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := invariant.TInvariants(n, invariant.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/solve", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Solve(n, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationScheduleExplore runs the cycle-strategy exploration on
// the ATM model: the code-batching vs. buffer-memory tradeoff the paper's
// conclusion proposes to explore.
func BenchmarkAblationScheduleExplore(b *testing.B) {
	m := atm.New()
	tr := trace.New()
	var pts []core.TradeoffPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = core.Explore(m.Net, core.Options{Trace: tr})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, pt := range pts {
		b.ReportMetric(float64(pt.TotalBufferBound), pt.Strategy.String()+"-buffers")
	}
	// Split the exploration's cost between the strategy loop and the
	// per-strategy cycle realisations it nests.
	rep := tr.Report()
	if p, ok := rep.Phase("core/explore"); ok && b.N > 0 {
		b.ReportMetric(p.TotalMS/float64(b.N), "explore-ms/op")
	}
	if p, ok := rep.Phase("core/cycle"); ok && b.N > 0 {
		b.ReportMetric(float64(p.Count)/float64(b.N), "cycle-searches/op")
	}
}

// BenchmarkAblationSafeNetBaseline contrasts Lin's safe-net synthesis
// (rejects every net of the paper: they all have environment inputs) with
// QSS on the figure nets, plus the state-machine synthesis on a safe
// closed control loop where Lin's method does apply.
func BenchmarkAblationSafeNetBaseline(b *testing.B) {
	b.Run("figures-rejected", func(b *testing.B) {
		nets := figures.All()
		for i := 0; i < b.N; i++ {
			for _, name := range []string{"figure3a", "figure4", "figure5"} {
				if _, err := safenet.Synthesize(nets[name], safenet.Options{}); err == nil {
					b.Fatal("Lin's method must reject nets with environment inputs")
				}
			}
		}
	})
	b.Run("safe-loop", func(b *testing.B) {
		nb := NewBuilder("loop")
		idle := nb.MarkedPlace("idle", 1)
		decide := nb.Place("decide")
		poll := nb.Transition("poll")
		work := nb.Transition("work")
		skip := nb.Transition("skip")
		nb.Chain(idle, poll, decide)
		nb.Arc(decide, work)
		nb.Arc(decide, skip)
		nb.ArcTP(work, idle)
		nb.ArcTP(skip, idle)
		n := nb.Build()
		var states int
		for i := 0; i < b.N; i++ {
			res, err := safenet.Synthesize(n, safenet.Options{})
			if err != nil {
				b.Fatal(err)
			}
			states = res.States
		}
		b.ReportMetric(float64(states), "states")
	})
}

// BenchmarkAblationWorkloadSweep sweeps the cell arrival burstiness and
// reports the Table I cycle ratio at each point: the QSS advantage must
// persist across traffic shapes, not just at the default workload.
func BenchmarkAblationWorkloadSweep(b *testing.B) {
	for _, gap := range []int64{2, 4, 8, 16} {
		b.Run(benchName("gap", gap), func(b *testing.B) {
			wl := atm.DefaultWorkload()
			wl.CellMeanGap = gap
			var ratio float64
			for i := 0; i < b.N; i++ {
				res, err := atm.RunTableI(wl, rtos.DefaultCostModel())
				if err != nil {
					b.Fatal(err)
				}
				ratio = float64(res.Functional.ClockCycles) / float64(res.QSS.ClockCycles)
			}
			b.ReportMetric(ratio, "cycle-ratio")
		})
	}
}

// BenchmarkAblationResponseTimes measures worst/average per-event response
// time of both ATM implementations on a single CPU with real arrival
// times — the real-time facet of the paper's motivation.
func BenchmarkAblationResponseTimes(b *testing.B) {
	var res *atm.ResponseResult
	for i := 0; i < b.N; i++ {
		r, err := atm.RunResponseTimes(atm.DefaultWorkload(), rtos.DefaultCostModel(), 400, 0)
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	b.ReportMetric(float64(res.QSS.ResponseMax), "qss-resp-max")
	b.ReportMetric(float64(res.Functional.ResponseMax), "func-resp-max")
	b.ReportMetric(float64(res.QSS.ResponseAvg), "qss-resp-avg")
	b.ReportMetric(float64(res.Functional.ResponseAvg), "func-resp-avg")
}

// BenchmarkAblationBDFBaseline contrasts Buck-style bounded BDF search
// (three-valued: it can only answer "unknown" on the adversarial join)
// with the decisive QSS verdict on the FCPN abstraction — the paper's
// decidability argument, measured.
func BenchmarkAblationBDFBaseline(b *testing.B) {
	g := bdf.NewGraph()
	src := g.AddCompute("src")
	sw := g.AddSwitch("sw")
	join := g.AddCompute("join")
	check := func(err error) {
		if err != nil {
			b.Fatal(err)
		}
	}
	check(g.Connect(src, src, 1, 1, 1))
	check(g.Connect(src, sw, 1, 1, 0))
	check(g.ConnectRole(src, bdf.RoleData, sw, bdf.RoleControl, 0))
	check(g.ConnectRole(sw, bdf.RoleTrue, join, bdf.RoleData, 0))
	check(g.ConnectRole(sw, bdf.RoleFalse, join, bdf.RoleData, 0))
	b.Run("bdf-bounded-search", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			verdict, _, err := g.CheckBoundedSchedulable(4, 0)
			if err != nil || verdict != bdf.Unknown {
				b.Fatalf("verdict = %v, %v", verdict, err)
			}
		}
	})
	b.Run("fcpn-decides", func(b *testing.B) {
		n, err := g.Abstract("join")
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			if _, err := core.Solve(n, core.Options{}); err == nil {
				b.Fatal("abstraction must be definitively not schedulable")
			}
		}
	})
}

// BenchmarkModemComparison runs the second case study (an extension): the
// soft-modem receive path, specified through the process-network frontend,
// QSS (2 tasks) versus a 3-module functional baseline.
func BenchmarkModemComparison(b *testing.B) {
	var res *modem.ComparisonResult
	for i := 0; i < b.N; i++ {
		r, err := modem.RunComparison(modem.DefaultWorkload(), rtos.DefaultCostModel())
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	b.ReportMetric(float64(res.QSS.ClockCycles), "qss-cycles")
	b.ReportMetric(float64(res.Functional.ClockCycles), "func-cycles")
	b.ReportMetric(float64(res.Functional.ClockCycles)/float64(res.QSS.ClockCycles), "cycle-ratio")
}

// BenchmarkScalingSolve measures full-pipeline synthesis time on randomly
// generated schedulable nets of growing choice depth: the practical face
// of the paper's complexity discussion.
func BenchmarkScalingSolve(b *testing.B) {
	for _, depth := range []int{3, 5, 7, 9} {
		cfg := netgen.Config{
			MaxSources:   2,
			MaxDepth:     depth,
			MaxBranch:    2,
			MaxWeight:    3,
			ChoicePct:    60,
			MultiratePct: 25,
		}
		n := netgen.RandomSchedulablePipeline(uint64(depth)*977, cfg)
		b.Run(benchName("depth", int64(depth)), func(b *testing.B) {
			var cycles int
			for i := 0; i < b.N; i++ {
				syn, err := Synthesize(n, Options{})
				if err != nil {
					b.Fatal(err)
				}
				cycles = len(syn.Schedule.Cycles)
			}
			b.ReportMetric(float64(n.NumTransitions()), "transitions")
			b.ReportMetric(float64(cycles), "cycles-in-schedule")
		})
	}
}

func benchName(prefix string, v int64) string {
	const digits = "0123456789"
	if v == 0 {
		return prefix + "0"
	}
	var buf [24]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = digits[v%10]
		v /= 10
	}
	return prefix + string(buf[i:])
}
