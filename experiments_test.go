package fcpn

// experiments_test.go is the executable index of EXPERIMENTS.md: one test
// per documented claim, asserting the exact numbers the document states.
// The per-package tests cover the same ground in more depth; this file
// exists so that a single `go test -run TestExperiments .` certifies the
// document end to end.

import (
	"strings"
	"testing"

	"fcpn/internal/atm"
	"fcpn/internal/bdf"
	"fcpn/internal/core"
	"fcpn/internal/figures"
	"fcpn/internal/modem"
	"fcpn/internal/rtos"
	"fcpn/internal/safenet"
	"fcpn/internal/sdf"
)

func TestExperimentsFigure1(t *testing.T) {
	if !figures.Figure1a().IsFreeChoice() {
		t.Fatal("figure 1a must be free-choice")
	}
	if figures.Figure1b().IsFreeChoice() {
		t.Fatal("figure 1b must not be free-choice")
	}
}

func TestExperimentsFigure2(t *testing.T) {
	g, err := sdf.FromPetri(figures.Figure2())
	if err != nil {
		t.Fatal(err)
	}
	q, err := g.RepetitionVector()
	if err != nil || q[0] != 4 || q[1] != 2 || q[2] != 1 {
		t.Fatalf("f(σ) = %v, want (4,2,1)", q)
	}
	sched, err := g.Schedule()
	if err != nil || len(sched) != 7 {
		t.Fatalf("cycle length = %d, want 7", len(sched))
	}
}

func TestExperimentsFigure3(t *testing.T) {
	s, err := Solve(figures.Figure3a(), Options{})
	if err != nil || len(s.Cycles) != 2 {
		t.Fatalf("figure 3a: %v", err)
	}
	cycles := map[string]bool{}
	for _, names := range s.CycleStrings() {
		cycles[strings.Join(names, " ")] = true
	}
	if !cycles["t1 t2 t4"] || !cycles["t1 t3 t5"] {
		t.Fatalf("cycles = %v, want the paper's {(t1 t2 t4),(t1 t3 t5)}", cycles)
	}
	if Schedulable(figures.Figure3b(), Options{}) {
		t.Fatal("figure 3b must not be schedulable")
	}
}

func TestExperimentsFigure4(t *testing.T) {
	s, err := Solve(figures.Figure4(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	cycles := map[string]bool{}
	for _, names := range s.CycleStrings() {
		cycles[strings.Join(names, " ")] = true
	}
	if !cycles["t1 t2 t1 t2 t4"] || !cycles["t1 t3 t5 t5"] {
		t.Fatalf("cycles = %v, want the paper's {(t1 t2 t1 t2 t4),(t1 t3 t5 t5)}", cycles)
	}
	// The Section 4 C listing's control structure.
	syn, err := Synthesize(figures.Figure4(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	src := syn.C(false)
	for _, frag := range []string{
		"if (read_p1())",
		"if (n_p2 >= 2)",
		"while (n_p3 >= 1)",
	} {
		if !strings.Contains(src, frag) {
			t.Fatalf("C missing %q", frag)
		}
	}
}

func TestExperimentsFigure5and6(t *testing.T) {
	n := figures.Figure5()
	// R1's invariants, as the paper lists them over (t1…t9).
	allocs, err := core.EnumerateAllocations(n, 0)
	if err != nil || len(allocs) != 2 {
		t.Fatalf("allocations = %d (%v)", len(allocs), err)
	}
	for _, a := range allocs {
		red := core.Reduce(n, a)
		if n.TransitionName(a.Chosen[0]) != "t2" {
			continue
		}
		rep := core.CheckReduction(n, red, core.Options{})
		got := map[string]bool{}
		for _, ti := range rep.Invariants {
			got[ti.String()] = true
		}
		if !got["[1 1 2 4 0 0]"] || !got["[0 0 0 1 1 1]"] {
			t.Fatalf("R1 invariants = %v", got)
		}
		if first := red.Steps()[0]; first != "remove t3 (unallocated)" {
			t.Fatalf("figure 6 first step = %q", first)
		}
	}
	tp, err := PartitionTasks(n, Options{})
	if err != nil || tp.NumTasks() != 2 {
		t.Fatalf("tasks = %d (%v)", tp.NumTasks(), err)
	}
}

func TestExperimentsFigure7(t *testing.T) {
	_, err := Solve(figures.Figure7(), Options{})
	nse, ok := err.(*NotSchedulableError)
	if !ok || nse.Report.Consistent {
		t.Fatalf("figure 7 verdict = %v", err)
	}
}

func TestExperimentsATMAndTableI(t *testing.T) {
	m := atm.New()
	if m.Net.NumTransitions() != 49 || m.Net.NumPlaces() != 41 ||
		len(m.Net.FreeChoiceSets()) != 11 {
		t.Fatal("ATM shape drifted from 49/41/11")
	}
	s, err := Solve(m.Net, Options{})
	if err != nil || len(s.Cycles) != 56 || s.AllocationCount != 2048 {
		t.Fatalf("ATM schedule: cycles=%d allocations=%d (%v)", len(s.Cycles), s.AllocationCount, err)
	}
	res, err := atm.RunTableI(atm.DefaultWorkload(), rtos.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	// EXPERIMENTS.md's Table I: tasks, lines of C, clock cycles and
	// activations for QSS vs functional partitioning.
	got := [2][4]int64{
		{int64(res.QSS.Tasks), int64(res.QSS.LinesOfC), res.QSS.ClockCycles, res.QSS.Activations},
		{int64(res.Functional.Tasks), int64(res.Functional.LinesOfC), res.Functional.ClockCycles, res.Functional.Activations},
	}
	want := [2][4]int64{
		{2, 265, 231324, 150},
		{5, 369, 318602, 472},
	}
	if got != want {
		t.Fatalf("Table I (tasks, lines of C, cycles, activations) = %v, want %v", got, want)
	}
}

func TestExperimentsAblations(t *testing.T) {
	// Dedup: 2048 cycles without it.
	m := atm.New()
	s, err := Solve(m.Net, Options{KeepDuplicateReductions: true})
	if err != nil || len(s.Cycles) != 2048 {
		t.Fatalf("nodedup cycles = %d (%v)", len(s.Cycles), err)
	}
	// Exploration: batch ≥ demand buffers on the ATM model.
	pts, err := Explore(m.Net, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var batch, demand int
	for _, pt := range pts {
		switch pt.Strategy {
		case StrategyBatch:
			batch = pt.TotalBufferBound
		case StrategyDemand:
			demand = pt.TotalBufferBound
		}
	}
	if batch < 4*demand {
		t.Fatalf("documented ~5× batch/demand buffer gap missing: %d vs %d", batch, demand)
	}
	// Response times: functional worst case exceeds QSS's.
	rr, err := atm.RunResponseTimes(atm.DefaultWorkload(), rtos.DefaultCostModel(), 400, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Functional.ResponseMax < 3*rr.QSS.ResponseMax {
		t.Fatalf("documented ~5.8× response gap missing: %d vs %d",
			rr.Functional.ResponseMax, rr.QSS.ResponseMax)
	}
}

func TestExperimentsBaselines(t *testing.T) {
	// Lin's method rejects every net of the paper.
	for _, n := range []string{"figure3a", "figure4", "figure5"} {
		if _, err := safenet.Synthesize(figures.All()[n], safenet.Options{}); err == nil {
			t.Fatalf("%s: safe-net baseline must reject environment inputs", n)
		}
	}
	// BDF adversarial join: three-valued search says unknown; the FCPN
	// abstraction decides.
	g := bdf.NewGraph()
	src := g.AddCompute("src")
	sw := g.AddSwitch("sw")
	join := g.AddCompute("join")
	for _, err := range []error{
		g.Connect(src, src, 1, 1, 1),
		g.Connect(src, sw, 1, 1, 0),
		g.ConnectRole(src, bdf.RoleData, sw, bdf.RoleControl, 0),
		g.ConnectRole(sw, bdf.RoleTrue, join, bdf.RoleData, 0),
		g.ConnectRole(sw, bdf.RoleFalse, join, bdf.RoleData, 0),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	verdict, _, err := g.CheckBoundedSchedulable(4, 0)
	if err != nil || verdict != bdf.Unknown {
		t.Fatalf("BDF verdict = %v (%v), want unknown", verdict, err)
	}
	abs, err := g.Abstract("join")
	if err != nil {
		t.Fatal(err)
	}
	if Schedulable(abs, Options{}) {
		t.Fatal("FCPN abstraction must decide not-schedulable")
	}
}

func TestExperimentsModem(t *testing.T) {
	res, err := modem.RunComparison(modem.DefaultWorkload(), rtos.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(res.Functional.ClockCycles) / float64(res.QSS.ClockCycles)
	if res.QSS.Tasks != 2 || res.Functional.Tasks != 3 {
		t.Fatalf("modem tasks = %d vs %d", res.QSS.Tasks, res.Functional.Tasks)
	}
	if ratio < 1.1 || ratio > 1.5 {
		t.Fatalf("modem cycle ratio %.2f outside documented 1.27 band", ratio)
	}
}
