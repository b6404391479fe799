package atm

import (
	"testing"

	"fcpn/internal/codegen"
	"fcpn/internal/core"
	"fcpn/internal/petri"
	"fcpn/internal/rtos"
	"fcpn/internal/sim"
)

func buildQSS(t *testing.T, m *Model) *codegen.Program {
	t.Helper()
	s, err := core.Solve(m.Net, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tp, err := core.PartitionTasks(m.Net, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := codegen.Generate(s, tp)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func TestBehaviourConservation(t *testing.T) {
	m := New()
	prog := buildQSS(t, m)
	server := NewServer(m, DefaultConfig())
	w := NewWorkload(m, DefaultWorkload())
	_, err := sim.RunRobust(prog, w.Events, rtos.DefaultCostModel(), sim.RobustConfig{}, sim.Hooks{
		Resolver:    server.Resolver(),
		OnFire:      server.OnFire,
		BeforeEvent: w.CellFeeder(m, server),
	})
	if err != nil {
		t.Fatal(err)
	}
	st := server.Stats
	if st.CellsSeen != 50 {
		t.Fatalf("cells seen = %d", st.CellsSeen)
	}
	// Cell conservation: every cell is admitted or dropped.
	if st.CellsAdmitted+st.CellsDropped != st.CellsSeen {
		t.Fatalf("cells leak: admitted %d + dropped %d != seen %d",
			st.CellsAdmitted, st.CellsDropped, st.CellsSeen)
	}
	// Buffer conservation: every admitted cell is emitted, dropped stale,
	// lost to port contention, or still buffered.
	if st.CellsEmitted+st.StaleDrops+st.PortDrops+server.Occupancy() != st.CellsAdmitted {
		t.Fatalf("buffer leak: emitted %d + stale %d + port %d + held %d != admitted %d",
			st.CellsEmitted, st.StaleDrops, st.PortDrops, server.Occupancy(), st.CellsAdmitted)
	}
	// Slot conservation: every slot emits, idles, retries or drops stale.
	if st.SlotsSeen == 0 || st.CellsEmitted == 0 {
		t.Fatalf("no traffic processed: %+v", st)
	}
	if server.VirtualTime() <= 0 {
		t.Fatal("virtual time never advanced")
	}
}

func TestBehaviourBufferNeverOverflows(t *testing.T) {
	m := New()
	prog := buildQSS(t, m)
	cfg := DefaultConfig()
	cfg.BufferCapacity = 4
	server := NewServer(m, cfg)
	// Flood: many cells, few ticks.
	wl := DefaultWorkload()
	wl.Cells = 120
	wl.CellMeanGap = 2
	wl.TickPeriod = 40
	w := NewWorkload(m, wl)
	occCheck := 0
	_, err := sim.RunRobust(prog, w.Events, rtos.DefaultCostModel(), sim.RobustConfig{}, sim.Hooks{
		Resolver: server.Resolver(),
		OnFire: func(tr petri.Transition) {
			server.OnFire(tr)
			if server.Occupancy() > cfg.BufferCapacity {
				occCheck++
			}
		},
		BeforeEvent: w.CellFeeder(m, server),
	})
	if err != nil {
		t.Fatal(err)
	}
	if occCheck != 0 {
		t.Fatalf("occupancy exceeded capacity %d times", occCheck)
	}
	if server.Stats.CellsDropped == 0 {
		t.Fatal("flooding a tiny buffer must trigger the discard policy")
	}
}

func TestWFQWeightedService(t *testing.T) {
	// With both VCs permanently backlogged, WFQ serves them in proportion
	// to their weights. Enqueue 16 cells on VC1 (weight 8) interleaved
	// with 16 on VC4 (weight 1); among the first nine services exactly
	// eight must go to VC1 (finish times 8192·k vs 65536·k).
	m := New()
	cfg := Config{
		BufferCapacity: 64,
		MaxAge:         1 << 30,
		VCs:            map[int]VCConfig{1: {Weight: 8}, 4: {Weight: 1}},
	}
	server := NewServer(m, cfg)
	tEnqueue, _ := m.Net.TransitionByName("t_enqueue")
	tSelect, _ := m.Net.TransitionByName("t_select")
	tDequeue, _ := m.Net.TransitionByName("t_dequeue")
	for i := 0; i < 16; i++ {
		for _, vc := range []int{1, 4} {
			server.BeginCell(CellHeader{VC: vc, HdrOK: true})
			server.OnFire(tEnqueue)
		}
	}
	if server.Occupancy() != 32 {
		t.Fatalf("occupancy = %d", server.Occupancy())
	}
	served := map[int]int{}
	for i := 0; i < 9; i++ {
		server.OnFire(tSelect)
		served[server.selected.vc]++
		server.OnFire(tDequeue)
	}
	if served[1] != 8 || served[4] != 1 {
		t.Fatalf("first nine services = %v, want VC1:8 VC4:1 (weights 8:1)", served)
	}
}

func TestWorkloadDeterminism(t *testing.T) {
	m := New()
	w1 := NewWorkload(m, DefaultWorkload())
	w2 := NewWorkload(m, DefaultWorkload())
	if len(w1.Events) != len(w2.Events) || len(w1.Cells) != len(w2.Cells) {
		t.Fatal("workload not deterministic")
	}
	for i := range w1.Events {
		if w1.Events[i] != w2.Events[i] {
			t.Fatal("event streams differ")
		}
	}
	for i := range w1.Cells {
		if w1.Cells[i] != w2.Cells[i] {
			t.Fatal("cell streams differ")
		}
	}
	// Sanity on defaults clamping.
	w3 := NewWorkload(m, WorkloadConfig{})
	if len(w3.Cells) != 50 {
		t.Fatalf("default cells = %d", len(w3.Cells))
	}
}

func TestTableIReproduction(t *testing.T) {
	res, err := RunTableI(DefaultWorkload(), rtos.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	// Paper Table I shape: QSS has 2 tasks vs 5, fewer lines of C and
	// fewer clock cycles.
	if res.QSS.Tasks != 2 {
		t.Fatalf("QSS tasks = %d, want 2", res.QSS.Tasks)
	}
	if res.Functional.Tasks != 5 {
		t.Fatalf("functional tasks = %d, want 5", res.Functional.Tasks)
	}
	if res.QSS.LinesOfC >= res.Functional.LinesOfC {
		t.Fatalf("QSS LoC %d must beat functional %d (paper: 1664 vs 2187)",
			res.QSS.LinesOfC, res.Functional.LinesOfC)
	}
	if res.QSS.ClockCycles >= res.Functional.ClockCycles {
		t.Fatalf("QSS cycles %d must beat functional %d (paper: 197526 vs 249726)",
			res.QSS.ClockCycles, res.Functional.ClockCycles)
	}
	ratio := float64(res.Functional.ClockCycles) / float64(res.QSS.ClockCycles)
	if ratio < 1.05 || ratio > 2.0 {
		t.Fatalf("cycle ratio %.2f outside plausible band around the paper's 1.26", ratio)
	}
	if res.QSS.Activations >= res.Functional.Activations {
		t.Fatal("QSS must need fewer task activations")
	}
	if got := res.Format(); len(got) == 0 {
		t.Fatal("empty format")
	}
}

// TestRobustModularMatchesTableI drives the functional baseline through
// the simulator's modular cascade directly: the cascade's firings and ops
// are charged once per event, so the run reproduces Table I's functional
// column.
func TestRobustModularMatchesTableI(t *testing.T) {
	m := New()
	var modules []codegen.Module
	for _, mod := range m.Modules() {
		modules = append(modules, codegen.Module{Name: mod.Name, Transitions: mod.Transitions})
	}
	prog, err := codegen.GenerateModular(m.Net, modules)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorkload(m, DefaultWorkload())
	server := NewServer(m, DefaultConfig())
	rm, err := sim.RunRobust(prog, w.Events, rtos.DefaultCostModel(), sim.RobustConfig{Modular: true}, sim.Hooks{
		Resolver:    server.Resolver(),
		OnFire:      server.OnFire,
		BeforeEvent: w.CellFeeder(m, server),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rm.Cycles != 318602 || rm.Activations != 472 || rm.Polls != 1408 {
		t.Fatalf("functional run: cycles=%d activations=%d polls=%d, want 318602/472/1408",
			rm.Cycles, rm.Activations, rm.Polls)
	}
}

func TestResponseTimesQSSWins(t *testing.T) {
	res, err := RunResponseTimes(DefaultWorkload(), rtos.DefaultCostModel(), 400, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.QSS.ResponseMax <= 0 || res.Functional.ResponseMax <= 0 {
		t.Fatalf("responses not recorded: %+v", res)
	}
	// The functional baseline pays scheduler cascades per event: both its
	// worst and average response must exceed QSS's.
	if res.Functional.ResponseMax <= res.QSS.ResponseMax {
		t.Fatalf("functional max response %d must exceed QSS %d",
			res.Functional.ResponseMax, res.QSS.ResponseMax)
	}
	if res.Functional.ResponseAvg <= res.QSS.ResponseAvg {
		t.Fatalf("functional avg response %d must exceed QSS %d",
			res.Functional.ResponseAvg, res.QSS.ResponseAvg)
	}
	// With a deadline between the two worst cases, only the baseline
	// misses.
	deadline := (res.QSS.ResponseMax + res.Functional.ResponseMax) / 2
	res2, err := RunResponseTimes(DefaultWorkload(), rtos.DefaultCostModel(), 400, deadline)
	if err != nil {
		t.Fatal(err)
	}
	if res2.QSS.DeadlineMisses != 0 {
		t.Fatalf("QSS missed %d deadlines below its own worst case", res2.QSS.DeadlineMisses)
	}
	if res2.Functional.DeadlineMisses == 0 {
		t.Fatal("functional baseline must miss the tight deadline")
	}
}

func TestEarlyPacketDiscard(t *testing.T) {
	// With an EPD threshold well below capacity and slow draining, new
	// messages are refused before the buffer ever fills: drops happen
	// while peak occupancy stays under the hard capacity.
	m := New()
	prog := buildQSS(t, m)
	cfg := DefaultConfig()
	cfg.BufferCapacity = 32
	cfg.EPDThreshold = 6
	server := NewServer(m, cfg)
	wl := DefaultWorkload()
	wl.Cells = 80
	wl.CellMeanGap = 2
	wl.TickPeriod = 50
	wl.EOMPct = 50 // short messages: many message starts to refuse
	w := NewWorkload(m, wl)
	peak := 0
	_, err := sim.RunRobust(prog, w.Events, rtos.DefaultCostModel(), sim.RobustConfig{}, sim.Hooks{
		Resolver: server.Resolver(),
		OnFire: func(tr petri.Transition) {
			server.OnFire(tr)
			if server.Occupancy() > peak {
				peak = server.Occupancy()
			}
		},
		BeforeEvent: w.CellFeeder(m, server),
	})
	if err != nil {
		t.Fatal(err)
	}
	if server.Stats.CellsDropped == 0 {
		t.Fatal("EPD must drop new messages above the threshold")
	}
	if peak >= cfg.BufferCapacity {
		t.Fatalf("peak occupancy %d reached hard capacity %d: EPD did not protect the buffer",
			peak, cfg.BufferCapacity)
	}
	// Same workload without EPD: fewer early drops, higher peak.
	server2 := NewServer(m, DefaultConfig())
	cfg2 := DefaultConfig()
	cfg2.BufferCapacity = 32
	server2 = NewServer(m, cfg2)
	w2 := NewWorkload(m, wl)
	peak2 := 0
	_, err = sim.RunRobust(buildQSS(t, m), w2.Events, rtos.DefaultCostModel(), sim.RobustConfig{}, sim.Hooks{
		Resolver: server2.Resolver(),
		OnFire: func(tr petri.Transition) {
			server2.OnFire(tr)
			if server2.Occupancy() > peak2 {
				peak2 = server2.Occupancy()
			}
		},
		BeforeEvent: w2.CellFeeder(m, server2),
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak2 <= peak {
		t.Fatalf("without EPD the peak (%d) must exceed the EPD-protected peak (%d)", peak2, peak)
	}
}

func TestStaleCellsDropped(t *testing.T) {
	// With a tiny MaxAge and ticks arriving long after the cells, the
	// head-of-line cells age out and take the t_head_stale path.
	m := New()
	prog := buildQSS(t, m)
	cfg := DefaultConfig()
	cfg.MaxAge = 1
	server := NewServer(m, cfg)
	wl := DefaultWorkload()
	wl.Cells = 30
	wl.CellMeanGap = 2
	wl.TickPeriod = 200 // ticks far apart: cells age before service
	w := NewWorkload(m, wl)
	_, err := sim.RunRobust(prog, w.Events, rtos.DefaultCostModel(), sim.RobustConfig{}, sim.Hooks{
		Resolver:    server.Resolver(),
		OnFire:      server.OnFire,
		BeforeEvent: w.CellFeeder(m, server),
	})
	if err != nil {
		t.Fatal(err)
	}
	if server.Stats.StaleDrops == 0 {
		t.Fatalf("expected stale drops with MaxAge=1: %+v", server.Stats)
	}
	// Conservation still holds with the stale path active.
	st := server.Stats
	if st.CellsEmitted+st.StaleDrops+st.PortDrops+server.Occupancy() != st.CellsAdmitted {
		t.Fatalf("conservation violated: %+v held=%d", st, server.Occupancy())
	}
}
