package engine

import (
	"encoding/json"
	"errors"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"fcpn/internal/atm"
	"fcpn/internal/core"
	"fcpn/internal/figures"
	"fcpn/internal/modem"
	"fcpn/internal/netgen"
	"fcpn/internal/petri"
	"fcpn/internal/trace"
)

// corpus returns the determinism test set: every figure net plus a 50-net
// netgen corpus, in a deterministic order.
func corpus() []*petri.Net {
	var nets []*petri.Net
	all := figures.All()
	var keys []string
	for k := range all {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		nets = append(nets, all[k])
	}
	for seed := uint64(0); seed < 50; seed++ {
		nets = append(nets, netgen.RandomSchedulablePipeline(seed, netgen.DefaultConfig()))
	}
	return nets
}

func reportJSON(t *testing.T, rep *NetReport) string {
	t.Helper()
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// analyze runs e.Analyze and fails the test on error.
func analyze(t *testing.T, e *Engine, n *petri.Net) *NetReport {
	t.Helper()
	rep, err := e.Analyze(n)
	if err != nil {
		t.Fatalf("net %q: analyze: %v", n.Name(), err)
	}
	return rep
}

// outcome is the full byte-comparable engine result for one net: the
// report plus, when schedulable, the generated C.
func outcome(t *testing.T, e *Engine, n *petri.Net) string {
	t.Helper()
	rep := analyze(t, e, n)
	s := reportJSON(t, rep)
	if rep.Schedulable {
		syn, err := e.Synthesize(n)
		if err != nil {
			t.Fatalf("net %q: analyze says schedulable but synthesize failed: %v", n.Name(), err)
		}
		s += "\n" + syn.C(true)
	}
	return s
}

// wideWorkers is the pool size for the "parallel" side of determinism
// tests: max(NumCPU, 4). On hosts with fewer than four CPUs this
// oversubscribes the pool on purpose — four workers time-slicing one or
// two CPUs interleave goroutines far more aggressively than a
// one-worker pool ever would, which is exactly the scheduling pressure
// the determinism tests need.
func wideWorkers() int {
	if n := runtime.NumCPU(); n > 4 {
		return n
	}
	return 4
}

// TestEngineDeterminism is the acceptance criterion: for every figure net
// and a 50-net netgen corpus, results (reports, schedules, bounds,
// generated C) are byte-identical between cold run, warm-cache run, and
// workers=1 vs workers=max(4, NumCPU).
func TestEngineDeterminism(t *testing.T) {
	nets := corpus()
	serial := New(Config{Workers: 1})
	defer serial.Close()
	wide := New(Config{Workers: wideWorkers()})
	defer wide.Close()

	for _, n := range nets {
		cold := outcome(t, serial, n)
		warm := outcome(t, serial, n)
		if cold != warm {
			t.Fatalf("net %q: warm run differs from cold run:\n%s\nvs\n%s", n.Name(), warm, cold)
		}
		wideCold := outcome(t, wide, n)
		wideWarm := outcome(t, wide, n)
		if wideCold != cold {
			t.Fatalf("net %q: workers=%d differs from workers=1:\n%s\nvs\n%s",
				n.Name(), wide.Workers(), wideCold, cold)
		}
		if wideWarm != cold {
			t.Fatalf("net %q: warm wide run differs", n.Name())
		}
	}
	if s := wide.Stats(); s.CacheHits == 0 {
		t.Error("warm runs produced no cache hits")
	}
}

// callOrderCorpus is the figures, the ATM server, the modem and netgen
// seeds 0–499 of both generators, in a fixed order.
func callOrderCorpus(t *testing.T) []*petri.Net {
	t.Helper()
	nets := corpus()[:len(figures.All())]
	mm, err := modem.New()
	if err != nil {
		t.Fatal(err)
	}
	nets = append(nets, atm.New().Net, mm.Net)
	for seed := uint64(0); seed < 500; seed++ {
		nets = append(nets,
			netgen.RandomSchedulablePipeline(seed, netgen.DefaultConfig()),
			netgen.RandomNet(seed, netgen.DefaultConfig()))
	}
	return nets
}

// TestEngineCallOrderInvariant checks that a report does not depend on
// what the engine was asked before: a second Analyze of a net, and an
// Analyze after Synthesize in another engine, both equal the first
// Analyze byte for byte, and Synthesize fails with the report's
// schedule_error whenever the report has one. The corpus runs at
// Core.MaxRows default and 4, so unschedulable nets, whose errors are
// never cached, are exercised along with semiflow enumerations past
// their cap.
func TestEngineCallOrderInvariant(t *testing.T) {
	nets := callOrderCorpus(t)
	for _, maxRows := range []int{0, 4} {
		cfg := Config{Workers: 1, Core: core.Options{MaxRows: maxRows}}
		analyzeFirst, synthFirst := New(cfg), New(cfg)
		for _, n := range nets {
			cold := analyze(t, analyzeFirst, n)
			want := reportJSON(t, cold)
			if got := reportJSON(t, analyze(t, analyzeFirst, n)); got != want {
				t.Fatalf("MaxRows %d, net %q: second Analyze differs from the first:\n%s\nvs\n%s", maxRows, n.Name(), got, want)
			}
			_, serr := synthFirst.Synthesize(n)
			if got := reportJSON(t, analyze(t, synthFirst, n)); got != want {
				t.Fatalf("MaxRows %d, net %q: Analyze after Synthesize differs from a cold Analyze:\n%s\nvs\n%s", maxRows, n.Name(), got, want)
			}
			if cold.ScheduleError != "" && (serr == nil || serr.Error() != cold.ScheduleError) {
				t.Fatalf("MaxRows %d, net %q: Synthesize error %v, the report's schedule_error %q", maxRows, n.Name(), serr, cold.ScheduleError)
			}
		}
		analyzeFirst.Close()
		synthFirst.Close()
	}
}

// TestEngineKeepDuplicateReductions runs the engine's reference sweep,
// core.Solve on the twin under Core.KeepDuplicateReductions, beside the
// default sweep over the figures and netgen.RandomNet seeds 1–40: both
// give the same verdict and reductions, a second Analyze repeats the
// first byte for byte, and every cycle of the reference engine's
// schedule is a finite complete cycle.
func TestEngineKeepDuplicateReductions(t *testing.T) {
	nets := corpus()[:len(figures.All())]
	for seed := uint64(1); seed <= 40; seed++ {
		nets = append(nets, netgen.RandomNet(seed, netgen.DefaultConfig()))
	}
	ref := New(Config{Workers: 1, Core: core.Options{KeepDuplicateReductions: true}})
	defer ref.Close()
	def := New(Config{Workers: 1})
	defer def.Close()
	schedulable := 0
	for _, n := range nets {
		rep, want := analyze(t, ref, n), analyze(t, def, n)
		if rep.Schedulable != want.Schedulable || !slices.EqualFunc(rep.Reductions, want.Reductions, slices.Equal) {
			t.Fatalf("%s: reference sweep gives schedulable %v with reductions %v, the default %v with %v",
				n.Name(), rep.Schedulable, rep.Reductions, want.Schedulable, want.Reductions)
		}
		if got, first := reportJSON(t, analyze(t, ref, n)), reportJSON(t, rep); got != first {
			t.Fatalf("%s: second Analyze differs from the first:\n%s\nvs\n%s", n.Name(), got, first)
		}
		if !rep.Schedulable {
			continue
		}
		schedulable++
		syn, err := ref.Synthesize(n)
		if err != nil {
			t.Fatalf("%s: %v", n.Name(), err)
		}
		for i, c := range syn.Schedule.Cycles {
			if err := core.VerifyCompleteCycle(n, c.Sequence); err != nil {
				t.Fatalf("%s: cycle %d: %v", n.Name(), i, err)
			}
		}
	}
	if schedulable == 0 {
		t.Fatal("no schedulable net checked")
	}
	t.Logf("%d of %d nets schedulable", schedulable, len(nets))
}

// TestEngineAllocationsMatchEnumeration checks the allocations the engine
// reads off cached firing sequences. Every cycle of a schedule, built cold
// or read from the cache by a shuffled twin, keeps exactly the transitions
// it fires, and carries the allocation of the distinct reduction that
// EnumerateDistinctReductions finds on the same net with the same kept
// transitions: a choice the reduction removed stays at that net's first
// alternative, whichever twin filled the cache. The reductions read off
// the schedule's export are the cycles' kept sets.
func TestEngineAllocationsMatchEnumeration(t *testing.T) {
	nets := corpus()
	for seed := uint64(0); seed < 50; seed++ {
		nets = append(nets, netgen.RandomNet(seed, netgen.DefaultConfig()))
	}
	rng := rand.New(rand.NewSource(2))
	e := New(Config{Workers: 1})
	defer e.Close()
	cycles := 0
	for _, orig := range nets {
		for _, n := range []*petri.Net{orig, shuffled(orig, rng)} {
			syn, err := e.Synthesize(n)
			if err != nil {
				continue
			}
			reds, err := core.EnumerateDistinctReductions(n, 0)
			if err != nil {
				t.Fatalf("%s: %v", n.Name(), err)
			}
			cycleReds := make([]*core.Reduction, len(syn.Schedule.Cycles))
			for i, c := range syn.Schedule.Cycles {
				var fired []petri.Transition
				for t, k := range n.FiringCount(c.Sequence) {
					if k > 0 {
						fired = append(fired, petri.Transition(t))
					}
				}
				red := core.Reduce(n, c.Allocation)
				cycleReds[i] = red
				if kept := red.KeptTransitions(); !slices.Equal(fired, kept) {
					t.Fatalf("%s: cycle %d fires %v, its allocation keeps %v", n.Name(), i, n.SequenceNames(fired), n.SequenceNames(kept))
				}
				j := slices.IndexFunc(reds, func(r *core.Reduction) bool { return r.CompareKept(red) == 0 })
				if j < 0 {
					t.Fatalf("%s: cycle %d keeps %v, no distinct reduction does", n.Name(), i, n.SequenceNames(fired))
				}
				want := reds[j]
				if got := c.Allocation.Chosen; !slices.Equal(got, want.Allocation.Chosen) {
					t.Fatalf("%s: cycle %d chooses %v, the enumeration %v", n.Name(), i, n.SequenceNames(got), n.SequenceNames(want.Allocation.Chosen))
				}
			}
			// The report reads its reductions off the export, which is
			// what it lists when they are the cycles' kept sets.
			got, want := exportedReductions(syn.Schedule.Export()), reductionNames(n, cycleReds)
			if !slices.EqualFunc(got, want, slices.Equal) {
				t.Fatalf("%s: reductions read off the export %v, kept sets %v", n.Name(), got, want)
			}
			cycles += len(syn.Schedule.Cycles)
		}
	}
	if cycles < 1000 {
		t.Fatalf("only %d cycles checked", cycles)
	}
	t.Logf("%d cycles checked", cycles)
}

// TestRebuildRejectsTwoAlternatives feeds rebuildSchedule a cached cycle
// that fires both alternatives of Figure 4's choice: no reduction keeps
// both, so the payload is corrupt and the rebuild must say which choice.
func TestRebuildRejectsTwoAlternatives(t *testing.T) {
	n := figures.Figure4()
	cf := n.CanonicalForm()
	pos := func(name string) petri.Transition {
		tr, _ := n.TransitionByName(name)
		return petri.Transition(cf.TransPos[tr])
	}
	good := core.Cycle{Sequence: []petri.Transition{pos("t1"), pos("t2"), pos("t1"), pos("t2"), pos("t4")}}
	if _, err := rebuildSchedule(n, cf, packSchedule(n.NumTransitions(), []core.Cycle{good})); err != nil {
		t.Fatalf("rebuild of a valid cycle: %v", err)
	}
	bad := core.Cycle{Sequence: []petri.Transition{pos("t1"), pos("t2"), pos("t1"), pos("t3"), pos("t5"), pos("t5")}}
	_, err := rebuildSchedule(n, cf, packSchedule(n.NumTransitions(), []core.Cycle{good, bad}))
	if want := `engine: cached cycle fires 2 alternatives of choice "p1" of net "figure4"`; err == nil || err.Error() != want {
		t.Fatalf("rebuild of a cycle firing t2 and t3: err = %v, want %s", err, want)
	}
}

// TestEngineBatchOrderAndConcurrency checks AnalyzeBatch returns results
// in input order and that concurrent submission of the same net through
// the singleflight produces identical reports.
func TestEngineBatchOrderAndConcurrency(t *testing.T) {
	e := New(Config{Workers: wideWorkers()})
	defer e.Close()
	n := figures.Figure5()
	nets := make([]*petri.Net, 32)
	for i := range nets {
		nets[i] = n
	}
	results, err := e.AnalyzeBatch(nets)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(nets) {
		t.Fatalf("got %d results", len(results))
	}
	want := reportJSON(t, results[0].Report)
	for i, r := range results {
		if got := reportJSON(t, r.Report); got != want {
			t.Fatalf("result %d differs:\n%s\nvs\n%s", i, got, want)
		}
	}
	if s := e.Stats(); s.Jobs != int64(len(nets)) {
		t.Errorf("jobs = %d, want %d", s.Jobs, len(nets))
	}
}

// TestEngineSharesAcrossRenamedNets checks content addressing: a
// structurally identical net with different names hits the cache and
// still reports its own names.
func TestEngineSharesAcrossRenamedNets(t *testing.T) {
	build := func(prefix string) *petri.Net {
		b := petri.NewBuilder(prefix + "net")
		src := b.Transition(prefix + "src")
		p := b.Place(prefix + "p")
		sink := b.Transition(prefix + "sink")
		b.Chain(src, p, sink)
		return b.Build()
	}
	e := New(Config{Workers: 1})
	defer e.Close()
	a := analyze(t, e, build("a_"))
	hitsBefore := e.Stats().CacheHits
	bb := analyze(t, e, build("b_"))
	if e.Stats().CacheHits <= hitsBefore {
		t.Error("renamed twin did not hit the cache")
	}
	if a.Hash != bb.Hash {
		t.Errorf("isomorphic nets hash differently: %s vs %s", a.Hash, bb.Hash)
	}
	if !bb.Schedulable || len(bb.Schedule.Cycles) != 1 {
		t.Fatalf("bad twin report: %+v", bb)
	}
	if bb.Schedule.Cycles[0].Sequence[0] != "b_src" {
		t.Errorf("twin report leaked foreign names: %v", bb.Schedule.Cycles[0].Sequence)
	}
}

// TestEngineCacheEviction checks a tiny cache still yields correct,
// deterministic results (entries are recomputed after eviction).
func TestEngineCacheEviction(t *testing.T) {
	small := New(Config{Workers: 2})
	defer small.Close()
	small.cache = newCache(2, &small.counters, small.tracer) // before any job reads it
	big := New(Config{Workers: 2})
	defer big.Close()
	for _, n := range corpus()[:12] {
		if a, b := outcome(t, small, n), outcome(t, big, n); a != b {
			t.Fatalf("net %q: eviction changed the result", n.Name())
		}
	}
}

// TestEngineUnschedulableDiagnostics checks failures are reported, not
// cached into wrong verdicts.
func TestEngineUnschedulableDiagnostics(t *testing.T) {
	e := New(Config{Workers: 2})
	defer e.Close()
	for i := 0; i < 2; i++ {
		rep := analyze(t, e, figures.Figure3b())
		if rep.Schedulable || rep.ScheduleError == "" {
			t.Fatalf("figure3b must be diagnosed unschedulable: %+v", rep)
		}
		if _, err := e.Synthesize(figures.Figure3b()); err == nil {
			t.Fatal("synthesize must fail on figure3b")
		}
	}
}

// TestEngineClosedError checks every submission path after Close fails
// fast with the typed ErrEngineClosed instead of panicking on the closed
// job channel.
func TestEngineClosedError(t *testing.T) {
	e := New(Config{Workers: 2})
	e.Close()
	n := figures.Figure5()
	if _, err := e.Analyze(n); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("Analyze after Close: err = %v, want ErrEngineClosed", err)
	}
	if _, err := e.AnalyzeBatch([]*petri.Net{n, n}); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("AnalyzeBatch after Close: err = %v, want ErrEngineClosed", err)
	}
	if _, err := e.Synthesize(n); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("Synthesize after Close: err = %v, want ErrEngineClosed", err)
	}
	e.Close() // second Close must stay a no-op
}

// phaseCounts projects a trace report onto its deterministic part: the
// number of times each phase ran. Durations are wall-clock noise; counts
// are a function of the net alone and must not depend on the worker-pool
// size.
func phaseCounts(rep *trace.Report) map[string]int64 {
	counts := make(map[string]int64)
	if rep == nil {
		return counts
	}
	for _, p := range rep.Phases {
		counts[p.Name] = p.Count
	}
	return counts
}

// TestTraceWorkerCountIndependence checks the per-job phase trace is
// structurally identical — same phases, same per-phase counts — between a
// one-worker and a four-worker cold analysis of the same corpus. Only
// durations may differ.
func TestTraceWorkerCountIndependence(t *testing.T) {
	nets := corpus()[:8]
	serial := New(Config{Workers: 1})
	defer serial.Close()
	wide := New(Config{Workers: 4})
	defer wide.Close()

	srs, err := serial.AnalyzeBatch(nets)
	if err != nil {
		t.Fatal(err)
	}
	wrs, err := wide.AnalyzeBatch(nets)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range nets {
		sc, wc := phaseCounts(srs[i].Trace), phaseCounts(wrs[i].Trace)
		if len(sc) == 0 {
			t.Fatalf("net %q: empty serial trace", n.Name())
		}
		if !maps.Equal(sc, wc) {
			t.Errorf("net %q: phase counts depend on worker count:\nworkers=1: %v\nworkers=4: %v",
				n.Name(), sc, wc)
		}
	}
}

// TestTraceCoversElapsed checks the acceptance property behind the qssd
// trace block: for a cold analysis, the non-detail phases partition the
// job and their summed duration does not exceed the job's elapsed wall
// time (spans nest inside the measured window).
func TestTraceCoversElapsed(t *testing.T) {
	e := New(Config{Workers: 1})
	defer e.Close()
	results, err := e.AnalyzeBatch(corpus()[:8])
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Trace == nil {
			t.Fatalf("result %d: nil trace", i)
		}
		top := r.Trace.TopTotalMS()
		elapsed := float64(r.Elapsed.Nanoseconds()) / 1e6
		if top > elapsed*1.02+0.05 {
			t.Errorf("result %d: top-level phases sum to %.3f ms, beyond elapsed %.3f ms", i, top, elapsed)
		}
	}
}
