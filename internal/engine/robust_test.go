package engine

// Robustness tests for the batch engine: per-job deadlines, panic
// quarantine, one run per job, bounded submission windows, and
// submit/Close races. Faults are injected deterministically through
// Config.FaultHook via fault.EngineInjector, never with ad-hoc sleeps in
// analysis code.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fcpn/internal/core"
	"fcpn/internal/fault"
	"fcpn/internal/figures"
	"fcpn/internal/netgen"
	"fcpn/internal/petri"
)

// genNets builds count distinct netgen nets starting at seed, asserting
// their canonical hashes are pairwise distinct (the fault injector keys
// on hashes, so a collision would silently merge two test subjects).
func genNets(t *testing.T, seed uint64, count int) []*petri.Net {
	t.Helper()
	seen := make(map[string]uint64, count)
	nets := make([]*petri.Net, 0, count)
	for s := seed; len(nets) < count; s++ {
		n := netgen.RandomSchedulablePipeline(s, netgen.DefaultConfig())
		h := n.CanonicalHash()
		if prev, dup := seen[h]; dup {
			t.Logf("seed %d collides with seed %d (hash %s); skipping", s, prev, h)
			continue
		}
		seen[h] = s
		nets = append(nets, n)
	}
	return nets
}

// TestEngineFaultedCorpus is the robustness acceptance check: a corpus
// with one panicking net, one over-deadline net and N healthy nets must
// complete with byte-identical reports for the healthy nets (vs a clean
// engine), typed errors for the faulted ones, and a queue depth bounded
// by the submission window.
func TestEngineFaultedCorpus(t *testing.T) {
	all := genNets(t, 100, 12)
	panicNet, slowNet, healthy := all[0], all[1], all[2:]
	inj := &fault.EngineInjector{
		SlowFor: 2 * time.Second,
		Force: map[string]fault.JobFaultKind{
			panicNet.CanonicalHash(): fault.FaultPanic,
			slowNet.CanonicalHash():  fault.FaultSlow,
		},
	}
	const window = 3
	e := New(Config{
		Workers:      4,
		SubmitWindow: window,
		JobTimeout:   250 * time.Millisecond,
		FaultHook:    inj.Hook(),
	})
	defer e.Close()

	nets := append([]*petri.Net{panicNet, slowNet}, healthy...)
	results, err := e.AnalyzeBatch(nets)
	if err != nil {
		t.Fatalf("faulted batch must not fail as a whole: %v", err)
	}

	// The panicking net: typed error, quarantined hash, partial report
	// that still identifies the net.
	r := results[0]
	if r.Status != StatusPanicked || !errors.Is(r.Err, ErrJobPanicked) {
		t.Fatalf("panic net: status=%s err=%v", r.Status, r.Err)
	}
	if r.Report == nil || r.Report.Hash != panicNet.CanonicalHash() {
		t.Fatalf("panic net: missing/misattributed partial report: %+v", r.Report)
	}

	// The over-deadline net: typed timeout, partial report.
	r = results[1]
	if r.Status != StatusTimeout || !errors.Is(r.Err, ErrJobTimeout) {
		t.Fatalf("slow net: status=%s err=%v", r.Status, r.Err)
	}
	if r.Report == nil || r.Report.Name != slowNet.Name() {
		t.Fatalf("slow net: missing partial report")
	}

	// Healthy nets: byte-identical to a clean (fault-free, no-deadline)
	// engine.
	clean := New(Config{Workers: 4})
	defer clean.Close()
	for i, n := range healthy {
		r := results[2+i]
		if r.Status != StatusOK || r.Err != nil {
			t.Fatalf("healthy net %q: status=%s err=%v", n.Name(), r.Status, r.Err)
		}
		want := reportJSON(t, analyze(t, clean, n))
		if got := reportJSON(t, r.Report); got != want {
			t.Fatalf("healthy net %q: faulted-run report differs from clean run:\n%s\nvs\n%s",
				n.Name(), got, want)
		}
	}

	s := e.Stats()
	if s.Panics != 1 || s.Timeouts != 1 {
		t.Errorf("stats: panics=%d timeouts=%d, want 1/1", s.Panics, s.Timeouts)
	}
	if s.QueueDepthPeak > window {
		t.Errorf("queue depth peaked at %d, window is %d", s.QueueDepthPeak, window)
	}
	if s.QueueDepth != 0 {
		t.Errorf("queue depth %d after batch drained", s.QueueDepth)
	}
	if p, _ := s.Trace.Phase("engine/panic"); p.Count != 1 {
		t.Errorf("engine/panic phase recorded %d times, want 1", p.Count)
	}

	// Resubmitting the panicking net must be refused without running.
	rep, err := e.Analyze(panicNet)
	if !errors.Is(err, ErrQuarantined) {
		t.Fatalf("resubmitted panic net: err=%v, want ErrQuarantined", err)
	}
	if rep == nil || rep.Hash != panicNet.CanonicalHash() {
		t.Fatalf("quarantine refusal lost the identifying report")
	}
	if got := e.QuarantinedHashes(); len(got) != 1 || got[0] != panicNet.CanonicalHash() {
		t.Fatalf("quarantined hashes = %v", got)
	}
	if s := e.Stats(); s.QuarantineSkips != 1 {
		t.Errorf("quarantine skips = %d, want 1", s.QuarantineSkips)
	}
	// Synthesize must refuse it too (same quarantine set).
	if _, err := e.Synthesize(panicNet); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("Synthesize of quarantined net: err=%v", err)
	}
}

// TestEngineNilNetPanics checks that a nil net costs its own job only:
// canonicalising it panics, and the job ends panicked, with the
// engine/panic detail phase in its trace, while the next net in the batch
// and the engine's later jobs run as usual.
func TestEngineNilNetPanics(t *testing.T) {
	e := New(Config{Workers: 1})
	defer e.Close()
	results, err := e.AnalyzeBatch([]*petri.Net{nil, figures.Figure4()})
	if err != nil {
		t.Fatal(err)
	}
	r := results[0]
	if r.Status != StatusPanicked || !errors.Is(r.Err, ErrJobPanicked) {
		t.Fatalf("nil net: status=%s err=%v", r.Status, r.Err)
	}
	if p, ok := r.Trace.Phase("engine/panic"); !ok || p.Count != 1 || !p.Detail {
		t.Fatalf("nil net's trace has engine/panic %+v (found %v), want one detail phase", p, ok)
	}
	if r := results[1]; r.Status != StatusOK || !r.Report.Schedulable {
		t.Fatalf("figure4 after the nil net: status=%s err=%v", r.Status, r.Err)
	}
	if _, err := e.Analyze(nil); !errors.Is(err, ErrJobPanicked) {
		t.Fatalf("Analyze(nil): err=%v, want ErrJobPanicked", err)
	}
	if _, err := e.Synthesize(nil); !errors.Is(err, ErrJobPanicked) {
		t.Fatalf("Synthesize(nil): err=%v, want ErrJobPanicked", err)
	}
	if rep := analyze(t, e, figures.Figure5()); !rep.Schedulable {
		t.Fatalf("figure5 after the nil jobs: %s", rep.ScheduleError)
	}
}

// TestEnginePersistentFaultIsError checks that a job whose fault hook
// fails ends with StatusError and the hook's error intact, from Analyze
// and Synthesize alike, and that the engine runs each job once: the
// budget trip the hook reports is not retried.
func TestEnginePersistentFaultIsError(t *testing.T) {
	n := genNets(t, 400, 1)[0]
	var calls atomic.Int64
	hook := func(ctx context.Context, hash string) error {
		calls.Add(1)
		return fmt.Errorf("%w: persistent: %w", fault.ErrInjected, core.ErrBudgetExceeded)
	}
	e := New(Config{Workers: 1, FaultHook: hook})
	defer e.Close()
	results, err := e.AnalyzeBatch([]*petri.Net{n})
	if err != nil {
		t.Fatal(err)
	}
	r := results[0]
	if r.Status != StatusError || !errors.Is(r.Err, fault.ErrInjected) {
		t.Fatalf("persistent fault: status=%s err=%v", r.Status, r.Err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("Analyze ran the fault hook %d times, want 1", got)
	}
	syn, err := e.Synthesize(n)
	if syn != nil || !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Synthesize under a persistent fault: bundle %v, err %v", syn, err)
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("Synthesize ran the fault hook %d times, want 1", got-1)
	}
}

// TestEngineWaiterOutlivesLeaderDeadline submits netgen.ChoiceFan(12)
// to a 2-worker engine with JobTimeout D and, 0.9·D later, an isomorphic
// re-parse of it. D is half the net's cold analysis time, so the first
// job's deadline fires mid-schedule while the second job waits on its
// schedule flight. Each job's outcome must come from its own run: a
// timeout or the net's schedule, never "ok" with the other job's
// cancellation as its schedule_error.
func TestEngineWaiterOutlivesLeaderDeadline(t *testing.T) {
	src := petri.Format(netgen.ChoiceFan(12))
	parse := func() *petri.Net {
		n, err := petri.Parse(strings.NewReader(src))
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	calib := New(Config{Workers: 1})
	t0 := time.Now()
	rep := analyze(t, calib, parse())
	d := time.Since(t0) / 2
	calib.Close()
	if !rep.Schedulable {
		t.Fatalf("ChoiceFan(12) is not schedulable: %s", rep.ScheduleError)
	}

	e := New(Config{Workers: 2, JobTimeout: d})
	defer e.Close()
	n, twin := parse(), parse()
	first := make(chan []Result, 1)
	go func() {
		rs, err := e.AnalyzeBatch([]*petri.Net{n})
		if err != nil {
			t.Error(err)
		}
		first <- rs
	}()
	time.Sleep(d * 9 / 10)
	second, err := e.AnalyzeBatch([]*petri.Net{twin})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range append(<-first, second...) {
		timedOut := r.Status == StatusTimeout && errors.Is(r.Err, ErrJobTimeout)
		scheduled := r.Status == StatusOK && r.Report.Schedulable && r.Report.ScheduleError == ""
		if !timedOut && !scheduled {
			t.Errorf("D = %v, job %d: status %s, err %v, schedule_error %q; want its own timeout or the schedule",
				d, i+1, r.Status, r.Err, r.Report.ScheduleError)
		}
	}
}

// TestEngineBackpressureWindow checks AnalyzeEach never lets the queue
// gauge past the submission window, even when jobs are slow and the
// corpus is much larger than the window.
func TestEngineBackpressureWindow(t *testing.T) {
	nets := genNets(t, 500, 6)
	corpus := make([]*petri.Net, 0, 36)
	for i := 0; i < 6; i++ {
		corpus = append(corpus, nets...)
	}
	const window = 2
	e := New(Config{
		Workers:      2,
		SubmitWindow: window,
		FaultHook: func(ctx context.Context, hash string) error {
			time.Sleep(2 * time.Millisecond) // make jobs slow enough to pile up
			return nil
		},
	})
	defer e.Close()
	var mu sync.Mutex
	done := 0
	if err := e.AnalyzeEach(corpus, func(i int, r Result) {
		mu.Lock()
		done++
		mu.Unlock()
		if r.Status != StatusOK {
			t.Errorf("net %d: status=%s err=%v", i, r.Status, r.Err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if done != len(corpus) {
		t.Fatalf("onDone fired %d times for %d nets", done, len(corpus))
	}
	s := e.Stats()
	if s.QueueDepthPeak > window {
		t.Errorf("queue depth peaked at %d, window is %d", s.QueueDepthPeak, window)
	}
	if s.QueueDepthPeak == 0 {
		t.Errorf("queue never observed any depth — backpressure untested")
	}
}

// TestEngineSubmitCloseRace hammers Analyze/AnalyzeBatch from many
// goroutines while Close runs concurrently: every call must either
// succeed or fail with the typed ErrEngineClosed — never panic on the
// closed channel, never hang. Run under -race in CI's soak step.
func TestEngineSubmitCloseRace(t *testing.T) {
	nets := genNets(t, 600, 4)
	for round := 0; round < 8; round++ {
		e := New(Config{Workers: 2, SubmitWindow: 2})
		errs := make(chan error, 64)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 4; i++ {
					if g%2 == 0 {
						_, err := e.Analyze(nets[(g+i)%len(nets)])
						errs <- err
					} else {
						_, err := e.AnalyzeBatch(nets[:2])
						errs <- err
					}
				}
			}(g)
		}
		// Close concurrently with the submitters.
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.Close()
		}()
		wg.Wait()
		e.Close()
		close(errs)
		for err := range errs {
			if err != nil && !errors.Is(err, ErrEngineClosed) {
				t.Fatalf("round %d: unexpected error under submit/Close race: %v", round, err)
			}
		}
	}
}

// TestEngineSoak runs a larger faulted corpus — background panic and
// slow faults over ~40 nets with a tight deadline — twice through
// one engine, then checks the engine is still fully usable. There are
// no per-net assertions; the test exists to shake out deadlocks, races
// (run with -race in CI) and stranded singleflights under sustained
// fault pressure.
func TestEngineSoak(t *testing.T) {
	nets := genNets(t, 700, 40)
	inj := &fault.EngineInjector{
		Seed:     2026,
		PanicPct: 10,
		SlowPct:  10,
		SlowFor:  time.Second,
	}
	e := New(Config{
		Workers:      4,
		SubmitWindow: 4,
		JobTimeout:   100 * time.Millisecond,
		FaultHook:    inj.Hook(),
	})
	defer e.Close()

	counts := map[JobStatus]int{}
	for pass := 0; pass < 2; pass++ {
		results, err := e.AnalyzeBatch(nets)
		if err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		for i, r := range results {
			if r.Report == nil {
				t.Fatalf("pass %d net %d: nil report (status %s)", pass, i, r.Status)
			}
			counts[r.Status]++
		}
	}
	t.Logf("soak outcomes over 2 passes: %v, stats: panics=%d timeouts=%d quarantine_skips=%d",
		counts, e.Stats().Panics, e.Stats().Timeouts, e.Stats().QuarantineSkips)
	if counts[StatusOK] == 0 {
		t.Fatal("soak produced no successful jobs — fault rates are misconfigured")
	}

	// The engine must still be fully usable after the storm. Pin the
	// probe net to FaultNone so the background draws cannot hit it.
	fresh := genNets(t, 900, 1)[0]
	inj.Force = map[string]fault.JobFaultKind{fresh.CanonicalHash(): fault.FaultNone}
	rep, err := e.Analyze(fresh)
	if err != nil {
		t.Fatalf("engine unusable after soak: %v", err)
	}
	if rep == nil || rep.Hash == "" {
		t.Fatal("empty report after soak")
	}
	if s := e.Stats(); s.QueueDepth != 0 || s.BusyWorkers != 0 {
		t.Errorf("leaked gauge state after soak: depth=%d busy=%d", s.QueueDepth, s.BusyWorkers)
	}
}
