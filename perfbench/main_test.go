package main

import (
	"crypto/sha256"
	"encoding/json"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"
)

// short runs a workload on a small corpus for a fraction of a second.
func short(t *testing.T, workload string, seed uint64, trace bool) (*record, *result) {
	t.Helper()
	rec, res, err := run(options{workload: workload, seed: seed, seconds: 0.2, trace: trace, root: "..", scale: 0.02})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s trace=%v: correct=%v failed=%d attempted=%d: %v %v",
			workload, trace, res.Correct, res.Failed, res.Attempted, rec.Failures, rec.SelfChecks)
	}
	return rec, res
}

type namedMetric struct{ Name, Unit string }

// benchmarkFile is the part of BENCHMARK.json the self-tests read.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []namedMetric `json:"end_to_end"`
	PerLayer  []namedMetric `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func checkMetrics(t *testing.T, workload string, got map[string]metric, want []namedMetric) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json names %d", workload, len(got), len(want))
	}
	for _, m := range want {
		g, ok := got[m.Name]
		if !ok {
			t.Errorf("%s: metric %s missing", workload, m.Name)
		} else if g.Unit != m.Unit {
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", workload, m.Name, g.Unit, m.Unit)
		}
	}
}

func TestShortRunsPrintEveryMetric(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != 3 {
		t.Fatalf("BENCHMARK.json names %d workloads", len(bf.Workloads))
	}
	for _, w := range bf.Workloads {
		_, res := short(t, w.Name, 1, false)
		checkMetrics(t, w.Name, res.Metrics, bf.EndToEnd)
		_, res = short(t, w.Name, 1, true)
		checkMetrics(t, w.Name+" traced", res.Metrics, bf.PerLayer)
	}
}

func TestSecondSeedChangesCorpusNotMetricNames(t *testing.T) {
	rec1, res1 := short(t, "synth", 1, false)
	rec2, res2 := short(t, "synth", 2, false)
	if rec1.Corpus["digest"] == rec2.Corpus["digest"] {
		t.Error("seeds 1 and 2 produced the same corpus")
	}
	if len(res1.Metrics) != len(res2.Metrics) {
		t.Error("metric sets differ between seeds")
	}
	for name := range res1.Metrics {
		if _, ok := res2.Metrics[name]; !ok {
			t.Errorf("metric %s missing at seed 2", name)
		}
	}
	if rec1.Provenance.Seed != 1 || rec2.Provenance.Seed != 2 || rec1.Provenance.GoVersion == "" {
		t.Errorf("provenance does not record the run: %+v", rec1.Provenance)
	}
}

// TestTracedReportsMatchUntraced replays the same requests with and
// without tracing and against the end-to-end verification pass: every
// engine report must be byte-identical.
func TestTracedReportsMatchUntraced(t *testing.T) {
	o := options{workload: "synth", seed: 3, seconds: 1, root: "..", scale: 0.02}
	rp, err := newReplayer(o)
	if err != nil {
		t.Fatal(err)
	}
	fails := &failures{}
	plain, err := rp.pass(false, fails)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := rp.pass(true, fails)
	if err != nil {
		t.Fatal(err)
	}
	if len(traced.spans) == 0 || len(plain.spans) != 0 {
		t.Fatalf("traced pass recorded %d spans, untraced %d", len(traced.spans), len(plain.spans))
	}
	b, err := synthBatch(o.root, o.seed, o.scale, 2)
	if err != nil {
		t.Fatal(err)
	}
	ref := b.verify(2, fails)
	if fails.count() != 0 {
		t.Fatalf("failures: %v", fails.reasons)
	}
	for i, it := range b.items {
		if plain.digests[i] != traced.digests[i] {
			t.Errorf("%s: traced report differs from untraced", it.source)
		}
		if plain.digests[i] != sha256.Sum256(ref.reports[i]) {
			t.Errorf("%s: replay report differs from the end-to-end report", it.source)
		}
	}
}

// TestDefaultSeedCorpusDecided runs the full default-seed synth corpus
// once: every net must get its known verdict (none may stop at the
// reduction cap) and the working set must exceed the engine cache.
func TestDefaultSeedCorpusDecided(t *testing.T) {
	if testing.Short() {
		t.Skip("full corpus")
	}
	b, err := synthBatch("..", 1, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	fails := &failures{}
	ref := b.verify(2, fails)
	if fails.count() != 0 {
		t.Fatalf("%d failures, first: %v", fails.count(), fails.reasons)
	}
	if ref.workingSet <= engineCacheCapacity {
		t.Errorf("working set %d entries does not exceed the %d-entry cache", ref.workingSet, engineCacheCapacity)
	}
}

func TestNoProgramSourcesIsAnError(t *testing.T) {
	if _, _, err := run(options{workload: "synth", seed: 1, seconds: 1, root: t.TempDir(), scale: 0.02}); err == nil {
		t.Fatal("run succeeded without examples/nets")
	}
}

var sink []byte

// TestSpeedMeterIgnoresProgramLoad checks that the meter reads the host,
// not the process: readings taken while every CPU allocates garbage as
// fast as it can match readings taken while the process idles.
func TestSpeedMeterIgnoresProgramLoad(t *testing.T) {
	m := startSpeedMeter()
	defer m.close()
	time.Sleep(200 * time.Millisecond)
	m.speed()
	time.Sleep(500 * time.Millisecond)
	idle := m.speed()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var mu sync.Mutex
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				b := make([]byte, 64<<10)
				mu.Lock()
				sink = b
				mu.Unlock()
			}
		}()
	}
	time.Sleep(100 * time.Millisecond)
	m.speed()
	time.Sleep(500 * time.Millisecond)
	busy := m.speed()
	close(stop)
	wg.Wait()
	t.Logf("idle %.3f, under load %.3f", idle, busy)
	if r := busy / idle; r < 0.75 || r > 1.33 {
		t.Errorf("meter reads %.3f under load and %.3f idle", busy, idle)
	}
}
