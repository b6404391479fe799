package engine

import (
	"bytes"
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"fcpn/internal/core"
	"fcpn/internal/figures"
	"fcpn/internal/invariant"
	"fcpn/internal/netgen"
	"fcpn/internal/petri"
)

var updateGolden = flag.Bool("update", false, "rewrite the engine's golden files from this run")

// lookups returns the engine's lifetime cache counters by layer:
// layer → outcome ("hit", "miss", "wait") → count.
func lookups(e *Engine) map[string]map[string]int64 {
	out := map[string]map[string]int64{}
	for name, v := range e.Stats().Trace.Counters {
		parts := strings.Split(name, "/")
		if len(parts) != 3 || parts[0] != "cache" || parts[2] == "bytes" {
			continue
		}
		if out[parts[1]] == nil {
			out[parts[1]] = map[string]int64{}
		}
		out[parts[1]][parts[2]] += v
	}
	return out
}

// TestEngineSemiflowLookupsOnce checks that a job makes one lookup per
// cache layer. A cold Analyze of a fresh schedulable net makes one, a
// miss, in each of the tsemi and sched layers and none in any other;
// Synthesize afterwards re-reads both, hits. With the timing pass on, a
// cold Analyze makes one timing miss besides, three lookups in all, and
// a shuffled twin then hits each layer once, runs neither timing span
// and gets its report from the cache byte for byte: what a fresh engine
// computes for the twin, with the original's timing report.
func TestEngineSemiflowLookupsOnce(t *testing.T) {
	e := New(Config{Workers: 1})
	defer e.Close()
	n := figures.Figure5()
	if rep := analyze(t, e, n); !rep.Schedulable {
		t.Fatalf("%s must be schedulable: %s", n.Name(), rep.ScheduleError)
	}
	want := map[string]map[string]int64{"tsemi": {"miss": 1}, "sched": {"miss": 1}}
	if got := lookups(e); !reflect.DeepEqual(got, want) {
		t.Fatalf("cold Analyze made lookups %v, want %v", got, want)
	}
	if _, err := e.Synthesize(n); err != nil {
		t.Fatal(err)
	}
	want["tsemi"]["hit"], want["sched"]["hit"] = 1, 1
	if got := lookups(e); !reflect.DeepEqual(got, want) {
		t.Fatalf("after Synthesize the lookups are %v, want %v", got, want)
	}

	timed := New(timingConfig(1))
	defer timed.Close()
	rep := analyze(t, timed, n)
	if rep.Timing == nil || len(rep.Timing.Margins) == 0 {
		t.Fatalf("%s has no timing report with margins: %+v", n.Name(), rep.Timing)
	}
	want = map[string]map[string]int64{"tsemi": {"miss": 1}, "sched": {"miss": 1}, "timing": {"miss": 1}}
	if got := lookups(timed); !reflect.DeepEqual(got, want) {
		t.Fatalf("cold timed Analyze made lookups %v, want %v", got, want)
	}
	tw := twinHashedAlike(t, n)
	twinRep := analyze(t, timed, tw)
	want["tsemi"]["hit"], want["sched"]["hit"], want["timing"]["hit"] = 1, 1, 1
	if got := lookups(timed); !reflect.DeepEqual(got, want) {
		t.Fatalf("after the twin's Analyze the lookups are %v, want %v", got, want)
	}
	spans := map[string]int64{}
	for _, ph := range timed.Stats().Trace.Phases {
		spans[ph.Name] = ph.Count
	}
	if spans["timing/monitor"] != 1 || spans["timing/margin"] != 1 {
		t.Fatalf("timing/monitor ran %d times and timing/margin %d, want once each: the twin's hit runs neither",
			spans["timing/monitor"], spans["timing/margin"])
	}
	fresh := New(timingConfig(1))
	defer fresh.Close()
	if got, cold := reportJSON(t, twinRep), reportJSON(t, analyze(t, fresh, tw)); got != cold {
		t.Fatalf("twin's report from the cache differs from its cold report:\n%s\nvs\n%s", got, cold)
	}
	if got, orig := timingJSON(t, twinRep), timingJSON(t, rep); got != orig {
		t.Fatalf("twin's timing report differs from the original's:\n%s\nvs\n%s", got, orig)
	}
}

// twinHashedAlike returns a shuffled twin of n with n's canonical hash.
// The canonical form breaks colour ties by local index, so some shuffles
// hash differently; it tries a few.
func twinHashedAlike(t *testing.T, n *petri.Net) *petri.Net {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20; i++ {
		if tw := shuffled(n, rng); tw.CanonicalHash() == n.CanonicalHash() {
			return tw
		}
	}
	t.Fatalf("no shuffled twin of %s hashed like it", n.Name())
	return nil
}

// TestEngineSemiflowHitsMatchTwin checks the tsemi layer's hit path:
// after a cold analysis of each corpus net, a renamed twin with shuffled
// declarations and arcs reads its T-semiflows from the cache, and what
// it reads is what the enumeration returns on that twin — in the twin's
// order for the report, in canonical order for the twin's sweep. Twins
// that hash differently (the canonical form breaks colour ties by local
// index) cannot hit and are skipped.
func TestEngineSemiflowHitsMatchTwin(t *testing.T) {
	nets := corpus()
	for seed := uint64(0); seed < 50; seed++ {
		nets = append(nets, netgen.RandomNet(seed, netgen.DefaultConfig()))
	}
	e := New(Config{Workers: 1})
	defer e.Close()
	rng := rand.New(rand.NewSource(1))
	checked := 0
	for _, n := range nets {
		if rep := analyze(t, e, n); len(rep.Errors) > 0 {
			t.Fatalf("%s: %v", n.Name(), rep.Errors)
		}
		tw := shuffled(n, rng)
		cf := tw.CanonicalForm()
		if cf.Hash != n.CanonicalHash() {
			continue
		}
		before := lookups(e)
		local, canon, err := e.tSemiflows(tw, cf, nil)
		if err != nil {
			t.Fatalf("%s twin: %v", n.Name(), err)
		}
		if after := lookups(e); after["tsemi"]["hit"] != before["tsemi"]["hit"]+1 {
			t.Fatalf("%s twin: the tsemi lookup missed", n.Name())
		}
		wantT, err := invariant.TInvariants(tw, invariant.Options{})
		if err != nil {
			t.Fatal(err)
		}
		wantCanon, err := invariant.TInvariants(tw.CanonicalNet(), invariant.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(local, wantT) || !reflect.DeepEqual(canon, wantCanon) {
			t.Fatalf("%s twin: hit-path T-semiflows differ from the twin's own:\n%v\nwant %v\ncanonical %v\nwant %v",
				n.Name(), local, wantT, canon, wantCanon)
		}
		checked++
	}
	if checked < len(nets)/2 {
		t.Fatalf("only %d of %d twins hashed like their nets", checked, len(nets))
	}
	t.Logf("%d of %d twins read their T-semiflows from the cache", checked, len(nets))
}

// errorGoldenNets are the nets of TestEngineErrorGolden: the figures in
// name order, then a few generated nets of both generators.
func errorGoldenNets() []*petri.Net {
	all := figures.All()
	names := make([]string, 0, len(all))
	for name := range all {
		names = append(names, name)
	}
	sort.Strings(names)
	var nets []*petri.Net
	for _, name := range names {
		nets = append(nets, all[name])
	}
	for seed := uint64(0); seed < 4; seed++ {
		nets = append(nets,
			netgen.RandomSchedulablePipeline(seed, netgen.DefaultConfig()),
			netgen.RandomNet(seed, netgen.DefaultConfig()))
	}
	return nets
}

// errorGolden is one line of testdata/errors.golden.
type errorGolden struct {
	MaxRows         int      `json:"max_rows"`
	MaxAllocations  int      `json:"max_allocations,omitempty"`
	Net             string   `json:"net"`
	Errors          []string `json:"errors,omitempty"`
	ScheduleError   string   `json:"schedule_error,omitempty"`
	SynthesizeError string   `json:"synthesize_error,omitempty"`
}

// TestEngineErrorGolden pins the error paths of a semiflow enumeration
// that exceeds its row cap: the report's errors and schedule_error, and
// Synthesize's error, at Core.MaxRows 2, 4 and 8. A last pass at
// Core.MaxAllocations 2 pins a reduction enumeration past its cap, which
// fills the report's "reductions" error beside its schedule_error. Each
// pass runs the nets in order through one serial engine, Analyze then
// Synthesize per net. Regenerate with -update.
func TestEngineErrorGolden(t *testing.T) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	passes := []core.Options{{MaxRows: 2}, {MaxRows: 4}, {MaxRows: 8}, {MaxAllocations: 2}}
	for _, opt := range passes {
		e := New(Config{Workers: 1, Core: opt})
		for _, n := range errorGoldenNets() {
			rep := analyze(t, e, n)
			g := errorGolden{MaxRows: opt.MaxRows, MaxAllocations: opt.MaxAllocations, Net: n.Name(),
				Errors: rep.Errors, ScheduleError: rep.ScheduleError}
			if _, err := e.Synthesize(n); err != nil {
				g.SynthesizeError = err.Error()
			}
			if err := enc.Encode(g); err != nil {
				t.Fatal(err)
			}
		}
		e.Close()
	}
	checkGolden(t, "errors.golden", buf.Bytes())
}

// checkGolden compares got with testdata/name line by line, first
// rewriting the file under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("line %d differs from %s:\ngot:  %s\nwant: %s", i+1, path, gl[i], wl[i])
			}
		}
		t.Fatalf("%s has %d lines, this run %d", path, len(wl), len(gl))
	}
}
