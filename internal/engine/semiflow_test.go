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

// TestEngineSemiflowLookupsOnce checks that a job looks each semiflow set
// up once and hands it down. A cold Analyze of a fresh schedulable net
// makes one lookup, a miss, in each of the tsemi, psemi and sched layers
// and none in any other; Synthesize afterwards re-reads only tsemi and
// sched, both hits.
func TestEngineSemiflowLookupsOnce(t *testing.T) {
	e := New(Config{Workers: 1})
	defer e.Close()
	n := figures.Figure5()
	if rep := analyze(t, e, n); !rep.Schedulable {
		t.Fatalf("%s must be schedulable: %s", n.Name(), rep.ScheduleError)
	}
	want := map[string]map[string]int64{
		"tsemi": {"miss": 1}, "psemi": {"miss": 1}, "sched": {"miss": 1},
	}
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
}

// dual swaps n's places and transitions and turns each arc around, so its
// incidence matrix is the transpose of n's: its P-semiflows are n's
// T-semiflows.
func dual(n *petri.Net) *petri.Net {
	b := petri.NewBuilder(n.Name() + "_dual")
	ps := make([]petri.Place, n.NumTransitions())
	for t := range ps {
		ps[t] = b.Place(n.TransitionName(petri.Transition(t)))
	}
	ts := make([]petri.Transition, n.NumPlaces())
	for p := range ts {
		ts[p] = b.Transition(n.PlaceName(petri.Place(p)))
	}
	for _, a := range n.Arcs() {
		if a.FromKind == petri.PlaceNode {
			b.WeightedArc(ps[a.To], ts[a.From], a.Weight)
		} else {
			b.WeightedArcTP(ts[a.To], ps[a.From], a.Weight)
		}
	}
	return b.Build()
}

// TestEngineSemiflowHitsMatchTwin checks the semiflow layers' hit path:
// after a cold analysis of each corpus net, a renamed twin with shuffled
// declarations and arcs reads both semiflow sets from the cache, and what
// it reads is what the enumeration returns on that twin — in the twin's
// order for the report, in canonical order for the twin's sweep. Twins
// that hash differently (the canonical form breaks colour ties by local
// index) cannot hit and are skipped. The corpus nets have source
// transitions and so no P-semiflows; their duals have some.
func TestEngineSemiflowHitsMatchTwin(t *testing.T) {
	nets := corpus()
	for seed := uint64(0); seed < 50; seed++ {
		nets = append(nets, netgen.RandomNet(seed, netgen.DefaultConfig()))
	}
	for _, n := range nets {
		nets = append(nets, dual(n))
	}
	e := New(Config{Workers: 1})
	defer e.Close()
	rng := rand.New(rand.NewSource(1))
	checked, withP := 0, 0
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
		pis, err := e.pSemiflows(tw, cf, nil)
		if err != nil {
			t.Fatalf("%s twin: %v", n.Name(), err)
		}
		after := lookups(e)
		for _, layer := range []string{"tsemi", "psemi"} {
			if after[layer]["hit"] != before[layer]["hit"]+1 {
				t.Fatalf("%s twin: the %s lookup missed", n.Name(), layer)
			}
		}
		wantT, err := invariant.TInvariants(tw, invariant.Options{})
		if err != nil {
			t.Fatal(err)
		}
		wantCanon, err := invariant.TInvariants(tw.CanonicalNet(), invariant.Options{})
		if err != nil {
			t.Fatal(err)
		}
		wantP, err := invariant.PInvariants(tw, invariant.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(local, wantT) || !reflect.DeepEqual(canon, wantCanon) || !reflect.DeepEqual(pis, wantP) {
			t.Fatalf("%s twin: hit-path semiflows differ from the twin's own:\nT %v\nwant %v\ncanonical %v\nwant %v\nP %v\nwant %v",
				n.Name(), local, wantT, canon, wantCanon, pis, wantP)
		}
		checked++
		if len(pis) > 1 {
			withP++
		}
	}
	if checked < len(nets)/2 || withP < 20 {
		t.Fatalf("only %d of %d twins hashed like their nets, %d of them with several P-semiflows", checked, len(nets), withP)
	}
	t.Logf("%d of %d twins read their semiflows from the cache, %d with several P-semiflows", checked, len(nets), withP)
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
