package fcpn_test

import (
	"encoding/json"
	"sync"
	"testing"

	"fcpn"
	"fcpn/internal/figures"
)

// TestConcurrentPublicAPI is the -race regression test for the public
// entry points: many goroutines call Solve, Synthesize, and Analyze on
// the same shared figure nets, and every goroutine must see the same
// result. Nets are immutable and the engine is goroutine-safe, so this
// must be data-race free under `go test -race`.
func TestConcurrentPublicAPI(t *testing.T) {
	nets := []*fcpn.Net{figures.Figure2(), figures.Figure4(), figures.Figure5()}
	e := fcpn.NewEngine(fcpn.EngineConfig{Workers: 4})
	defer e.Close()

	type observed struct {
		schedule string
		c        string
		report   string
	}
	want := make([]observed, len(nets))
	for i, n := range nets {
		s, err := fcpn.Solve(n, fcpn.Options{})
		if err != nil {
			t.Fatalf("net %q: %v", n.Name(), err)
		}
		ex, err := json.Marshal(s.Export())
		if err != nil {
			t.Fatal(err)
		}
		syn, err := fcpn.Synthesize(n, fcpn.Options{})
		if err != nil {
			t.Fatal(err)
		}
		nr, err := e.Analyze(n)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := json.Marshal(nr)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = observed{schedule: string(ex), c: syn.C(true), report: string(rep)}
	}

	const goroutines = 8
	const rounds = 5
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (g + r) % len(nets)
				n := nets[i]
				s, err := fcpn.Solve(n, fcpn.Options{})
				if err != nil {
					errs <- err
					return
				}
				ex, _ := json.Marshal(s.Export())
				if string(ex) != want[i].schedule {
					t.Errorf("goroutine %d: schedule for %q diverged", g, n.Name())
				}
				syn, err := fcpn.Synthesize(n, fcpn.Options{})
				if err != nil {
					errs <- err
					return
				}
				if syn.C(true) != want[i].c {
					t.Errorf("goroutine %d: generated C for %q diverged", g, n.Name())
				}
				nr, err := e.Analyze(n)
				if err != nil {
					errs <- err
					return
				}
				rep, _ := json.Marshal(nr)
				if string(rep) != want[i].report {
					t.Errorf("goroutine %d: engine report for %q diverged", g, n.Name())
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if s := e.Stats(); s.CacheHits == 0 {
		t.Error("shared engine saw no cache hits")
	}
}
