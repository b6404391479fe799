// Package netgen generates pseudo-random Free-Choice Petri Nets for
// property-based testing and fuzz-style benchmarks. Generation is
// deterministic per seed.
//
// RandomSchedulablePipeline builds nets that are quasi-statically
// schedulable *by construction*: forests of source-fed chains whose
// choices branch into independent sub-chains that never re-synchronise
// across branches, with rate-balanced weighted arcs. RandomNet relaxes the
// guarantees (it may produce non-schedulable nets) for negative testing.
package netgen

import (
	"fmt"

	"fcpn/internal/petri"
)

// rng is a small deterministic generator (splitmix-style).
type rng struct{ state uint64 }

func newRng(seed uint64) *rng {
	return &rng{state: seed*0x9E3779B97F4A7C15 + 0x1234567}
}

func (r *rng) next(n int) int {
	if n <= 0 {
		return 0
	}
	r.state = r.state*6364136223846793005 + 1442695040888963407
	return int((r.state >> 33) % uint64(n))
}

// Config bounds the generated nets.
type Config struct {
	// MaxSources bounds the number of independent inputs (≥ 1).
	MaxSources int
	// MaxDepth bounds chain depth below each source.
	MaxDepth int
	// MaxBranch bounds the number of alternatives per choice (≥ 2 when a
	// choice is placed).
	MaxBranch int
	// MaxWeight bounds arc weights for the multirate segments.
	MaxWeight int
	// ChoicePct is the percentage (0–100) of places that become choices.
	ChoicePct int
	// MultiratePct is the percentage of 1:1 segments upgraded to
	// rate-balanced weighted segments.
	MultiratePct int
}

// DefaultConfig generates small, readable nets.
func DefaultConfig() Config {
	return Config{
		MaxSources:   3,
		MaxDepth:     4,
		MaxBranch:    3,
		MaxWeight:    3,
		ChoicePct:    40,
		MultiratePct: 30,
	}
}

// RandomSchedulablePipeline generates a free-choice net that has a valid
// quasi-static schedule by construction: every choice branch is a chain
// that drains to a sink, weighted segments are rate-balanced within one
// cycle (producer weight w feeds a consumer of weight 1 or vice versa, so
// a covering T-invariant always exists), and branches never merge into a
// synchronising transition.
func RandomSchedulablePipeline(seed uint64, cfg Config) *petri.Net {
	r := newRng(seed)
	if cfg.MaxSources < 1 {
		cfg.MaxSources = 1
	}
	if cfg.MaxDepth < 1 {
		cfg.MaxDepth = 1
	}
	if cfg.MaxBranch < 2 {
		cfg.MaxBranch = 2
	}
	if cfg.MaxWeight < 1 {
		cfg.MaxWeight = 1
	}
	b := petri.NewBuilder(fmt.Sprintf("rand%d", seed))
	id := 0
	fresh := func(prefix string) string {
		id++
		return fmt.Sprintf("%s%d", prefix, id)
	}

	// grow extends the net below transition t for depth levels.
	var grow func(t petri.Transition, depth int)
	grow = func(t petri.Transition, depth int) {
		if depth <= 0 {
			return // t is a sink
		}
		p := b.Place(fresh("p"))
		if r.next(100) < cfg.ChoicePct {
			// Free choice: 2..MaxBranch alternatives, unit weights into
			// and out of the choice place.
			b.ArcTP(t, p)
			branches := 2 + r.next(cfg.MaxBranch-1)
			for i := 0; i < branches; i++ {
				alt := b.Transition(fresh("t"))
				b.Arc(p, alt)
				grow(alt, depth-1-r.next(2))
			}
			return
		}
		next := b.Transition(fresh("t"))
		if r.next(100) < cfg.MultiratePct {
			// Rate-balanced multirate segment: either accumulate
			// (produce 1, consume w) or distribute (produce w, consume 1).
			w := 2 + r.next(cfg.MaxWeight-1)
			if r.next(2) == 0 {
				b.ArcTP(t, p)
				b.WeightedArc(p, next, w) // consumer needs w productions
			} else {
				b.WeightedArcTP(t, p, w)
				b.Arc(p, next) // consumer drains w times
			}
		} else {
			b.Chain(t, p, next)
		}
		grow(next, depth-1)
	}

	sources := 1 + r.next(cfg.MaxSources)
	for i := 0; i < sources; i++ {
		src := b.Transition(fresh("src"))
		grow(src, 1+r.next(cfg.MaxDepth))
	}
	return b.Build()
}

// RandomNet generates an arbitrary free-choice net with no schedulability
// guarantee: branches may re-synchronise (the Figure 3b pattern), so some
// seeds produce non-schedulable nets. Useful for exercising the solver's
// failure diagnostics.
func RandomNet(seed uint64, cfg Config) *petri.Net {
	r := newRng(seed ^ 0xABCDEF)
	n := RandomSchedulablePipeline(seed, cfg)
	// With probability ~1/2, rebuild with an added synchronising join of
	// two sink transitions' outputs (the classic non-schedulable shape).
	if r.next(2) == 0 {
		return n
	}
	b := petri.NewBuilder(n.Name() + "_sync")
	// Copy the net.
	places := make([]petri.Place, n.NumPlaces())
	init := n.InitialMarking()
	for p := 0; p < n.NumPlaces(); p++ {
		places[p] = b.MarkedPlace(n.PlaceName(petri.Place(p)), init[p])
	}
	trans := make([]petri.Transition, n.NumTransitions())
	for t := 0; t < n.NumTransitions(); t++ {
		trans[t] = b.Transition(n.TransitionName(petri.Transition(t)))
	}
	for t := 0; t < n.NumTransitions(); t++ {
		for _, a := range n.Pre(petri.Transition(t)) {
			b.WeightedArc(places[a.Place], trans[t], a.Weight)
		}
		for _, a := range n.Post(petri.Transition(t)) {
			b.WeightedArcTP(trans[t], places[a.Place], a.Weight)
		}
	}
	sinks := n.SinkTransitions()
	if len(sinks) >= 2 {
		i := r.next(len(sinks))
		j := r.next(len(sinks))
		if i != j {
			pa := b.Place("sync_a")
			pb := b.Place("sync_b")
			join := b.Transition("sync_join")
			b.ArcTP(trans[sinks[i]], pa)
			b.ArcTP(trans[sinks[j]], pb)
			b.Arc(pa, join)
			b.Arc(pb, join)
		}
	}
	return b.Build()
}

// ChoiceFan builds a net whose T-reductions are as many as its
// T-allocations: a source forks a token to k choice places, each choice
// place's two alternatives feed one place of its own, and a join consumes
// those k places. Every one of the 2^k allocations keeps another set of
// alternatives, so a valid schedule has 2^k cycles. Benchmarks use it to
// load the per-cycle work of a schedule.
func ChoiceFan(k int) *petri.Net {
	b := petri.NewBuilder(fmt.Sprintf("choicefan%d", k))
	src := b.Transition("src")
	join := b.Transition("join")
	for i := 0; i < k; i++ {
		p := b.Place(fmt.Sprintf("c%d", i))
		q := b.Place(fmt.Sprintf("m%d", i))
		b.ArcTP(src, p)
		for _, alt := range []string{"a", "b"} {
			t := b.Transition(fmt.Sprintf("%s%d", alt, i))
			b.Arc(p, t)
			b.ArcTP(t, q)
		}
		b.Arc(q, join)
	}
	return b.Build()
}
