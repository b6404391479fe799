package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"fcpn/internal/atm"
	"fcpn/internal/modem"
	"fcpn/internal/netgen"
	"fcpn/internal/petri"
)

// item is one corpus net as the program sees it: .pn source text, a
// permuted isomorphic twin of that text, and the verdict known without
// running the solver.
type item struct {
	source      string // "gen:<seed>", "paper:<name>" or "model:<name>"
	text        string
	twin        string
	schedulable bool
}

// paperVerdicts is the schedulability of the paper's example nets as the
// paper states it. It is written by hand so the check does not depend on
// the solver under test.
var paperVerdicts = map[string]bool{
	"atmserver": true,
	"figure1a":  false,
	"figure1b":  false,
	"figure2":   true,
	"figure3a":  true,
	"figure3b":  false,
	"figure4":   true,
	"figure5":   true,
	"figure7":   false,
}

// rng is a splitmix64 stream: deterministic per seed, independent of the
// program's own generators.
type rng struct{ s uint64 }

func newRng(seed, stream uint64) *rng {
	return &rng{s: seed*0x9E3779B97F4A7C15 ^ (stream+1)*0xD1B54A32D192ED03}
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// band selects generated nets by their T-allocation count: the product of
// the free-choice cluster sizes, a structural measure the generator's
// config only bounds loosely. Every band stays at or below the solver's
// 65536 cap, so no selected net can end undecided.
type band struct {
	cfg    netgen.Config
	lo, hi int
}

var (
	defaultBand = band{cfg: netgen.DefaultConfig(), lo: 1, hi: 65536}
	// serveBand drops the default config's rare large nets: their
	// reports run to hundreds of kilobytes, so whichever of them the seed
	// ranks popular would set the serve throughput.
	serveBand = band{cfg: netgen.DefaultConfig(), lo: 1, hi: 1024}
	// heavyBand is where core's sweep dominates: 10^3-10^4.8 allocations,
	// grown from a config below the 4-source, depth-6 one whose tail runs
	// past a second per net.
	heavyBand = band{cfg: func() netgen.Config {
		c := netgen.DefaultConfig()
		c.MaxSources, c.MaxDepth = 4, 5
		return c
	}(), lo: 1024, hi: 65536}
)

func allocations(n *petri.Net) (int, bool) {
	total := 1
	for _, c := range n.FreeChoiceSets() {
		total *= len(c.Transitions)
		if total > 1<<30 {
			return total, false
		}
	}
	return total, true
}

// generator draws RandomSchedulablePipeline nets, skipping nets isomorphic
// to one already drawn so that every cold request is a distinct structure.
type generator struct {
	r    *rng
	seen map[string]bool
}

func newGenerator(seed, stream uint64, seen map[string]bool) *generator {
	return &generator{r: newRng(seed, stream), seen: seen}
}

// draw returns count nets of band b; withTwins adds their permuted twins.
func (g *generator) draw(b band, count int, withTwins bool) []item {
	out := make([]item, 0, count)
	for len(out) < count {
		s := g.r.next() >> 16
		n := netgen.RandomSchedulablePipeline(s, b.cfg)
		if a, ok := allocations(n); !ok || a < b.lo || a > b.hi {
			continue
		}
		if h := n.CanonicalHash(); g.seen[h] {
			continue
		} else {
			g.seen[h] = true
		}
		it := item{source: fmt.Sprintf("gen:%d", s), text: petri.Format(n), schedulable: true}
		if withTwins {
			it.twin = permute(it.text, g.r)
		}
		out = append(out, it)
	}
	return out
}

// permute shuffles the order of the arc lines. The twin parses to the same
// net with the same node indices, so its report must be byte-identical to
// the original's, and it reaches the engine as a new object whose
// canonical form is computed afresh. Declaration order of places and
// transitions is kept: reordering it changes the report of nets with
// symmetric nodes (a tie broken by local index), which is a known
// limitation of the program, not a benchmark failure.
func permute(text string, r *rng) string {
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	var arcs []int
	for i, line := range lines {
		if strings.HasPrefix(strings.TrimSpace(line), "arc ") {
			arcs = append(arcs, i)
		}
	}
	for k := len(arcs) - 1; k > 0; k-- {
		j := r.intn(k + 1)
		lines[arcs[k]], lines[arcs[j]] = lines[arcs[j]], lines[arcs[k]]
	}
	return strings.Join(lines, "\n") + "\n"
}

// paperNets reads the paper's example nets from examples/nets and pairs
// each with its hand-written verdict.
func paperNets(root string, r *rng) ([]item, error) {
	paths, err := filepath.Glob(filepath.Join(root, "examples", "nets", "*.pn"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	var out []item
	for _, p := range paths {
		name := strings.TrimSuffix(filepath.Base(p), ".pn")
		want, ok := paperVerdicts[name]
		if !ok {
			return nil, fmt.Errorf("paper net %s has no known verdict", name)
		}
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		out = append(out, item{source: "paper:" + name, text: string(raw), twin: permute(string(raw), r), schedulable: want})
	}
	if len(out) != len(paperVerdicts) {
		return nil, fmt.Errorf("found %d paper nets under %s, want %d", len(out), filepath.Join(root, "examples", "nets"), len(paperVerdicts))
	}
	return out, nil
}

// modelNets formats the ATM server and modem models, both schedulable.
func modelNets(r *rng) ([]item, error) {
	m, err := modem.New()
	if err != nil {
		return nil, fmt.Errorf("modem model: %w", err)
	}
	var out []item
	for _, mn := range []struct {
		name string
		net  *petri.Net
	}{{"atm", atm.New().Net}, {"modem", m.Net}} {
		text := petri.Format(mn.net)
		out = append(out, item{source: "model:" + mn.name, text: text, twin: permute(text, r), schedulable: true})
	}
	return out, nil
}

// digest fingerprints a list of texts, so a run record shows which corpus
// it measured.
func digest(items []item) string {
	h := sha256.New()
	for _, it := range items {
		h.Write([]byte(it.text))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// scaled sizes a corpus component; the self-tests shrink corpora with a
// scale below 1.
func scaled(n int, scale float64) int {
	v := int(float64(n)*scale + 0.5)
	if v < 1 {
		v = 1
	}
	return v
}
