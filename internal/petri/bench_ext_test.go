package petri_test

import (
	"testing"

	"fcpn/internal/atm"
	"fcpn/internal/figures"
	"fcpn/internal/modem"
	"fcpn/internal/netgen"
	"fcpn/internal/petri"
)

// benchCorpus is the nets the construction benchmarks run over: the
// paper's Figure 5, the ATM server, the modem and a heavy generated
// pipeline (4 sources, depth 5).
func benchCorpus(b *testing.B) []struct {
	name string
	net  *petri.Net
} {
	m, err := modem.New()
	if err != nil {
		b.Fatal(err)
	}
	heavy := netgen.DefaultConfig()
	heavy.MaxSources, heavy.MaxDepth = 4, 5
	return []struct {
		name string
		net  *petri.Net
	}{
		{"figure5", figures.Figure5()},
		{"atm", atm.New().Net},
		{"modem", m.Net},
		{"pipeline", netgen.RandomSchedulablePipeline(1, heavy)},
	}
}

// BenchmarkParse parses each corpus net's Format text once per op.
func BenchmarkParse(b *testing.B) {
	for _, x := range benchCorpus(b) {
		text := petri.Format(x.net)
		b.Run(x.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := petri.ParseString(text); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// forFreshNets calls f once per op on a net parsed from text that no op
// has touched, so that work a Net memoises is measured on its first call.
// The nets are parsed in batches with the timer stopped.
func forFreshNets(b *testing.B, text string, f func(*petri.Net)) {
	const batch = 256
	nets := make([]*petri.Net, 0, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		b.StopTimer()
		nets = nets[:0]
		for len(nets) < batch && done+len(nets) < b.N {
			n, err := petri.ParseString(text)
			if err != nil {
				b.Fatal(err)
			}
			nets = append(nets, n)
		}
		b.StartTimer()
		for _, n := range nets {
			f(n)
		}
		done += len(nets)
	}
}

// BenchmarkCanonicalForm computes the canonical relabelling of a fresh
// net per op.
func BenchmarkCanonicalForm(b *testing.B) {
	for _, x := range benchCorpus(b) {
		text := petri.Format(x.net)
		b.Run(x.name, func(b *testing.B) {
			forFreshNets(b, text, func(n *petri.Net) { _ = n.CanonicalForm() })
		})
	}
}

// BenchmarkCanonicalNet assembles the canonical twin per op; the
// canonical form it reads is computed before the timer starts.
func BenchmarkCanonicalNet(b *testing.B) {
	for _, x := range benchCorpus(b) {
		n := x.net
		_ = n.CanonicalForm()
		b.Run(x.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = n.CanonicalNet()
			}
		})
	}
}

// BenchmarkFreeChoiceSets measures the first FreeChoiceSets call on a
// fresh net per op, over the corpus and on sharedFirstPlace(40000, 2),
// which is built per op with the timer stopped.
func BenchmarkFreeChoiceSets(b *testing.B) {
	for _, x := range benchCorpus(b) {
		text := petri.Format(x.net)
		b.Run(x.name, func(b *testing.B) {
			forFreshNets(b, text, func(n *petri.Net) { _ = n.FreeChoiceSets() })
		})
	}
	b.Run("sharedFirstPlace40000", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			n := sharedFirstPlace(40000, 2)
			b.StartTimer()
			_ = n.FreeChoiceSets()
		}
	})
}
