package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"fcpn/internal/core"
	"fcpn/internal/petri"
)

// TestSchedPayloadWidths packs cycles at both byte-width boundaries and
// reads every position back: the width is the fewest bytes that hold
// the last position, and the cycles come back sorted lexicographically.
func TestSchedPayloadWidths(t *testing.T) {
	for _, c := range []struct{ nT, width int }{{256, 1}, {257, 2}, {65536, 2}, {65537, 3}} {
		last := petri.Transition(c.nT - 1)
		p := packSchedule(c.nT, []core.Cycle{
			{Sequence: []petri.Transition{last, 0, last}},
			{Sequence: []petri.Transition{0, last / 2}},
			{},
			{Sequence: []petri.Transition{last}},
		})
		if p.width != c.width {
			t.Fatalf("%d transitions: width %d, want %d", c.nT, p.width, c.width)
		}
		if len(p.pos) != 6*c.width {
			t.Fatalf("%d transitions: %d position bytes, want %d", c.nT, len(p.pos), 6*c.width)
		}
		var got [][]petri.Transition
		start := 0
		for _, end := range p.ends {
			seq := []petri.Transition{}
			for k := start; k < end; k++ {
				seq = append(seq, petri.Transition(p.at(k)))
			}
			got = append(got, seq)
			start = end
		}
		want := [][]petri.Transition{{}, {0, last / 2}, {last}, {last, 0, last}}
		if !slices.EqualFunc(got, want, slices.Equal) {
			t.Fatalf("%d transitions: read back %v, want %v", c.nT, got, want)
		}
	}
}

// wideNet has 300 transitions, so its schedule packs two bytes per
// position: a source, a chain of 297 stages and a choice between two
// sinks at its end.
func wideNet() *petri.Net {
	b := petri.NewBuilder("wide")
	prev := b.Transition("src")
	for i := 0; i < 297; i++ {
		p := b.Place(fmt.Sprintf("p%d", i))
		b.ArcTP(prev, p)
		prev = b.Transition(fmt.Sprintf("t%d", i))
		b.Arc(p, prev)
	}
	choice := b.Place("choice")
	b.ArcTP(prev, choice)
	b.Arc(choice, b.Transition("left"))
	b.Arc(choice, b.Transition("right"))
	return b.Build()
}

// TestEngineWideNet runs a net past 256 transitions through the sched:
// layer: its cold and warm reports are byte-identical, a re-parse with
// its arc lines shuffled gets the same report from a sched hit, every
// cycle read back is a finite complete cycle of the net (a position cut
// to one byte breaks it), and the C that Synthesize generates from the
// cache equals a fresh engine's.
func TestEngineWideNet(t *testing.T) {
	n := wideNet()
	e := New(Config{Workers: 1})
	defer e.Close()
	cold := analyze(t, e, n)
	if !cold.Schedulable || len(cold.Schedule.Cycles) != 2 {
		t.Fatalf("wide net: schedulable %v with %d cycles, want 2: %s", cold.Schedulable, len(cold.Schedule.Cycles), cold.ScheduleError)
	}
	want := reportJSON(t, cold)
	if got := reportJSON(t, analyze(t, e, n)); got != want {
		t.Fatalf("warm report differs from the cold one:\n%s\nvs\n%s", got, want)
	}

	lines := strings.Split(strings.TrimSuffix(petri.Format(n), "\n"), "\n")
	first := slices.IndexFunc(lines, func(l string) bool { return strings.HasPrefix(l, "arc ") })
	arcs := lines[first:]
	rand.New(rand.NewSource(1)).Shuffle(len(arcs), func(i, j int) { arcs[i], arcs[j] = arcs[j], arcs[i] })
	twin, err := petri.ParseString(strings.Join(lines, "\n"))
	if err != nil {
		t.Fatal(err)
	}
	hits := lookups(e)["sched"]["hit"]
	if got := reportJSON(t, analyze(t, e, twin)); got != want {
		t.Fatalf("shuffled re-parse's report differs:\n%s\nvs\n%s", got, want)
	}
	if got := lookups(e)["sched"]["hit"]; got != hits+1 {
		t.Fatalf("shuffled re-parse made %d sched hits, want 1", got-hits)
	}

	syn, err := e.Synthesize(n)
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	for i, c := range syn.Schedule.Cycles {
		if err := core.VerifyCompleteCycle(n, c.Sequence); err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		steps += len(c.Sequence)
	}
	if got := e.Stats().Trace.Counter("cache/sched/bytes"); got != int64(2*steps) {
		t.Fatalf("cache/sched/bytes = %d, want 2 bytes for each of %d positions", got, steps)
	}
	fresh := New(Config{Workers: 1})
	defer fresh.Close()
	freshSyn, err := fresh.Synthesize(n)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := syn.C(true), freshSyn.C(true); got != want {
		t.Fatalf("C from the cached schedule differs from a fresh engine's:\n%s\nvs\n%s", got, want)
	}
}
