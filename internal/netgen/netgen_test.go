package netgen

import (
	"testing"

	"fcpn/internal/petri"
)

func TestDeterministic(t *testing.T) {
	a := RandomSchedulablePipeline(42, DefaultConfig())
	b := RandomSchedulablePipeline(42, DefaultConfig())
	if petri.Format(a) != petri.Format(b) {
		t.Fatal("generation not deterministic")
	}
	c := RandomSchedulablePipeline(43, DefaultConfig())
	if petri.Format(a) == petri.Format(c) {
		t.Fatal("different seeds produced identical nets")
	}
}

func TestAlwaysFreeChoice(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		n := RandomSchedulablePipeline(seed, DefaultConfig())
		if err := n.Validate(); err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, petri.Format(n))
		}
		if len(n.SourceTransitions()) == 0 {
			t.Fatalf("seed %d: no sources", seed)
		}
	}
}

func TestConfigClamping(t *testing.T) {
	n := RandomSchedulablePipeline(7, Config{})
	if n.NumTransitions() == 0 {
		t.Fatal("degenerate config produced empty net")
	}
}

func TestRandomNetValid(t *testing.T) {
	sync := 0
	for seed := uint64(0); seed < 100; seed++ {
		n := RandomNet(seed, DefaultConfig())
		if err := n.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if _, ok := n.TransitionByName("sync_join"); ok {
			sync++
		}
	}
	if sync == 0 {
		t.Fatal("RandomNet never produced a synchronising variant")
	}
}

func TestChoiceFan(t *testing.T) {
	n := ChoiceFan(3)
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(n.FreeChoiceSets()); got != 3 {
		t.Fatalf("%d choices, want 3", got)
	}
}
