package fault

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestEngineInjectorZeroValue(t *testing.T) {
	var inj EngineInjector
	if k := inj.Kind("deadbeef"); k != FaultNone {
		t.Fatalf("zero injector assigned %v", k)
	}
	if err := inj.Hook()(context.Background(), "deadbeef"); err != nil {
		t.Fatalf("zero injector errored: %v", err)
	}
}

func TestEngineInjectorDeterministic(t *testing.T) {
	inj := &EngineInjector{Seed: 42, PanicPct: 20, SlowPct: 20}
	hashes := []string{"a1", "b2", "c3", "d4", "e5", "f6", "0123abcd"}
	for _, h := range hashes {
		k1, k2 := inj.Kind(h), inj.Kind(h)
		if k1 != k2 {
			t.Fatalf("Kind(%q) not deterministic: %v vs %v", h, k1, k2)
		}
	}
	// A different seed must change at least one assignment across a
	// reasonable sample (overwhelmingly likely; deterministic given seeds).
	other := &EngineInjector{Seed: 43, PanicPct: 20, SlowPct: 20}
	same := true
	for _, h := range hashes {
		if inj.Kind(h) != other.Kind(h) {
			same = false
		}
	}
	if same {
		t.Fatalf("seeds 42 and 43 assigned identical faults to all %d hashes", len(hashes))
	}
}

func TestEngineInjectorForce(t *testing.T) {
	inj := &EngineInjector{Force: map[string]JobFaultKind{
		"p": FaultPanic, "s": FaultSlow,
	}}
	if got := inj.Kind("p"); got != FaultPanic {
		t.Fatalf("forced panic: got %v", got)
	}
	if got := inj.Kind("s"); got != FaultSlow {
		t.Fatalf("forced slow: got %v", got)
	}
	hook := inj.Hook()

	func() {
		defer func() {
			if recover() == nil {
				t.Errorf("FaultPanic hook did not panic")
			}
		}()
		hook(context.Background(), "p")
	}()
}

func TestEngineInjectorSlowHonoursContext(t *testing.T) {
	inj := &EngineInjector{
		SlowFor: time.Minute,
		Force:   map[string]JobFaultKind{"s": FaultSlow},
	}
	cause := errors.New("deadline for test")
	ctx, cancel := context.WithTimeoutCause(context.Background(), 10*time.Millisecond, cause)
	defer cancel()
	start := time.Now()
	err := inj.Hook()(ctx, "s")
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("slow fault ignored cancellation (took %v)", elapsed)
	}
	if !errors.Is(err, ErrInjected) || !errors.Is(err, cause) {
		t.Fatalf("cancelled slow fault: got %v, want ErrInjected wrapping the cause", err)
	}
}
