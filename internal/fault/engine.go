package fault

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// This file is the engine-level injector: where fault.go perturbs RTOS
// event streams, EngineInjector perturbs analysis *jobs* — panicking
// workers and jobs that outlive their deadline — through the engine's
// Config.FaultHook. Decisions are a pure function of (seed, canonical
// hash), so a faulted corpus run is reproducible net-for-net, which is
// what lets the robustness tests assert that the healthy nets' reports
// stay byte-identical to a fault-free run.

// ErrInjected marks every error produced by EngineInjector, so tests can
// tell an injected failure from a genuine one with errors.Is.
var ErrInjected = errors.New("fault: injected")

// JobFaultKind classifies what an EngineInjector does to one job.
type JobFaultKind int

const (
	// FaultNone leaves the job alone.
	FaultNone JobFaultKind = iota
	// FaultPanic panics on the worker (exercises recovery + quarantine).
	FaultPanic
	// FaultSlow sleeps for SlowFor or until the job's deadline fires,
	// whichever comes first (exercises per-job timeouts).
	FaultSlow
)

// String names the kind for reports.
func (k JobFaultKind) String() string {
	switch k {
	case FaultPanic:
		return "panic"
	case FaultSlow:
		return "slow"
	default:
		return "none"
	}
}

// EngineInjector decides, per canonical hash, whether an analysis job is
// perturbed and how. Percentage fields select background victims
// pseudo-randomly (seeded by Seed XOR a hash of the net's canonical
// hash); Force pins specific hashes to specific faults for targeted
// tests. The zero value injects nothing.
type EngineInjector struct {
	// Seed drives the per-hash percentage draws.
	Seed uint64
	// PanicPct / SlowPct are the percentages of jobs (by hash) hit by
	// each fault. Draws are made in that order from one per-hash
	// generator, so the classes are disjoint in practice.
	PanicPct, SlowPct int
	// SlowFor is how long FaultSlow sleeps (default 50ms).
	SlowFor time.Duration
	// Force pins canonical hashes to fault kinds, overriding the draws.
	Force map[string]JobFaultKind
}

// Kind reports the fault assigned to a canonical hash.
func (inj *EngineInjector) Kind(hash string) JobFaultKind {
	if k, ok := inj.Force[hash]; ok {
		return k
	}
	if inj.PanicPct <= 0 && inj.SlowPct <= 0 {
		return FaultNone
	}
	r := NewRand(inj.Seed ^ hashSeed(hash))
	if r.Pct() < inj.PanicPct {
		return FaultPanic
	}
	if r.Pct() < inj.SlowPct {
		return FaultSlow
	}
	return FaultNone
}

// Hook adapts the injector to engine.Config.FaultHook. The fault depends
// on the hash alone, so it hits every job of a victim; a panic
// quarantines the hash, so a panic victim's job runs once.
func (inj *EngineInjector) Hook() func(ctx context.Context, hash string) error {
	return func(ctx context.Context, hash string) error {
		switch inj.Kind(hash) {
		case FaultPanic:
			panic(fmt.Sprintf("fault: injected panic for %s", hash))
		case FaultSlow:
			slow := inj.SlowFor
			if slow <= 0 {
				slow = 50 * time.Millisecond
			}
			timer := time.NewTimer(slow)
			defer timer.Stop()
			select {
			case <-timer.C:
				return nil
			case <-ctx.Done():
				return fmt.Errorf("%w: slow job cancelled: %w", ErrInjected, context.Cause(ctx))
			}
		}
		return nil
	}
}

// hashSeed folds a canonical hash string into a 64-bit seed (FNV-1a).
func hashSeed(hash string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(hash); i++ {
		h ^= uint64(hash[i])
		h *= 1099511628211
	}
	return h
}
