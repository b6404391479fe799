// Package timing verifies weakly-hard (m,k) deadline constraints over
// the hit/miss stream of a timed simulation run.
//
// The 1999 paper's "schedulable" means a finite complete cycle exists —
// a statement about memory, not about deadlines. This package adds the
// timing dimension: a task set satisfies the weakly-hard constraint
// (m,k) when every window of K consecutive events contains at least M
// deadline hits (equivalently, at most K-M misses). Weakly-hard
// constraints are the standard language for control loops that tolerate
// occasional misses but not clustered ones (Bernat/Burns/Llamosí 2001;
// ControlTimingSafety.jl synthesises schedules against exactly these).
//
// Two checkers are provided and differentially fuzzed against each
// other: Monitor, an O(1)-per-event sliding-window automaton over a
// ring buffer, and BruteForce, which re-scans every window explicitly.
// The monitor is what the simulators embed; the brute-force checker is
// the oracle that keeps it honest (FuzzWeaklyHard).
//
// On top of the verdicts, SearchMargin turns a parameterised overload
// probe into a graceful-degradation frontier: the largest overload
// intensity at which the constraint still holds (see sim's
// SearchOverloadMargin for the fault-injector ladder that drives it).
package timing

import (
	"fmt"
	"strconv"
	"strings"
)

// Constraint is a weakly-hard (m,k) constraint: at least M deadline
// hits in every window of K consecutive events. The zero value is the
// disabled constraint (Enabled reports false).
type Constraint struct {
	M, K int
}

// Enabled reports whether the constraint is active (K > 0).
func (c Constraint) Enabled() bool { return c.K > 0 }

// Validate checks 0 <= M <= K and K > 0.
func (c Constraint) Validate() error {
	if c.K <= 0 {
		return fmt.Errorf("timing: window k must be positive, got %d", c.K)
	}
	if c.M < 0 || c.M > c.K {
		return fmt.Errorf("timing: need 0 <= m <= k, got (%d,%d)", c.M, c.K)
	}
	return nil
}

// String renders the constraint as "(m,k)".
func (c Constraint) String() string { return fmt.Sprintf("(%d,%d)", c.M, c.K) }

// Parse reads a constraint from "m,k" (as the CLIs' -mk flag passes it).
func Parse(s string) (Constraint, error) {
	parts := strings.Split(strings.TrimSpace(s), ",")
	if len(parts) != 2 {
		return Constraint{}, fmt.Errorf("timing: want \"m,k\", got %q", s)
	}
	m, err := strconv.Atoi(strings.TrimSpace(parts[0]))
	if err != nil {
		return Constraint{}, fmt.Errorf("timing: bad m in %q: %w", s, err)
	}
	k, err := strconv.Atoi(strings.TrimSpace(parts[1]))
	if err != nil {
		return Constraint{}, fmt.Errorf("timing: bad k in %q: %w", s, err)
	}
	c := Constraint{M: m, K: k}
	if err := c.Validate(); err != nil {
		return Constraint{}, err
	}
	return c, nil
}

// Violation pinpoints the first window that broke the constraint.
type Violation struct {
	// End is the 0-based index of the event that completed the first
	// violating window (the window covers events End-K+1 .. End).
	End int `json:"end"`
	// Window is the window's hit/miss pattern, oldest event first:
	// '1' = deadline hit, '0' = miss.
	Window string `json:"window"`
	// Misses is the number of misses in the window (> K-M).
	Misses int `json:"misses"`
}

func (v *Violation) String() string {
	return fmt.Sprintf("window ending at event %d: %s (%d misses)", v.End, v.Window, v.Misses)
}

// Verdict is the typed outcome of checking one run against a
// constraint. It is JSON-ready and deliberately free of any net-local
// identifiers, so the engine can cache it per canonical hash.
type Verdict struct {
	// M and K restate the constraint the verdict is about.
	M int `json:"m"`
	K int `json:"k"`
	// Events and Misses count the observed completion stream.
	Events int `json:"events"`
	Misses int `json:"misses"`
	// Satisfied reports whether every complete window held at least M
	// hits. A stream shorter than K has no complete window and is
	// satisfied vacuously.
	Satisfied bool `json:"satisfied"`
	// Violation describes the first violating window when !Satisfied.
	Violation *Violation `json:"violation,omitempty"`
	// WorstOverrun is the largest response-time excess past the
	// deadline observed over the whole run (0 when every deadline held
	// or overruns were not measured).
	WorstOverrun int64 `json:"worst_overrun,omitempty"`
}

// String summarises the verdict for CLI output.
func (v *Verdict) String() string {
	c := Constraint{M: v.M, K: v.K}
	if v.Satisfied {
		return fmt.Sprintf("%s satisfied over %d events (%d misses)", c, v.Events, v.Misses)
	}
	return fmt.Sprintf("%s VIOLATED over %d events (%d misses; %s; worst overrun %d)",
		c, v.Events, v.Misses, v.Violation, v.WorstOverrun)
}

// Monitor is the sliding-window (m,k) automaton: a ring buffer of the
// last K hit/miss outcomes and a running miss count, so each
// observation costs O(1) and no allocation after construction. A nil
// Monitor is a valid no-op (Observe does nothing, Verdict returns nil),
// mirroring the nil-safety of rtos.Watchdog.
type Monitor struct {
	c Constraint
	// ring[i] is true when the event was a miss; the window is the last
	// min(events, K) entries ending at (events-1) mod K.
	ring      []bool
	events    int
	misses    int // misses in the current window
	total     int // misses over the whole stream
	violation *Violation
	overrun   int64
}

// NewMonitor builds a monitor for the constraint. The disabled
// constraint (K == 0) yields a nil monitor.
func NewMonitor(c Constraint) *Monitor {
	if !c.Enabled() {
		return nil
	}
	return &Monitor{c: c, ring: make([]bool, c.K)}
}

// Reset empties the monitor for a new stream, keeping its constraint
// and its ring. A nil Monitor stays a no-op.
func (m *Monitor) Reset() {
	if m == nil {
		return
	}
	clear(m.ring)
	m.events, m.misses, m.total = 0, 0, 0
	m.violation, m.overrun = nil, 0
}

// Observe feeds one event outcome (miss = deadline missed) into the
// window. The first violating window is latched; observation continues
// afterwards so Events/Misses describe the full stream.
func (m *Monitor) Observe(miss bool) {
	if m == nil {
		return
	}
	slot := m.events % m.c.K
	if m.events >= m.c.K && m.ring[slot] {
		m.misses-- // the outcome falling out of the window
	}
	m.ring[slot] = miss
	if miss {
		m.misses++
		m.total++
	}
	m.events++
	if m.violation == nil && m.events >= m.c.K && m.misses > m.c.K-m.c.M {
		m.violation = &Violation{
			End:    m.events - 1,
			Window: m.window(),
			Misses: m.misses,
		}
	}
}

// ObserveOverrun records a response-time excess past the deadline (the
// watchdog's per-event overrun); the worst one is kept for the verdict.
func (m *Monitor) ObserveOverrun(over int64) {
	if m == nil || over <= m.overrun {
		return
	}
	m.overrun = over
}

// window renders the current window oldest-first as '1' (hit) / '0'
// (miss).
func (m *Monitor) window() string {
	n := m.c.K
	if m.events < n {
		n = m.events
	}
	var b strings.Builder
	b.Grow(n)
	for i := m.events - n; i < m.events; i++ {
		if m.ring[i%m.c.K] {
			b.WriteByte('0')
		} else {
			b.WriteByte('1')
		}
	}
	return b.String()
}

// Violated reports whether some complete window has already broken the
// constraint (false on a nil monitor).
func (m *Monitor) Violated() bool { return m != nil && m.violation != nil }

// Verdict snapshots the monitor. Nil monitor yields a nil verdict.
func (m *Monitor) Verdict() *Verdict {
	if m == nil {
		return nil
	}
	return &Verdict{
		M:            m.c.M,
		K:            m.c.K,
		Events:       m.events,
		Misses:       m.total,
		Satisfied:    m.violation == nil,
		Violation:    m.violation,
		WorstOverrun: m.overrun,
	}
}

// Replay runs a recorded hit/miss stream (e.g. rtos.Watchdog.History)
// through a fresh monitor and returns it, for post-hoc verdicts.
func Replay(c Constraint, misses []bool) *Monitor {
	m := NewMonitor(c)
	for _, miss := range misses {
		m.Observe(miss)
	}
	return m
}

// BruteForce evaluates the constraint over a full stream by scanning
// every window of K consecutive outcomes explicitly — O(len·K), the
// differential oracle the monitor is fuzzed against (FuzzWeaklyHard).
func BruteForce(c Constraint, misses []bool) *Verdict {
	if !c.Enabled() {
		return nil
	}
	v := &Verdict{M: c.M, K: c.K, Events: len(misses), Satisfied: true}
	for _, miss := range misses {
		if miss {
			v.Misses++
		}
	}
	for end := c.K - 1; end < len(misses); end++ {
		inWindow := 0
		var b strings.Builder
		b.Grow(c.K)
		for i := end - c.K + 1; i <= end; i++ {
			if misses[i] {
				inWindow++
				b.WriteByte('0')
			} else {
				b.WriteByte('1')
			}
		}
		if inWindow > c.K-c.M {
			v.Satisfied = false
			v.Violation = &Violation{End: end, Window: b.String(), Misses: inWindow}
			return v
		}
	}
	return v
}
