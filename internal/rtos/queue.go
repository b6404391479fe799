package rtos

import (
	"fmt"
	"strings"
)

// OverflowPolicy selects what a bounded event queue does when an event
// arrives at a full queue.
type OverflowPolicy int

const (
	// DropNewest discards the arriving event (tail drop).
	DropNewest OverflowPolicy = iota
	// DropOldest discards the oldest queued event to admit the new one
	// (ring-buffer overwrite: freshest-data-wins, typical for sensors).
	DropOldest
	// Reject refuses the arriving event and counts it as rejected
	// (backpressure: the environment is told to retry).
	Reject
)

// String names the policy as accepted by ParsePolicy.
func (p OverflowPolicy) String() string {
	switch p {
	case DropNewest:
		return "drop-newest"
	case DropOldest:
		return "drop-oldest"
	case Reject:
		return "reject"
	}
	return fmt.Sprintf("OverflowPolicy(%d)", int(p))
}

// ParsePolicy parses an overflow policy name (drop-newest, drop-oldest,
// reject).
func ParsePolicy(s string) (OverflowPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "drop-newest", "dropnewest":
		return DropNewest, nil
	case "drop-oldest", "dropoldest":
		return DropOldest, nil
	case "reject":
		return Reject, nil
	}
	return 0, fmt.Errorf("rtos: unknown overflow policy %q (want drop-newest, drop-oldest or reject)", s)
}

// QueueConfig sizes a bounded event queue. Capacity <= 0 means unbounded
// (the idealised queue, the simulator's default).
type QueueConfig struct {
	Capacity int
	Policy   OverflowPolicy
}

// QueuedEvent is one admitted event with its arrival clock (in cycles),
// kept so response times survive queueing delays and drop-oldest
// displacement.
type QueuedEvent struct {
	Ev      Event
	Arrival int64
}

// EventQueue is a FIFO ingress queue with a capacity and an overflow
// policy. It records how many events were lost and how.
type EventQueue struct {
	cfg QueueConfig
	// buf[head:] holds the queued events. Popping advances head instead
	// of reslicing the front away, so the backing array is reused across
	// the simulation instead of growing once per admitted event.
	buf  []QueuedEvent
	head int
	// Dropped counts events discarded by DropNewest or displaced by
	// DropOldest; Rejected counts events refused under Reject.
	Dropped, Rejected int64
}

// NewEventQueue builds a queue with the given bound and policy.
func NewEventQueue(cfg QueueConfig) *EventQueue { return &EventQueue{cfg: cfg} }

// Config reports the queue's configuration.
func (q *EventQueue) Config() QueueConfig { return q.cfg }

// Len is the number of queued events.
func (q *EventQueue) Len() int { return len(q.buf) - q.head }

// Lost is the total number of events not served (dropped + rejected).
func (q *EventQueue) Lost() int64 { return q.Dropped + q.Rejected }

// Offer admits one event arriving at the given clock. It reports whether
// the event was enqueued; a full bounded queue applies the overflow
// policy (under DropOldest the new event is always admitted, at the cost
// of the head).
func (q *EventQueue) Offer(ev Event, arrival int64) bool {
	if q.cfg.Capacity > 0 && q.Len() >= q.cfg.Capacity {
		switch q.cfg.Policy {
		case DropNewest:
			q.Dropped++
			return false
		case Reject:
			q.Rejected++
			return false
		case DropOldest:
			q.head++
			q.Dropped++
		}
	}
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	} else if q.head > 32 && 2*q.head >= len(q.buf) {
		// Mostly-consumed prefix: compact in place so append reuses the
		// array instead of growing past the dead front forever.
		n := copy(q.buf, q.buf[q.head:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, QueuedEvent{Ev: ev, Arrival: arrival})
	return true
}

// Pop removes and returns the oldest queued event.
func (q *EventQueue) Pop() (QueuedEvent, bool) {
	if q.Len() == 0 {
		return QueuedEvent{}, false
	}
	head := q.buf[q.head]
	q.head++
	return head, true
}

// Watchdog tracks per-event deadline misses: the kernel feeds it every
// completed event's response time (arrival to completion, in cycles).
//
// Budget == 0 (or negative) means the watchdog is DISABLED: Observe
// reports every response as a hit, counts nothing, and records no
// history — the zero value is the idealised no-deadline kernel, not a
// zero-cycle deadline. Like the rest of the type, a nil *Watchdog is
// valid everywhere and behaves as disabled.
type Watchdog struct {
	// Budget is the per-event response-time deadline in cycles; <= 0
	// disables the watchdog (see above).
	Budget int64
	// Misses counts events whose response exceeded the budget;
	// WorstOverrun is the largest observed excess.
	Misses       int64
	WorstOverrun int64
	// HistoryCap, when positive, bounds a recorded hit/miss history:
	// Observe appends each outcome (true = miss) to a ring keeping the
	// last HistoryCap outcomes — the stream a weakly-hard (m,k) monitor
	// consumes (timing.Replay over History). 0 records nothing.
	HistoryCap int

	history  []bool // ring of the last HistoryCap outcomes
	observed int64  // total outcomes fed while enabled
}

// Observe records one event's response time, reporting whether it missed
// the deadline. Disabled (nil, or Budget <= 0) watchdogs observe
// nothing and always report a hit.
func (w *Watchdog) Observe(response int64) bool {
	if w == nil || w.Budget <= 0 {
		return false
	}
	miss := response > w.Budget
	if miss {
		w.Misses++
		if over := response - w.Budget; over > w.WorstOverrun {
			w.WorstOverrun = over
		}
	}
	if w.HistoryCap > 0 {
		if w.history == nil {
			w.history = make([]bool, w.HistoryCap)
		}
		w.history[int(w.observed)%w.HistoryCap] = miss
	}
	w.observed++
	return miss
}

// Observed is the total number of outcomes fed to an enabled watchdog
// (hits and misses; 0 on nil or disabled watchdogs).
func (w *Watchdog) Observed() int64 {
	if w == nil {
		return 0
	}
	return w.observed
}

// History snapshots the recorded hit/miss ring, oldest outcome first
// (true = miss). It holds the last min(Observed, HistoryCap) outcomes;
// nil when recording is off or nothing was observed. Nil-safe.
func (w *Watchdog) History() []bool {
	if w == nil || w.HistoryCap <= 0 || w.observed == 0 {
		return nil
	}
	n := w.HistoryCap
	if w.observed < int64(n) {
		n = int(w.observed)
	}
	out := make([]bool, n)
	for i := 0; i < n; i++ {
		out[i] = w.history[int(w.observed-int64(n)+int64(i))%w.HistoryCap]
	}
	return out
}
