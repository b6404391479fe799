package rtos

import (
	"testing"

	"fcpn/internal/petri"
)

func ev(src petri.Transition, t int64) Event { return Event{Source: src, Time: t} }

func TestEventQueuePolicies(t *testing.T) {
	src := petri.Transition(0)
	cases := []struct {
		policy       OverflowPolicy
		wantAdmitted []int64 // arrival times left in the queue after 5 offers at cap 3
		wantDropped  int64
		wantRejected int64
		lastOfferOK  bool
	}{
		{DropNewest, []int64{0, 1, 2}, 2, 0, false},
		{DropOldest, []int64{2, 3, 4}, 2, 0, true},
		{Reject, []int64{0, 1, 2}, 0, 2, false},
	}
	for _, tc := range cases {
		t.Run(tc.policy.String(), func(t *testing.T) {
			q := NewEventQueue(QueueConfig{Capacity: 3, Policy: tc.policy})
			ok := false
			for i := int64(0); i < 5; i++ {
				ok = q.Offer(ev(src, i), i)
			}
			if ok != tc.lastOfferOK {
				t.Fatalf("last Offer = %v, want %v", ok, tc.lastOfferOK)
			}
			if q.Dropped != tc.wantDropped || q.Rejected != tc.wantRejected {
				t.Fatalf("dropped=%d rejected=%d, want %d/%d",
					q.Dropped, q.Rejected, tc.wantDropped, tc.wantRejected)
			}
			if q.Lost() != tc.wantDropped+tc.wantRejected {
				t.Fatalf("Lost=%d", q.Lost())
			}
			var got []int64
			for {
				qe, ok := q.Pop()
				if !ok {
					break
				}
				got = append(got, qe.Arrival)
			}
			if len(got) != len(tc.wantAdmitted) {
				t.Fatalf("queue held %v, want %v", got, tc.wantAdmitted)
			}
			for i := range got {
				if got[i] != tc.wantAdmitted[i] {
					t.Fatalf("queue held %v, want %v", got, tc.wantAdmitted)
				}
			}
		})
	}
}

func TestEventQueueUnbounded(t *testing.T) {
	q := NewEventQueue(QueueConfig{})
	for i := int64(0); i < 1000; i++ {
		if !q.Offer(ev(petri.Transition(0), i), i) {
			t.Fatal("unbounded queue refused an event")
		}
	}
	if q.Len() != 1000 || q.Lost() != 0 {
		t.Fatalf("len=%d lost=%d", q.Len(), q.Lost())
	}
}

func TestPopEmpty(t *testing.T) {
	q := NewEventQueue(QueueConfig{Capacity: 1})
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop on empty queue reported an event")
	}
}

func TestWatchdog(t *testing.T) {
	w := &Watchdog{Budget: 100}
	if w.Observe(100) {
		t.Fatal("response == budget is not a miss")
	}
	if !w.Observe(150) {
		t.Fatal("response 150 > budget 100 must miss")
	}
	w.Observe(130)
	if w.Misses != 2 || w.WorstOverrun != 50 {
		t.Fatalf("misses=%d worst=%d", w.Misses, w.WorstOverrun)
	}
	var nilW *Watchdog
	if nilW.Observe(1 << 30) {
		t.Fatal("nil watchdog must never miss")
	}
	off := &Watchdog{}
	if off.Observe(1 << 30) {
		t.Fatal("zero budget disables the watchdog")
	}
}

func TestParsePolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want OverflowPolicy
	}{
		{"drop-newest", DropNewest},
		{"DropOldest", DropOldest},
		{" reject ", Reject},
	} {
		got, err := ParsePolicy(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParsePolicy(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() == "" {
			t.Fatal("empty String()")
		}
	}
	if _, err := ParsePolicy("fifo"); err == nil {
		t.Fatal("unknown policy must fail")
	}
}

func TestKernelAdmitComplete(t *testing.T) {
	cost := DefaultCostModel()
	k := NewKernel(cost, 0)
	// No queue: every event is admitted and only the interrupt is charged.
	if k.Admit(ev(petri.Transition(0), 0), 0, 1) != 1 {
		t.Fatal("queueless kernel must admit")
	}
	// A group of copies is admitted whole, one interrupt per copy.
	if k.Admit(ev(petri.Transition(0), 0), 0, 3) != 3 || k.Interrupts != 4 || k.Cycles != 4*cost.Interrupt {
		t.Fatalf("queueless group admission: interrupts=%d cycles=%d", k.Interrupts, k.Cycles)
	}
	k.Queue = NewEventQueue(QueueConfig{Capacity: 1, Policy: Reject})
	k.Watch = &Watchdog{Budget: 10}
	if k.Admit(ev(petri.Transition(0), 1), 1, 1) != 1 {
		t.Fatal("first event fits")
	}
	if k.Admit(ev(petri.Transition(0), 2), 2, 1) != 0 {
		t.Fatal("second event must be rejected at capacity 1")
	}
	// Every copy of a group is offered: at capacity 1 all three bounce.
	if k.Admit(ev(petri.Transition(0), 3), 3, 3) != 0 || k.Queue.Rejected != 4 {
		t.Fatalf("bounded group admission: rejected=%d", k.Queue.Rejected)
	}
	if !k.Complete(25) {
		t.Fatal("response 25 > deadline 10 must register a miss")
	}
	if k.Watch.Misses != 1 {
		t.Fatalf("misses=%d", k.Watch.Misses)
	}
}

func TestWatchdogDisabledSemantics(t *testing.T) {
	// Budget == 0 means DISABLED, not "zero-cycle deadline": nothing is
	// a miss, nothing is counted, nothing is recorded — even with a
	// history ring configured.
	off := &Watchdog{Budget: 0, HistoryCap: 8}
	for _, r := range []int64{0, 1, 1 << 40} {
		if off.Observe(r) {
			t.Fatalf("disabled watchdog missed at response %d", r)
		}
	}
	if off.Misses != 0 || off.WorstOverrun != 0 {
		t.Fatalf("disabled watchdog counted: %+v", off)
	}
	if off.Observed() != 0 || off.History() != nil {
		t.Fatalf("disabled watchdog recorded history: observed=%d hist=%v",
			off.Observed(), off.History())
	}
	// Negative budgets are disabled too.
	neg := &Watchdog{Budget: -5}
	if neg.Observe(1) || neg.Observed() != 0 {
		t.Fatal("negative budget must disable the watchdog")
	}
	// Nil-safety extends to the new accessors.
	var nilW *Watchdog
	if nilW.Observed() != 0 || nilW.History() != nil {
		t.Fatal("nil watchdog accessors must be zero")
	}
}

func TestWatchdogHistoryRing(t *testing.T) {
	w := &Watchdog{Budget: 10, HistoryCap: 4}
	// Responses: hit, miss, hit, miss, miss — 5 outcomes through a
	// 4-slot ring, so the oldest (the first hit) falls out.
	for _, r := range []int64{5, 20, 10, 11, 30} {
		w.Observe(r)
	}
	if w.Observed() != 5 {
		t.Fatalf("observed = %d", w.Observed())
	}
	got := w.History()
	want := []bool{true, false, true, true} // miss, hit, miss, miss
	if len(got) != len(want) {
		t.Fatalf("history = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("history[%d] = %v, want %v (%v)", i, got[i], want[i], got)
		}
	}
	// Fewer outcomes than the cap: the snapshot is exactly what was fed.
	short := &Watchdog{Budget: 10, HistoryCap: 8}
	short.Observe(50)
	short.Observe(1)
	if h := short.History(); len(h) != 2 || !h[0] || h[1] {
		t.Fatalf("short history = %v", h)
	}
	// HistoryCap == 0: counting still works, recording is off.
	bare := &Watchdog{Budget: 10}
	bare.Observe(100)
	if bare.Misses != 1 || bare.History() != nil {
		t.Fatalf("bare watchdog: misses=%d hist=%v", bare.Misses, bare.History())
	}
}
