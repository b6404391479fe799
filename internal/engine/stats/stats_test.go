package stats

import (
	"encoding/json"
	"reflect"
	"testing"
)

// TestSnapshotJSONFieldNames pins the wire names of the snapshot: they
// appear in qssd batch and client reports and the service's GET /v1/stats
// document, so a rename is a breaking API change and must fail a test,
// not slip through a refactor.
func TestSnapshotJSONFieldNames(t *testing.T) {
	want := map[string]bool{
		"jobs":             true,
		"cache_hits":       true,
		"cache_misses":     true,
		"hit_rate":         true,
		"queue_depth":      true,
		"queue_depth_peak": true,
		"busy_workers":     true,
		"workers":          true,
		"timeouts":         true,
		"panics":           true,
		"quarantine_skips": true,
		"utilization":      true,
		"trace":            true,
	}
	typ := reflect.TypeOf(Snapshot{})
	got := map[string]bool{}
	for i := 0; i < typ.NumField(); i++ {
		tag := typ.Field(i).Tag.Get("json")
		if tag == "" || tag == "-" {
			t.Fatalf("field %s has no json tag", typ.Field(i).Name)
		}
		for j := 0; j < len(tag); j++ {
			if tag[j] == ',' {
				tag = tag[:j]
				break
			}
		}
		got[tag] = true
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot JSON fields changed:\ngot  %v\nwant %v", got, want)
	}
}

// TestSnapshotJSONRoundTrip checks a populated snapshot survives
// marshal/unmarshal unchanged — the qssd client and the journal both
// rehydrate engine documents from JSON.
func TestSnapshotJSONRoundTrip(t *testing.T) {
	var c Counters
	c.Jobs.Store(7)
	c.CacheHits.Store(30)
	c.CacheMisses.Store(10)
	c.QueueDepth.Store(2)
	c.ObserveQueueDepth(5)
	c.BusyWorkers.Store(3)
	c.BusyNanos.Store(4e9)
	c.Timeouts.Store(1)
	c.Panics.Store(2)
	c.QuarantineSkips.Store(4)

	snap := c.Snapshot(4, 2e9)
	if snap.HitRate != 0.75 {
		t.Fatalf("hit rate = %v, want 0.75", snap.HitRate)
	}
	if snap.Utilization != 0.5 {
		t.Fatalf("utilization = %v, want 0.5", snap.Utilization)
	}
	if snap.QueueDepthPeak != 5 {
		t.Fatalf("queue depth peak = %v, want 5", snap.QueueDepthPeak)
	}

	b, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, back) {
		t.Fatalf("round trip changed the snapshot:\n%+v\nvs\n%+v", snap, back)
	}
}

func TestObserveQueueDepthKeepsPeak(t *testing.T) {
	var c Counters
	for _, d := range []int64{3, 9, 4} {
		c.ObserveQueueDepth(d)
	}
	if got := c.QueueDepthPeak.Load(); got != 9 {
		t.Fatalf("peak = %d, want 9", got)
	}
}
