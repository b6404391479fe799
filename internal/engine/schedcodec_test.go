package engine

import (
	"math/rand"
	"reflect"
	"testing"

	"fcpn/internal/engine/stats"
	"fcpn/internal/trace"
)

func TestSchedCodecRoundTrip(t *testing.T) {
	cases := [][][]int{
		{},
		{{0, 3, 3, 7}},
		{{2, 2, 2, 5}, {0, 9, 0, 9, 9}},
		{{}, {4}},
		// Positions past maxIndexedPos take the binary-search path.
		{{maxIndexedPos + 9, 7, maxIndexedPos + 9}, {3, 3}},
	}
	for i, seqs := range cases {
		got, err := decodeSchedule(encodeSchedule(seqs))
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(got, seqs) {
			t.Fatalf("case %d: round trip\n got %v\nwant %v", i, got, seqs)
		}
	}
}

func TestSchedCodecRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		seqs := make([][]int, rng.Intn(5))
		for i := range seqs {
			fired := rng.Perm(40)[:rng.Intn(8)+1]
			seqs[i] = make([]int, rng.Intn(30))
			for j := range seqs[i] {
				seqs[i][j] = fired[rng.Intn(len(fired))]
			}
		}
		got, err := decodeSchedule(encodeSchedule(seqs))
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if !reflect.DeepEqual(got, seqs) {
			t.Fatalf("trial %d: round trip\n got %v\nwant %v", trial, got, seqs)
		}
	}
}

func TestSchedCodecRejectsBadPayloads(t *testing.T) {
	good := encodeSchedule([][]int{{1, 4, 1}})
	if _, err := decodeSchedule(nil); err == nil {
		t.Fatal("empty payload accepted")
	}
	bad := append([]byte(nil), good...)
	bad[0] = schedCacheVersion + 1
	if _, err := decodeSchedule(bad); err == nil {
		t.Fatal("wrong version accepted")
	}
	for cut := 1; cut < len(good); cut++ {
		if _, err := decodeSchedule(good[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, err := decodeSchedule(append(append([]byte(nil), good...), 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	for _, payload := range [][]byte{
		{schedCacheVersion, 0xff, 0xff, 0xff, 0xff, 0x0f}, // 2^32-1 cycles in no bytes
		{schedCacheVersion, 1, 2, 3, 0, 1, 0},             // a repeated fired position
		{schedCacheVersion, 1, 1, 3, 1, 1},                // a sequence index past the fired set
		// A second fired position past the largest int.
		{schedCacheVersion, 1, 2, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 1, 0},
	} {
		if _, err := decodeSchedule(payload); err == nil {
			t.Fatalf("payload %v accepted", payload)
		}
	}
}

// FuzzSchedCodec checks the schedule codec on arbitrary bytes:
// decodeSchedule never panics, and every payload it accepts re-encodes to
// bytes that decode to the same schedule.
func FuzzSchedCodec(f *testing.F) {
	f.Add(encodeSchedule(nil))
	f.Add(encodeSchedule([][]int{{0, 3, 3, 7}}))
	f.Add(encodeSchedule([][]int{{2, 2, 2, 5}, {0, 9, 0, 9, 9}, {}}))
	f.Add([]byte{schedCacheVersion, 1, 2, 3, 0, 1, 0})
	f.Add([]byte{schedCacheVersion, 1, 2, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		seqs, err := decodeSchedule(data)
		if err != nil {
			return
		}
		again, err := decodeSchedule(encodeSchedule(seqs))
		if err != nil {
			t.Fatalf("re-encoded payload rejected: %v", err)
		}
		if !reflect.DeepEqual(again, seqs) {
			t.Fatalf("re-encoded payload decodes to %v, want %v", again, seqs)
		}
	})
}

// TestSchedKeyStaysInSchedLayer pins the versioned key to the "sched"
// layer prefix: the cache derives its per-layer counters from everything
// before the first ':', so the version segment must come after it.
func TestSchedKeyStaysInSchedLayer(t *testing.T) {
	tr := trace.New()
	c := newCache(4, &stats.Counters{}, tr)
	if _, err := c.getOrCompute(schedKey("abc"), func() (any, error) { return []byte{1}, nil }); err != nil {
		t.Fatal(err)
	}
	if got := tr.Report().Counter("cache/sched/miss"); got != 1 {
		t.Fatalf("cache/sched/miss = %d, want 1", got)
	}
}
