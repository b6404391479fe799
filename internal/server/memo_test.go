package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"testing/iotest"

	"fcpn/internal/figures"
	"fcpn/internal/petri"
)

// TestBodyMemoBound: however many bodies pass through, the memo holds at
// most two generations, and the newest generation is always whole.
func TestBodyMemoBound(t *testing.T) {
	var m BodyMemo
	key := func(i int) (sum [sha256.Size]byte) {
		binary.LittleEndian.PutUint64(sum[:], uint64(i))
		return sum
	}
	const n = 3*memoGeneration + 17
	for i := 0; i < n; i++ {
		m.insert(key(i), NetKey{Hash: "h", Name: "n"})
		if l := len(m.cur) + len(m.prev); l > 2*memoGeneration {
			t.Fatalf("after %d inserts the memo holds %d entries, bound %d", i+1, l, 2*memoGeneration)
		}
	}
	for i := n - memoGeneration; i < n; i++ {
		if _, ok := m.Lookup(key(i)); !ok {
			t.Fatalf("entry %d of the newest generation was dropped", i)
		}
	}
	if _, ok := m.Lookup(key(0)); ok {
		t.Fatal("the oldest entry survived three generations")
	}
}

// TestBodyMemoResolve: a body that parses is remembered under its
// SHA-256 with the net's canonical hash and name; one that does not
// parse is never remembered.
func TestBodyMemoResolve(t *testing.T) {
	var m BodyMemo
	n := figures.Figure5()
	body := []byte(petri.Format(n))
	sum := sha256.Sum256(body)
	if _, ok := m.Lookup(sum); ok {
		t.Fatal("empty memo answered a lookup")
	}
	key, parsed, err := m.Resolve(sum, body)
	if err != nil || parsed == nil {
		t.Fatalf("Resolve: %v", err)
	}
	if want := (NetKey{Hash: n.CanonicalHash(), Name: n.Name()}); key != want {
		t.Fatalf("Resolve = %+v, want %+v", key, want)
	}
	if got, ok := m.Lookup(sum); !ok || got != key {
		t.Fatalf("Lookup after Resolve = %+v %v", got, ok)
	}

	bad := []byte("this is not a net")
	badSum := sha256.Sum256(bad)
	if _, _, err := m.Resolve(badSum, bad); err == nil {
		t.Fatal("Resolve accepted a malformed body")
	}
	if _, ok := m.Lookup(badSum); ok || len(m.cur)+len(m.prev) != 1 {
		t.Fatal("a malformed body was remembered")
	}
}

// TestReadBodyUnderLimit: bodies are read whole, with or without a
// declared length; past the limit the read fails with what arrived.
func TestReadBodyUnderLimit(t *testing.T) {
	src := petri.Format(figures.Figure5())
	for _, tc := range []struct {
		declared bool
		limit    int64
		ok       bool
	}{
		{true, 1 << 20, true}, {false, 1 << 20, true}, {false, 16, false},
	} {
		req, _ := http.NewRequest(http.MethodPost, "/", struct{ io.Reader }{strings.NewReader(src)})
		if tc.declared {
			req.ContentLength = int64(len(src))
		}
		got, err := ReadBody(httptest.NewRecorder(), req, tc.limit)
		if tc.ok && (err != nil || string(got) != src) {
			t.Errorf("%+v: read %q, %v", tc, got, err)
		}
		if !tc.ok && (err == nil || int64(len(got)) != tc.limit) {
			t.Errorf("%+v: read %d bytes, err %v; want %d bytes and an error", tc, len(got), err, tc.limit)
		}
	}
}

// TestReadAllPresizeBound: a declared length presizes the buffer only up
// to the limit, and a torn body returns what arrived with the error.
func TestReadAllPresizeBound(t *testing.T) {
	for _, tc := range []struct {
		declared int64
		presized bool
	}{{1 << 10, true}, {1 << 20, true}, {64 << 20, false}, {-1, false}} {
		torn := io.MultiReader(strings.NewReader(`{"a"`), iotest.ErrReader(io.ErrUnexpectedEOF))
		got, err := ReadAll(torn, tc.declared, 1<<20)
		if err != io.ErrUnexpectedEOF || string(got) != `{"a"` {
			t.Errorf("declared %d: read %q, %v; want the torn prefix and io.ErrUnexpectedEOF", tc.declared, got, err)
		}
		if tc.presized && int64(cap(got)) < tc.declared || !tc.presized && cap(got) >= 4<<10 {
			t.Errorf("declared %d: buffer capacity %d", tc.declared, cap(got))
		}
	}
}

// TestMissReplyMatchesEncoder: the miss reply built from a stored hit
// envelope equals the handlers' encoding of the miss response, also when
// the report itself contains the hit marker.
func TestMissReplyMatchesEncoder(t *testing.T) {
	hash := figures.Figure5().CanonicalHash()
	for shard, report := range []string{`{}`, `{"name":"fig5"}`, `{"note":"\"cache\":\"hit\"","cache":"hit"}`} {
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		enc.SetEscapeHTML(false)
		enc.Encode(AnalyzeResponse{Hash: hash, Cache: "miss", Shard: shard, Status: "ok", Report: json.RawMessage(report)})
		if got := missReply(hitEnvelope(hash, shard, []byte(report))); !bytes.Equal(got, want.Bytes()) {
			t.Errorf("missReply = %q\nwant %q", got, want.Bytes())
		}
	}
}
