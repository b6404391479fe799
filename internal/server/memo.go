package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"fcpn/internal/engine"
	"fcpn/internal/petri"
)

// NetKey names the net a request body parses to: its canonical hash and
// the name its `net` line declares.
type NetKey struct {
	Hash string
	Name string
}

// memoGeneration bounds a BodyMemo: it holds the current generation and
// the one before, each at most this many bodies. An entry costs about
// 220 bytes (key, hash string, name and map overhead), so a full memo
// holds about 7 MB.
const memoGeneration = 1 << 14

// BodyMemo remembers which net a request body parsed to, keyed by the
// SHA-256 of the body. A resubmitted body then skips petri.Parse and the
// canonical form. The service and the coordinator each keep one.
//
// Only bodies that parsed and hashed are stored. The bound is two
// generations: when the current one fills it becomes the previous one
// and the one before is dropped; a hit in the previous generation copies
// the entry into the current one.
type BodyMemo struct {
	mu        sync.Mutex
	cur, prev map[[sha256.Size]byte]NetKey
}

// Lookup returns the net a body with this SHA-256 parsed to, if the
// memo holds it.
func (m *BodyMemo) Lookup(sum [sha256.Size]byte) (NetKey, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if k, ok := m.cur[sum]; ok {
		return k, true
	}
	k, ok := m.prev[sum]
	if ok {
		m.insert(sum, k)
	}
	return k, ok
}

// Resolve parses body, computes its canonical hash and remembers both
// under sum, the body's SHA-256. A parse failure is returned as petri
// reports it, and a canonicalisation panic as an error wrapping
// ErrCanonicalPanic; neither is remembered.
func (m *BodyMemo) Resolve(sum [sha256.Size]byte, body []byte) (NetKey, *petri.Net, error) {
	n, err := petri.Parse(bytes.NewReader(body))
	if err != nil {
		return NetKey{}, nil, err
	}
	hash, err := canonicalHash(n)
	if err != nil {
		return NetKey{}, nil, err
	}
	k := NetKey{Hash: hash, Name: n.Name()}
	m.mu.Lock()
	m.insert(sum, k)
	m.mu.Unlock()
	return k, n, nil
}

func (m *BodyMemo) insert(sum [sha256.Size]byte, k NetKey) {
	if m.cur == nil || len(m.cur) >= memoGeneration {
		m.prev, m.cur = m.cur, make(map[[sha256.Size]byte]NetKey)
	}
	m.cur[sum] = k
}

// ErrCanonicalPanic marks a canonicalisation that panicked.
var ErrCanonicalPanic = errors.New("canonicalisation panicked")

// canonicalHash computes the net's canonical hash, converting a
// canonicalisation panic into an error so a hostile net cannot kill the
// handler goroutine.
func canonicalHash(n *petri.Net) (hash string, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: %v", ErrCanonicalPanic, r)
		}
	}()
	return n.CanonicalHash(), nil
}

// ValidHash reports whether s has the form of a canonical hash: 64
// lowercase hex digits. Report lookups refuse anything else before it
// reaches a store or an upstream URL.
func ValidHash(s string) bool {
	if len(s) != 2*sha256.Size {
		return false
	}
	for i := 0; i < len(s); i++ {
		if c := s[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// ReadBody reads a request body through http.MaxBytesReader, as
// ReadAll does.
func ReadBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	return ReadAll(http.MaxBytesReader(w, r.Body, limit), r.ContentLength, limit)
}

// ReadAll reads r to its end and returns what arrived, with the read
// error that ended it, if any. A declared length up to limit, the body
// limit, presizes the buffer: a sender that declares it and then tears
// the body costs no more than an honest body at the limit. A larger or
// unknown length grows the buffer as the data arrives.
func ReadAll(r io.Reader, declared, limit int64) ([]byte, error) {
	var buf bytes.Buffer
	if declared > 0 && declared <= limit {
		buf.Grow(int(declared) + bytes.MinRead) // the read that sees EOF needs no growth
	}
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// errReader fails every read with err.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// hitEnvelope is the complete body of a store hit, built once when the
// report is stored, at its exact size: what WriteJSON writes for the
// hit response.
func hitEnvelope(hash string, shard int, report []byte) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.Encode(AnalyzeResponse{Hash: hash, Cache: "hit", Shard: shard, Status: string(engine.StatusOK), Report: report})
	return bytes.Clone(buf.Bytes())
}

// missReply is the reply to the analysis that stored env: the hit
// envelope with "cache":"miss". The hash, hex digits, is the only member
// before the marker, so the first match is the marker.
func missReply(env []byte) []byte {
	return bytes.Replace(env, []byte(`"cache":"hit"`), []byte(`"cache":"miss"`), 1)
}

// WriteEnvelope writes a prebuilt JSON response body with its length.
func WriteEnvelope(w http.ResponseWriter, code int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	w.Write(body)
}
