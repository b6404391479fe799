package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"unicode/utf8"
)

// entriesOf returns m's entries sorted by name: the Entries value that
// stands for m.
func entriesOf[V string | int](m map[string]V) Entries[V] {
	if m == nil {
		return nil
	}
	out := make(Entries[V], 0, len(m))
	for name, v := range m {
		out = append(out, Entry[V]{name, v})
	}
	slices.SortFunc(out, func(a, b Entry[V]) int { return strings.Compare(a.Name, b.Name) })
	return out
}

// marshalBoth encodes v with json.Marshal and with an Encoder that does
// not escape HTML (the Encoder's trailing newline dropped).
func marshalBoth(t *testing.T, v any) (html, raw []byte) {
	t.Helper()
	html, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return html, bytes.TrimSuffix(buf.Bytes(), []byte("\n"))
}

// checkEntriesJSON checks that m's Entries marshal as m does, alone and
// inside a CycleExport, under both escaping modes, and unmarshal back to
// the entries of the map the JSON decodes to.
func checkEntriesJSON(t *testing.T, choices map[string]string, counts map[string]int) {
	t.Helper()
	type mapCycle struct {
		Choices  map[string]string `json:"choices"`
		Sequence []string          `json:"sequence"`
		Counts   map[string]int    `json:"counts"`
	}
	seq := make([]string, 0, len(counts))
	for name := range counts {
		seq = append(seq, name)
	}
	slices.Sort(seq)
	pairs := []struct{ got, want any }{
		{entriesOf(choices), choices},
		{entriesOf(counts), counts},
		{CycleExport{entriesOf(choices), seq, entriesOf(counts)}, mapCycle{choices, seq, counts}},
	}
	for i, p := range pairs {
		gotHTML, gotRaw := marshalBoth(t, p.got)
		wantHTML, wantRaw := marshalBoth(t, p.want)
		if !bytes.Equal(gotHTML, wantHTML) {
			t.Fatalf("json.Marshal:\n got %s\nwant %s", gotHTML, wantHTML)
		}
		if !bytes.Equal(gotRaw, wantRaw) {
			t.Fatalf("Encoder without HTML escaping:\n got %s\nwant %s", gotRaw, wantRaw)
		}
		if i < 2 {
			checkEntriesDecode(t, gotHTML)
			checkEntriesDecode(t, gotRaw)
		}
	}
	valid := func(s string) bool { return utf8.ValidString(s) }
	for name, v := range choices {
		if !valid(name) || !valid(v) {
			return
		}
	}
	for name := range counts {
		if !valid(name) {
			return
		}
	}
	var back CycleExport
	html, _ := marshalBoth(t, pairs[2].got)
	if err := json.Unmarshal(html, &back); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(back.Choices, entriesOf(choices)) || !slices.Equal(back.Counts, entriesOf(counts)) {
		t.Fatalf("round trip of %s gives %v %v", html, back.Choices, back.Counts)
	}
}

// checkEntriesDecode checks that data decodes into Entries as it decodes
// into the map type: an error for both or neither, and on success the
// map's entries, sorted.
func checkEntriesDecode(t *testing.T, data []byte) {
	t.Helper()
	checkDecodeAs[string](t, data)
	checkDecodeAs[int](t, data)
}

func checkDecodeAs[V string | int](t *testing.T, data []byte) {
	t.Helper()
	var m map[string]V
	merr := json.Unmarshal(data, &m)
	var es Entries[V]
	eerr := json.Unmarshal(data, &es)
	if (merr == nil) != (eerr == nil) {
		t.Fatalf("decoding %q: map error %v, Entries error %v", data, merr, eerr)
	}
	if merr != nil {
		return
	}
	if want := entriesOf(m); !slices.Equal(es, want) || (es == nil) != (want == nil) {
		t.Fatalf("decoding %q: Entries %v, map entries %v", data, es, want)
	}
}

// entriesFromBytes reads (name, value) pairs from arbitrary bytes, each
// name and value a length byte and that many bytes; an int value is the
// value bytes read as a little-endian int64.
func entriesFromBytes(data []byte) (map[string]string, map[string]int) {
	choices, counts := map[string]string{}, map[string]int{}
	next := func() (string, bool) {
		if len(data) == 0 {
			return "", false
		}
		n := min(int(data[0]), len(data)-1)
		s := string(data[1 : 1+n])
		data = data[1+n:]
		return s, true
	}
	for {
		name, ok := next()
		if !ok {
			break
		}
		v, _ := next()
		var word [8]byte
		copy(word[:], v)
		choices[name] = v
		counts[name] = int(int64(binary.LittleEndian.Uint64(word[:])))
	}
	return choices, counts
}

// oddJSONBytes are bytes that JSON escapes or that are not valid UTF-8 on
// their own: HTML-sensitive characters, quotes, backslashes, control
// bytes, DEL, the bytes of U+2028/U+2029 and of other multi-byte runes,
// and bytes that never occur in UTF-8.
var oddJSONBytes = []byte("<>&\"\\\x00\x01\x08\x09\x0a\x0c\x0d\x1f\x7f\xe2\x80\xa8\xa9\xc3\xa9\xed\xa0\xff\xfeaZ0 ")

func TestEntriesJSONMatchesMap(t *testing.T) {
	checkEntriesJSON(t, map[string]string{}, map[string]int{})
	checkEntriesJSON(t, map[string]string{"p<1>": "t&2", "\u2028": "\u2029", "\u00e9": "\xff", "\x01": "\t\b\f"},
		map[string]int{"a": -3, "B": 1 << 40, "\"\\": 0})
	rng := rand.New(rand.NewSource(5))
	word := func() string {
		b := make([]byte, rng.Intn(6))
		for i := range b {
			b[i] = oddJSONBytes[rng.Intn(len(oddJSONBytes))]
		}
		return string(b)
	}
	for trial := 0; trial < 2000; trial++ {
		choices, counts := map[string]string{}, map[string]int{}
		for i := rng.Intn(6); i > 0; i-- {
			name := word()
			choices[name] = word()
			counts[name] = rng.Intn(2000) - 1000
		}
		checkEntriesJSON(t, choices, counts)
	}
	for _, data := range []string{
		`null`, `{}`, `[]`, `"x"`, `1`, `{"a":"b","a":"c"}`, `{"a":1,"a":2}`, `{"a":1.5}`,
		`{"a":"1"}`, `{"\u00e9\ud800":null}`, ` {"b":2, "a":1} `, `{"a":1}x`, `{"a":`,
	} {
		checkEntriesDecode(t, []byte(data))
	}
}

func TestEntriesLookup(t *testing.T) {
	es := entriesOf(map[string]int{"b": 2, "a": 1, "c": 0})
	for _, tc := range []struct {
		name string
		v    int
		ok   bool
	}{{"a", 1, true}, {"b", 2, true}, {"c", 0, true}, {"", 0, false}, {"bb", 0, false}} {
		if v, ok := es.Lookup(tc.name); v != tc.v || ok != tc.ok {
			t.Fatalf("Lookup(%q) = %d, %v, want %d, %v", tc.name, v, ok, tc.v, tc.ok)
		}
	}
	var none Entries[string]
	if _, ok := none.Lookup("a"); ok {
		t.Fatal("found a name in an empty list")
	}
}

// FuzzExportJSON differentially fuzzes the export's name-sorted entries
// against the maps they replace. Entries read from the first input must
// marshal as the equivalent map does under json.Marshal and under an
// Encoder without HTML escaping, and unmarshal back to the sorted
// entries; the second input, arbitrary bytes, must decode into Entries
// exactly when it decodes into the map type, and to the map's entries.
func FuzzExportJSON(f *testing.F) {
	f.Add([]byte("\x02p1\x02t2\x02p2\x02t3"), []byte(`{"p1":"t2"}`))
	f.Add([]byte("\x03<&>\x01\"\x02\xe2\x80\x03\xe2\x80\xa8\x01\xff\x01\x00"), []byte(`{"a":1,"a":2}`))
	f.Add([]byte("\x01\\\x08\x01\x02\x03\x04\x05\x06\x07\x08"), []byte(`null`))
	f.Add([]byte{}, []byte(`{"a":1.5}`))
	f.Fuzz(func(t *testing.T, entries, raw []byte) {
		choices, counts := entriesFromBytes(entries)
		checkEntriesJSON(t, choices, counts)
		checkEntriesDecode(t, raw)
	})
}
