package petri

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// FuzzParse checks the parser never panics, that it accepts and rejects
// what the strings.Fields reference parser does with the same error and
// the same net, that its field splitter splits every line as
// strings.Fields does, and that every accepted document round-trips
// through Format. Run the corpus in normal test runs; run with
// -fuzz=FuzzParse for coverage-guided exploration.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"",
		"net x\n",
		"place p\ntrans t\narc p -> t\n",
		"place p 3\ntrans t\narc t -> p * 2\n",
		"# comment only\n",
		"net a\nplace p\nplace q\ntrans t\narc p -> t -> q\n",
		"arc nope -> nope\n",
		"place p\nplace p\n",
		"trans t\narc t -> t\n",
		"place p -1\n",
		"net x\nnet y\n",
		"place p\ntrans t\narc p -> t * 0\n",
		strings.Repeat("place p", 3),
		overflowDoc,
		// Separators strings.Fields treats specially: ASCII and Unicode
		// spaces, NEL as one invalid byte and as a rune, invalid UTF-8,
		// U+200B (not a space) and U+FFFD both valid and invalid.
		"place\u00a0p\ntrans t\u3000\narc p -> t\xff\n" +
			" a  b\tc\v\fd\re \ntrans\u0085t\n\xc2\n\xc2\x85\na\xffb c\n\u200bzero-width\n\ufffd \xef\xbf\xbd\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		var fields [][]byte
		for _, line := range strings.Split(doc, "\n") {
			fields = splitFields(fields, []byte(line))
			want := strings.Fields(line)
			if len(fields) != len(want) {
				t.Fatalf("splitFields(%q) has %d fields, strings.Fields %d", line, len(fields), len(want))
			}
			for i := range want {
				if string(fields[i]) != want[i] {
					t.Fatalf("splitFields(%q)[%d] = %q, want %q", line, i, fields[i], want[i])
				}
			}
		}
		n, err := ParseString(doc)
		ref, refErr := refParseString(doc)
		if (err == nil) != (refErr == nil) || (err != nil && err.Error() != refErr.Error()) {
			t.Fatalf("Parse error %v, reference %v", err, refErr)
		}
		if err != nil {
			return // rejection is fine; panics are not
		}
		if err := diffNets(n, ref); err != nil {
			t.Fatalf("Parse differs from the reference: %v", err)
		}
		// Accepted documents must round-trip.
		text := Format(n)
		back, err := ParseString(text)
		if err != nil {
			t.Fatalf("Format output unparseable: %v\n%s", err, text)
		}
		if back.NumPlaces() != n.NumPlaces() || back.NumTransitions() != n.NumTransitions() {
			t.Fatalf("round trip changed shape: %d/%d vs %d/%d",
				n.NumPlaces(), n.NumTransitions(), back.NumPlaces(), back.NumTransitions())
		}
		if len(back.Arcs()) != len(n.Arcs()) {
			t.Fatal("round trip changed arcs")
		}
		if !back.InitialMarking().Equal(n.InitialMarking()) {
			t.Fatal("round trip changed marking")
		}
	})
}

// FuzzParsePN checks the .pn front end end-to-end: malformed documents
// must be rejected with an error — never a panic — and accepted documents
// must survive the structural pipeline (Validate, canonical hashing)
// without panicking. The canonical form must equal the string
// refinement's (refCanonicalForm) in all five fields, and the hash must
// be invariant under a Format round-trip, since Format only renames
// nothing and reorders declarations — exactly the variation the hash is
// defined to ignore.
func FuzzParsePN(f *testing.F) {
	seeds := []string{
		"",
		"net broken\nplace\n",
		"place p 1\ntrans t\narc p -> t\narc t -> p\n",
		"place a\nplace b\ntrans t u\n",
		"arc -> ->\n",
		"place p 9999999999999999999\n",
		"trans t\narc t -> t * -3\n",
		"net n\nplace p 2\ntrans t\narc p -> t * 2\narc t -> p * 2\n",
		"\x00\x01place p\n",
		overflowDoc,
		"place p q\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		n, err := ParseString(doc)
		if err != nil {
			if n != nil {
				t.Fatal("error with non-nil net")
			}
			return // malformed input must error, never panic
		}
		_ = n.Validate() // must not panic on any accepted net
		if got, want := n.NumArcs(), len(n.Arcs()); got != want {
			t.Fatalf("NumArcs = %d, len(Arcs()) = %d", got, want)
		}
		h := n.CanonicalHash()
		if h == "" {
			t.Fatal("empty canonical hash")
		}
		if err := diffCanonicalForms(n.CanonicalForm(), refCanonicalForm(n)); err != nil {
			t.Fatalf("CanonicalForm differs from the reference: %v", err)
		}
		back, err := ParseString(Format(n))
		if err != nil {
			t.Fatalf("Format output unparseable: %v", err)
		}
		if bh := back.CanonicalHash(); bh != h {
			t.Fatalf("canonical hash not Format-stable: %s vs %s", h, bh)
		}
	})
}

// FuzzFiring checks the firing rule against arbitrary small nets driven
// by arbitrary firing scripts: no panic, markings stay non-negative, and
// Fire errors exactly when Enabled is false.
func FuzzFiring(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2})
	f.Add(int64(42), []byte{5, 5, 5, 5})
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		n := randomNet(seed)
		if n.NumTransitions() == 0 {
			return
		}
		m := n.InitialMarking()
		for _, b := range script {
			tr := Transition(int(b) % n.NumTransitions())
			enabled := n.Enabled(m, tr)
			err := n.Fire(m, tr)
			if enabled && err != nil {
				t.Fatalf("enabled transition failed to fire: %v", err)
			}
			if !enabled && err == nil {
				t.Fatal("disabled transition fired")
			}
			for p, k := range m {
				if k < 0 {
					t.Fatalf("negative marking at place %d: %v", p, m)
				}
			}
		}
	})
}

// FuzzBuilderMatchesReference plays a random sequence of Builder
// operations on Builder and on the map-based reference builder: places,
// transitions, arcs in both directions with repeats, weights near
// math.MaxInt so that some sums overflow, marking changes and Build calls
// in between. Every Build must panic on both with the same message or give
// equal nets, with equal conflict clusters and canonical twins, and no
// later operation may change a net already built.
func FuzzBuilderMatchesReference(f *testing.F) {
	f.Add([]byte{0, 2, 1, 2, 0, 0, 3, 0, 0, 4, 1, 0, 7})
	f.Add([]byte{0, 1, 0, 0, 1, 1, 2, 0, 0, 2, 1, 0, 2, 1, 1, 7, 0, 2, 4, 1, 1, 6, 0, 0, 7})
	f.Add([]byte{0, 1, 1, 2, 0, 0, 255, 2, 0, 0, 254, 7})
	f.Fuzz(func(t *testing.T, ops []byte) {
		nb, rb := NewBuilder("fuzz"), newRefBuilder("fuzz")
		type built struct {
			n    *Net
			dump string
		}
		var nets []built
		places, trans := 0, 0
		build := func() {
			got, gotPanic := buildRecover(nb.Build)
			want, wantPanic := buildRecover(rb.Build)
			if gotPanic != wantPanic {
				t.Fatalf("Build panicked with %q, reference with %q", gotPanic, wantPanic)
			}
			if got == nil {
				return
			}
			if err := diffNets(got, want); err != nil {
				t.Fatal(err)
			}
			if err := checkClusters(got); err != nil {
				t.Fatal(err)
			}
			if err := diffNets(got.CanonicalNet(), refCanonicalNet(got)); err != nil {
				t.Fatalf("CanonicalNet: %v", err)
			}
			nets = append(nets, built{got, dumpNet(got)})
		}
		for i := 0; i < len(ops); i++ {
			op := ops[i] % 8
			arg := func() int {
				if i+1 < len(ops) {
					i++
					return int(ops[i])
				}
				return 0
			}
			switch op {
			case 0:
				name, tokens := fmt.Sprintf("p%d", places), arg()%4
				nb.MarkedPlace(name, tokens)
				rb.MarkedPlace(name, tokens)
				places++
			case 1:
				name := fmt.Sprintf("t%d", trans)
				nb.Transition(name)
				rb.Transition(name)
				trans++
			case 2, 3, 4, 5:
				p, tr, w := arg(), arg(), arg()
				if places == 0 || trans == 0 {
					continue
				}
				p, tr = p%places, tr%trans
				if w >= 250 {
					w = math.MaxInt - (255 - w) // a second such arc overflows
				} else {
					w = 1 + w%4
				}
				if op < 4 {
					nb.WeightedArc(Place(p), Transition(tr), w)
					rb.WeightedArc(Place(p), Transition(tr), w)
				} else {
					nb.WeightedArcTP(Transition(tr), Place(p), w)
					rb.WeightedArcTP(Transition(tr), Place(p), w)
				}
			case 6:
				p, tokens := arg(), arg()%3
				if places == 0 {
					continue
				}
				nb.SetMarking(Place(p%places), tokens)
				rb.SetMarking(Place(p%places), tokens)
			case 7:
				build()
			}
		}
		build()
		for i, b := range nets {
			if d := dumpNet(b.n); d != b.dump {
				t.Fatalf("net of Build %d changed after it was built:\n%s\nwas\n%s", i, d, b.dump)
			}
		}
	})
}

// buildRecover calls build and returns its net, or its panic message.
func buildRecover(build func() *Net) (n *Net, msg string) {
	defer func() {
		if r := recover(); r != nil {
			n, msg = nil, fmt.Sprint(r)
		}
	}()
	return build(), ""
}
