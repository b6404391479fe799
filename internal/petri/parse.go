package petri

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// maxLine is the longest line Parse accepts, in bytes.
const maxLine = 1 << 20

// Parse reads the textual net format:
//
//	# comment
//	net figure3a
//	place p1            # unmarked place
//	place buf 2         # place with 2 initial tokens
//	trans t1
//	arc t1 -> p1        # direction inferred from node kinds
//	arc p1 -> t2 * 2    # arc weight 2
//	arc t2 -> p2 -> t4  # chains are allowed
//
// Nodes may also be declared implicitly by prefix: names starting with "p"
// are NOT auto-typed; every node must be declared before use so typos fail
// loudly. Lines are at most 1 MiB long. Repeated arcs between the same
// two nodes add up, and the sum must fit in int. Parse returns the first
// error with a line number, or, once every line has been read, an error
// naming an arc whose summed weight overflows.
func Parse(r io.Reader) (*Net, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, maxLine)
	b := NewBuilder("")
	named := false
	line := 0
	var fields [][]byte
	for sc.Scan() {
		line++
		text := sc.Bytes()
		if i := bytes.IndexByte(text, '#'); i >= 0 {
			text = text[:i]
		}
		fields = splitFields(fields, text)
		if len(fields) == 0 {
			continue
		}
		switch string(fields[0]) {
		case "net":
			if len(fields) != 2 {
				return nil, fmt.Errorf("petri: line %d: usage: net NAME", line)
			}
			if named {
				return nil, fmt.Errorf("petri: line %d: duplicate net directive", line)
			}
			named = true
			b.name = string(fields[1])
		case "place":
			if len(fields) != 2 && len(fields) != 3 {
				return nil, fmt.Errorf("petri: line %d: usage: place NAME [TOKENS]", line)
			}
			tokens := 0
			if len(fields) == 3 {
				v, err := strconv.Atoi(string(fields[2]))
				if err != nil || v < 0 {
					return nil, fmt.Errorf("petri: line %d: bad token count %q", line, fields[2])
				}
				tokens = v
			}
			if err := checkFresh(b, fields[1]); err != nil {
				return nil, fmt.Errorf("petri: line %d: %w", line, err)
			}
			b.MarkedPlace(string(fields[1]), tokens)
		case "trans", "transition":
			if len(fields) != 2 {
				return nil, fmt.Errorf("petri: line %d: usage: trans NAME", line)
			}
			if err := checkFresh(b, fields[1]); err != nil {
				return nil, fmt.Errorf("petri: line %d: %w", line, err)
			}
			b.Transition(string(fields[1]))
		case "arc":
			if err := parseArcChain(b, fields[1:]); err != nil {
				return nil, fmt.Errorf("petri: line %d: %w", line, err)
			}
		default:
			return nil, fmt.Errorf("petri: line %d: unknown directive %q", line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("petri: read: %w", err)
	}
	return b.build(true)
}

// ParseString is Parse over an in-memory document.
func ParseString(s string) (*Net, error) { return Parse(strings.NewReader(s)) }

// splitFields appends the fields of line to dst[:0] and returns it. It
// splits exactly as strings.Fields does: fields are maximal runs of runes
// that unicode.IsSpace rejects, and invalid UTF-8 bytes are not spaces.
func splitFields(dst [][]byte, line []byte) [][]byte {
	dst = dst[:0]
	start := -1
	for i := 0; i < len(line); {
		r, size := rune(line[i]), 1
		if r >= utf8.RuneSelf {
			r, size = utf8.DecodeRune(line[i:])
		}
		if unicode.IsSpace(r) {
			if start >= 0 {
				dst = append(dst, line[start:i])
				start = -1
			}
		} else if start < 0 {
			start = i
		}
		i += size
	}
	if start >= 0 {
		dst = append(dst, line[start:])
	}
	return dst
}

func checkFresh(b *Builder, name []byte) error {
	if _, dup := b.placeIndex[string(name)]; dup {
		return fmt.Errorf("duplicate node %q", name)
	}
	if _, dup := b.transIndex[string(name)]; dup {
		return fmt.Errorf("duplicate node %q", name)
	}
	return nil
}

// parseArcChain handles "A -> B [* W] [-> C [* W] ...]".
func parseArcChain(b *Builder, fields [][]byte) error {
	if len(fields) < 3 {
		return fmt.Errorf("usage: arc FROM -> TO [* WEIGHT] [-> NEXT ...]")
	}
	cur := fields[0]
	i := 1
	for i < len(fields) {
		if string(fields[i]) != "->" {
			return fmt.Errorf("expected \"->\" at token %q", fields[i])
		}
		if i+1 >= len(fields) {
			return fmt.Errorf("dangling \"->\"")
		}
		next := fields[i+1]
		i += 2
		weight := 1
		if i < len(fields) && string(fields[i]) == "*" {
			if i+1 >= len(fields) {
				return fmt.Errorf("dangling \"*\"")
			}
			w, err := strconv.Atoi(string(fields[i+1]))
			if err != nil || w <= 0 {
				return fmt.Errorf("bad weight %q", fields[i+1])
			}
			weight = w
			i += 2
		}
		if err := addArcByName(b, cur, next, weight); err != nil {
			return err
		}
		cur = next
	}
	return nil
}

func addArcByName(b *Builder, from, to []byte, w int) error {
	if p, ok := b.placeIndex[string(from)]; ok {
		t, ok := b.transIndex[string(to)]
		if !ok {
			if _, isPlace := b.placeIndex[string(to)]; isPlace {
				return fmt.Errorf("arc %s -> %s connects two places", from, to)
			}
			return fmt.Errorf("unknown node %q", to)
		}
		b.WeightedArc(p, t, w)
		return nil
	}
	if t, ok := b.transIndex[string(from)]; ok {
		p, ok := b.placeIndex[string(to)]
		if !ok {
			if _, isTrans := b.transIndex[string(to)]; isTrans {
				return fmt.Errorf("arc %s -> %s connects two transitions", from, to)
			}
			return fmt.Errorf("unknown node %q", to)
		}
		b.WeightedArcTP(t, p, w)
		return nil
	}
	return fmt.Errorf("unknown node %q", from)
}

// Format serialises the net in the textual format accepted by Parse. The
// output is deterministic: places, then transitions, then arcs, each in
// index order.
func Format(n *Net) string {
	var sb strings.Builder
	if n.Name() != "" {
		fmt.Fprintf(&sb, "net %s\n", n.Name())
	}
	init := n.initialMark
	for p := 0; p < n.NumPlaces(); p++ {
		if len(init) == n.NumPlaces() && init[p] > 0 {
			fmt.Fprintf(&sb, "place %s %d\n", n.placeNames[p], init[p])
		} else {
			fmt.Fprintf(&sb, "place %s\n", n.placeNames[p])
		}
	}
	for t := 0; t < n.NumTransitions(); t++ {
		fmt.Fprintf(&sb, "trans %s\n", n.transNames[t])
	}
	for _, a := range n.Arcs() {
		var from, to string
		if a.FromKind == PlaceNode {
			from, to = n.placeNames[a.From], n.transNames[a.To]
		} else {
			from, to = n.transNames[a.From], n.placeNames[a.To]
		}
		if a.Weight > 1 {
			fmt.Fprintf(&sb, "arc %s -> %s * %d\n", from, to, a.Weight)
		} else {
			fmt.Fprintf(&sb, "arc %s -> %s\n", from, to)
		}
	}
	return sb.String()
}
