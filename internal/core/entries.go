package core

import (
	"encoding/json"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Entry is one name and its value in an Entries list.
type Entry[V string | int] struct {
	Name  string
	Value V
}

// Entries is a set of values keyed by name, held as a slice sorted by name
// (strings.Compare order) without repeated names. It marshals as the JSON
// object a map[string]V marshals as, byte for byte, and unmarshals from
// any JSON object as that map does, a later duplicate key winning.
type Entries[V string | int] []Entry[V]

// Lookup returns the value stored under name.
func (es Entries[V]) Lookup(name string) (V, bool) {
	i, ok := slices.BinarySearchFunc(es, name, func(e Entry[V], name string) int {
		return strings.Compare(e.Name, name)
	})
	if !ok {
		var zero V
		return zero, false
	}
	return es[i].Value, true
}

// MarshalJSON writes the entries as a JSON object in name order, which is
// the order encoding/json writes a map's keys in. An empty list is {}.
// Strings are escaped as encoding/json escapes them with HTML escaping
// off; json.Marshal adds that escaping itself when it compacts the
// output, so either way the bytes are the map's.
func (es Entries[V]) MarshalJSON() ([]byte, error) {
	size := 2
	for _, e := range es {
		size += len(e.Name) + 4
		if s, ok := any(e.Value).(string); ok {
			size += len(s) + 2
		} else {
			size += 20
		}
	}
	buf := make([]byte, 0, size)
	buf = append(buf, '{')
	for i, e := range es {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendJSONString(buf, e.Name)
		buf = append(buf, ':')
		switch v := any(e.Value).(type) {
		case string:
			buf = appendJSONString(buf, v)
		case int:
			buf = strconv.AppendInt(buf, int64(v), 10)
		}
	}
	return append(buf, '}'), nil
}

// UnmarshalJSON replaces the entries with a JSON object's, decoded as a
// map[string]V decodes it, sorted by name. JSON null leaves the list nil,
// as it leaves a map.
func (es *Entries[V]) UnmarshalJSON(data []byte) error {
	var m map[string]V
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	if m == nil {
		*es = nil
		return nil
	}
	out := make(Entries[V], 0, len(m))
	for name, v := range m {
		out = append(out, Entry[V]{name, v})
	}
	slices.SortFunc(out, func(a, b Entry[V]) int { return strings.Compare(a.Name, b.Name) })
	*es = out
	return nil
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string exactly as encoding/json
// writes it with HTML escaping off: the short escapes \b \f \n \r \t,
// \u00XX for other control bytes, a backslash before " and \, the
// escape \ufffd for each byte that is not valid UTF-8, and U+2028 and
// U+2029 always escaped.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
