package engine

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// schedCacheVersion tags the wire format of the schedule layer's cache
// payload. Bump it whenever encodeSchedule's format changes: the version
// is part of the cache key (schedKey), so stale entries from an older
// binary are simply never hit rather than misdecoded, and the version
// byte inside the payload rejects any that arrive through other routes
// (a shared store, a corrupted journal).
const schedCacheVersion = 2

// schedKey is the cache key of a net's schedule payload.
func schedKey(hash string) string {
	return fmt.Sprintf("sched:v%d:%s", schedCacheVersion, hash)
}

// encodeSchedule serialises a canonical-space schedule payload.
//
// Cycle sequences repeat a small set of transitions many times (the
// firing counts of the covering T-invariant), so each cycle is encoded
// against its kept-transition set: the sorted canonical positions of the
// transitions the reduction kept, delta-encoded as uvarint gaps, with
// the sequence itself stored as indices into that set (almost always one
// byte each) instead of absolute positions. Choices are delta-encoded on
// their sorted representative-place positions, each paired with the
// kept-set index of the chosen transition.
func encodeSchedule(cs *cachedSchedule) []byte {
	buf := []byte{schedCacheVersion}
	buf = binary.AppendUvarint(buf, uint64(len(cs.cycles)))
	var kept []int
	for _, cc := range cs.cycles {
		kept = keptSet(kept[:0], cc)
		buf = binary.AppendUvarint(buf, uint64(len(kept)))
		prev := 0
		for _, pos := range kept {
			buf = binary.AppendUvarint(buf, uint64(pos-prev))
			prev = pos
		}
		buf = binary.AppendUvarint(buf, uint64(len(cc.seq)))
		for _, pos := range cc.seq {
			i, _ := slices.BinarySearch(kept, pos)
			buf = binary.AppendUvarint(buf, uint64(i))
		}
		buf = binary.AppendUvarint(buf, uint64(len(cc.choices)))
		prev = 0
		for _, pair := range cc.choices {
			buf = binary.AppendUvarint(buf, uint64(pair[0]-prev))
			prev = pair[0]
			i, _ := slices.BinarySearch(kept, pair[1])
			buf = binary.AppendUvarint(buf, uint64(i))
		}
	}
	return buf
}

// keptSet appends to dst the sorted distinct canonical transition
// positions a cycle references: its firing sequence plus every chosen
// transition. The chosen transitions are normally a subset of the
// sequence (the covering T-invariant fires every kept transition), but
// the union keeps the codec correct for any payload.
func keptSet(dst []int, cc cachedCycle) []int {
	dst = append(dst, cc.seq...)
	for _, pair := range cc.choices {
		dst = append(dst, pair[1])
	}
	slices.Sort(dst)
	return slices.Compact(dst)
}

// decodeSchedule parses an encodeSchedule payload, validating the
// version and every index so a foreign or truncated payload surfaces as
// an error, never a bogus schedule.
func decodeSchedule(data []byte) (*cachedSchedule, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("engine: empty schedule payload")
	}
	if data[0] != schedCacheVersion {
		return nil, fmt.Errorf("engine: schedule payload version %d, want %d", data[0], schedCacheVersion)
	}
	data = data[1:]
	next := func() (int, error) {
		v, n := binary.Uvarint(data)
		if n <= 0 || v > uint64(int(^uint(0)>>1)) {
			return 0, fmt.Errorf("engine: truncated or oversized schedule payload")
		}
		data = data[n:]
		return int(v), nil
	}
	nCycles, err := next()
	if err != nil {
		return nil, err
	}
	cs := &cachedSchedule{cycles: make([]cachedCycle, nCycles)}
	for i := 0; i < nCycles; i++ {
		nKept, err := next()
		if err != nil {
			return nil, err
		}
		kept := make([]int, nKept)
		pos := 0
		for k := 0; k < nKept; k++ {
			gap, err := next()
			if err != nil {
				return nil, err
			}
			pos += gap
			kept[k] = pos
		}
		nSeq, err := next()
		if err != nil {
			return nil, err
		}
		cc := cachedCycle{seq: make([]int, nSeq)}
		for j := 0; j < nSeq; j++ {
			idx, err := next()
			if err != nil {
				return nil, err
			}
			if idx >= nKept {
				return nil, fmt.Errorf("engine: schedule payload sequence index %d out of kept set of %d", idx, nKept)
			}
			cc.seq[j] = kept[idx]
		}
		nChoices, err := next()
		if err != nil {
			return nil, err
		}
		pos = 0
		for k := 0; k < nChoices; k++ {
			gap, err := next()
			if err != nil {
				return nil, err
			}
			pos += gap
			idx, err := next()
			if err != nil {
				return nil, err
			}
			if idx >= nKept {
				return nil, fmt.Errorf("engine: schedule payload choice index %d out of kept set of %d", idx, nKept)
			}
			cc.choices = append(cc.choices, [2]int{pos, kept[idx]})
		}
		cs.cycles[i] = cc
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("engine: %d trailing bytes in schedule payload", len(data))
	}
	return cs, nil
}
