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
const schedCacheVersion = 3

// schedKey is the cache key of a net's schedule payload.
func schedKey(hash string) string {
	return fmt.Sprintf("sched:v%d:%s", schedCacheVersion, hash)
}

// encodeSchedule serialises a schedule's canonical firing sequences, one
// per cycle. It stores nothing else: each cycle's allocation and
// reduction are read off its sequence when the schedule is rebuilt.
//
// Cycle sequences repeat a small set of transitions many times (the
// firing counts of the covering T-invariant), so each cycle is encoded
// against the sorted distinct canonical positions it fires,
// delta-encoded as uvarint gaps, with the sequence itself stored as
// indices into that set (almost always one byte each) instead of
// absolute positions.
func encodeSchedule(seqs [][]int) []byte {
	size, maxPos := 1+binary.MaxVarintLen64, -1
	for _, seq := range seqs {
		// Gaps and indices take one byte each unless they are large.
		size += 2*binary.MaxVarintLen64 + 2*len(seq)
		for _, pos := range seq {
			maxPos = max(maxPos, pos)
		}
	}
	buf := make([]byte, 0, size)
	buf = append(buf, schedCacheVersion)
	buf = binary.AppendUvarint(buf, uint64(len(seqs)))
	// index[pos] is pos's index among the positions the current cycle
	// fires, and -1 outside the cycle. Canonical positions are below the
	// net's transition count; a payload decoded from other bytes may hold
	// any position, and past maxIndexedPos each firing's index is found
	// by binary search instead.
	var index []int
	if maxPos <= maxIndexedPos {
		index = make([]int, maxPos+1)
		for pos := range index {
			index[pos] = -1
		}
	}
	var fired []int
	for _, seq := range seqs {
		fired = fired[:0]
		if index == nil {
			fired = append(fired, seq...)
		} else {
			for _, pos := range seq {
				if index[pos] < 0 {
					index[pos] = 0
					fired = append(fired, pos)
				}
			}
		}
		slices.Sort(fired)
		fired = slices.Compact(fired)
		buf = binary.AppendUvarint(buf, uint64(len(fired)))
		prev := 0
		for _, pos := range fired {
			buf = binary.AppendUvarint(buf, uint64(pos-prev))
			prev = pos
		}
		buf = binary.AppendUvarint(buf, uint64(len(seq)))
		if index == nil {
			for _, pos := range seq {
				i, _ := slices.BinarySearch(fired, pos)
				buf = binary.AppendUvarint(buf, uint64(i))
			}
			continue
		}
		for k, pos := range fired {
			index[pos] = k
		}
		for _, pos := range seq {
			buf = binary.AppendUvarint(buf, uint64(index[pos]))
		}
		for _, pos := range fired {
			index[pos] = -1
		}
	}
	return buf
}

// maxIndexedPos bounds the positions encodeSchedule indexes by table.
const maxIndexedPos = 1 << 20

// decodeSchedule parses an encodeSchedule payload, validating the
// version, every count and every index, so a foreign or truncated
// payload surfaces as an error, never a bogus schedule or a panic.
func decodeSchedule(data []byte) ([][]int, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("engine: empty schedule payload")
	}
	if data[0] != schedCacheVersion {
		return nil, fmt.Errorf("engine: schedule payload version %d, want %d", data[0], schedCacheVersion)
	}
	data = data[1:]
	const maxInt = int(^uint(0) >> 1)
	next := func() (int, error) {
		v, n := binary.Uvarint(data)
		if n <= 0 || v > uint64(maxInt) {
			return 0, fmt.Errorf("engine: truncated or oversized schedule payload")
		}
		data = data[n:]
		return int(v), nil
	}
	// count reads a length; every element it counts takes at least one
	// more byte, so a count past the bytes left is corrupt.
	count := func() (int, error) {
		v, err := next()
		if err == nil && v > len(data) {
			err = fmt.Errorf("engine: schedule payload count %d exceeds its %d remaining bytes", v, len(data))
		}
		return v, err
	}
	nCycles, err := count()
	if err != nil {
		return nil, err
	}
	seqs := make([][]int, nCycles)
	// Every sequence element takes at least one byte, so the sequences
	// fit one backing array of len(data) elements.
	steps := make([]int, 0, len(data))
	var fired []int
	for i := range seqs {
		nFired, err := count()
		if err != nil {
			return nil, err
		}
		fired = slices.Grow(fired[:0], nFired)[:nFired]
		pos := 0
		for k := range fired {
			gap, err := next()
			if err != nil {
				return nil, err
			}
			if (k > 0 && gap == 0) || gap > maxInt-pos {
				return nil, fmt.Errorf("engine: schedule payload positions not strictly increasing")
			}
			pos += gap
			fired[k] = pos
		}
		nSeq, err := count()
		if err != nil {
			return nil, err
		}
		start := len(steps)
		for range nSeq {
			idx, err := next()
			if err != nil {
				return nil, err
			}
			if idx >= nFired {
				return nil, fmt.Errorf("engine: schedule payload sequence index %d out of its %d fired transitions", idx, nFired)
			}
			steps = append(steps, fired[idx])
		}
		seqs[i] = steps[start:len(steps):len(steps)]
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("engine: %d trailing bytes in schedule payload", len(data))
	}
	return seqs, nil
}
