package engine

import (
	"slices"

	"fcpn/internal/core"
	"fcpn/internal/petri"
)

// schedPayload is the sched: layer's entry: a schedule's cycles as
// firing sequences of canonical positions, cycles sorted
// lexicographically. Position k is the little-endian integer in
// pos[k*width:(k+1)*width], and cycle i fires positions ends[i-1] (0 for
// the first cycle) up to ends[i]. The payload never leaves the process,
// so it carries no version and no check against foreign bytes. width is
// the fewest bytes that hold the net's last position, so every net with
// one canonical hash packs alike; it is 1 below 257 transitions. Plain
// int32 positions raised perfbench's peak RSS on every workload
// (docs/ENGINE.md).
type schedPayload struct {
	width int
	pos   []byte
	ends  []int
}

// packSchedule packs the cycles of a schedule solved on the canonical
// twin of a net with nT transitions: the twin's transition indices are
// canonical positions.
func packSchedule(nT int, cycles []core.Cycle) *schedPayload {
	seqs := make([][]petri.Transition, len(cycles))
	steps := 0
	for i := range cycles {
		seqs[i] = cycles[i].Sequence
		steps += len(seqs[i])
	}
	slices.SortFunc(seqs, slices.Compare)
	p := &schedPayload{width: 1, ends: make([]int, len(seqs))}
	for (nT-1)>>(8*p.width) > 0 {
		p.width++
	}
	p.pos = make([]byte, 0, steps*p.width)
	for i, seq := range seqs {
		for _, t := range seq {
			for b := 0; b < p.width; b++ {
				p.pos = append(p.pos, byte(t>>(8*b)))
			}
		}
		p.ends[i] = len(p.pos) / p.width
	}
	return p
}

// at returns position k.
func (p *schedPayload) at(k int) int {
	v := 0
	for b := p.width - 1; b >= 0; b-- {
		v = v<<8 | int(p.pos[k*p.width+b])
	}
	return v
}
