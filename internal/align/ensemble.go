package align

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/vec"
	"repro/internal/workpool"
)

// Reference selects the alignment reference for an ensemble frame.
type Reference int

const (
	// RefFirst aligns every sample to sample 0 (cheap, the default).
	RefFirst Reference = iota
	// RefMedoid aligns to the sample whose centred configuration has
	// the smallest total unaligned distance to all others — a more
	// central reference that reduces the chance of an unrepresentative
	// anchor. Costs one extra O(m²·n) pass.
	RefMedoid
)

// FrameOptions configures AlignFrame.
type FrameOptions struct {
	// Reference selects the alignment anchor.
	Reference Reference
	// Workers bounds the parallelism; 0 means GOMAXPROCS.
	Workers int
}

// AlignFrame factors the transformation group F out of one ensemble frame:
// given the m raw configurations z^(t) (frames[s][i], all with the same
// type assignment), it returns the processed configurations w^(t), centred,
// rotation-aligned to a common reference and re-indexed by type-respecting
// correspondence so that index j means "the same particle" across samples
// in the sense of Sec. 5.2.
//
// The reference sample itself is returned centred with the identity
// permutation. The work is parallelised over samples.
func AlignFrame(frames [][]vec.Vec2, types []int, opt FrameOptions) ([][]vec.Vec2, error) {
	m := len(frames)
	if m == 0 {
		return nil, fmt.Errorf("align: empty frame set")
	}
	for s, f := range frames {
		if len(f) != len(types) {
			return nil, fmt.Errorf("align: sample %d has %d points, want %d", s, len(f), len(types))
		}
	}
	refIdx := 0
	if opt.Reference == RefMedoid {
		refIdx = medoidIndex(frames)
	}
	reference := append([]vec.Vec2(nil), frames[refIdx]...)
	vec.Center(reference)

	out := make([][]vec.Vec2, m)
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var aligners sync.Pool // per-goroutine ICP scratch, reused across samples
	err := workpool.Run(m, workers, func(s int) error {
		if s == refIdx {
			out[s] = reference
			return nil
		}
		al, _ := aligners.Get().(*Aligner)
		if al == nil {
			al = new(Aligner)
		}
		defer aligners.Put(al)
		dst := make([]vec.Vec2, len(types))
		if e := al.AlignReorderedInto(dst, frames[s], reference, types); e != nil {
			return fmt.Errorf("align: sample %d: %w", s, e)
		}
		out[s] = dst
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// medoidIndex returns the index of the sample minimising the summed
// centred-configuration distance to all other samples (no rotation or
// permutation applied — this is a cheap anchor heuristic, not a full
// alignment).
func medoidIndex(frames [][]vec.Vec2) int {
	m := len(frames)
	centred := make([][]vec.Vec2, m)
	for s, f := range frames {
		c := append([]vec.Vec2(nil), f...)
		vec.Center(c)
		centred[s] = c
	}
	best, bestCost := 0, -1.0
	for s := 0; s < m; s++ {
		var cost float64
		for t := 0; t < m; t++ {
			if t == s {
				continue
			}
			for i := range centred[s] {
				cost += centred[s][i].Dist2(centred[t][i])
			}
		}
		if bestCost < 0 || cost < bestCost {
			best, bestCost = s, cost
		}
	}
	return best
}
