package observer

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/align"
	"repro/internal/infotheory"
	"repro/internal/kmeans"
	"repro/internal/rngx"
	"repro/internal/vec"
)

// Accumulator builds the per-step observer datasets of an ensemble from
// streamed frames, without ever materialising the ensemble or an aligned
// copy of it: each arriving frame is ICP-aligned against the retained
// reference configuration of its time step and written directly into row s
// of that step's infotheory.Dataset. Peak memory is the datasets themselves
// plus one reference trajectory — O(M·T·N) once, instead of the three
// transcripts (raw ensemble, aligned copy, datasets) of the batch path.
//
// Protocol:
//
//  1. SeedReference(t, pos) once per recorded step with the frames of the
//     reference sample (sample 0), in any order, from one goroutine.
//  2. FinishReference() — computes the k-means reduction (if configured),
//     allocates the datasets and writes the reference sample's rows.
//  3. Add(s, t, pos) exactly once per remaining (sample, step) pair, from
//     any number of goroutines concurrently.
//  4. Observers() after all Add calls have returned.
//
// Streaming alignment supports the RefFirst reference only: the medoid
// reference needs every sample of a frame simultaneously and therefore
// remains a batch-path feature (see FromEnsemble).
type Accumulator struct {
	cfg   Config
	m     int
	times []int
	types []int

	refs     [][]vec.Vec2 // centred reference configuration per step
	seeded   []bool
	finished bool

	labels   []int
	groups   [][]int // k-means variable groups; nil in per-particle mode
	datasets []*infotheory.Dataset

	// remaining[t] counts samples not yet written into step t; when it
	// reaches zero the step's dataset is complete and immutable.
	remaining []atomic.Int32
	// OnStepComplete, when set before FinishReference, is invoked exactly
	// once per step as soon as the step's dataset holds all m samples —
	// possibly concurrently for different steps, from whichever goroutine
	// completed the step. It lets the estimation stage of a pipeline
	// start on a step while later frames are still being simulated.
	OnStepComplete func(t int)

	scratch sync.Pool // *addScratch
}

// addScratch is the per-goroutine working set of Add: the ICP scratch plus
// a row buffer, pooled so that steady-state accumulation does not allocate.
type addScratch struct {
	al  align.Aligner
	row []vec.Vec2
}

// NewAccumulator prepares an accumulator for an ensemble of m samples over
// the given recorded time grid and type assignment. cfg.Align.Reference
// must be RefFirst (the default) unless cfg.SkipAlign is set.
func NewAccumulator(m int, times, types []int, cfg Config) (*Accumulator, error) {
	if m <= 0 {
		return nil, fmt.Errorf("observer: accumulator needs at least one sample, got %d", m)
	}
	if len(times) == 0 {
		return nil, fmt.Errorf("observer: ensemble has no recorded frames")
	}
	if len(types) == 0 {
		return nil, fmt.Errorf("observer: empty type assignment")
	}
	if !cfg.Streamable() {
		return nil, fmt.Errorf("observer: streaming alignment supports the RefFirst reference only")
	}
	a := &Accumulator{
		cfg:       cfg,
		m:         m,
		times:     append([]int(nil), times...),
		types:     append([]int(nil), types...),
		refs:      make([][]vec.Vec2, len(times)),
		seeded:    make([]bool, len(times)),
		remaining: make([]atomic.Int32, len(times)),
	}
	a.scratch.New = func() any { return new(addScratch) }
	return a, nil
}

// SeedReference records the reference sample's frame for step t (centred).
// Must be called for every step before FinishReference; not safe for
// concurrent use. pos is copied.
func (a *Accumulator) SeedReference(t int, pos []vec.Vec2) error {
	if a.finished {
		return fmt.Errorf("observer: SeedReference after FinishReference")
	}
	if t < 0 || t >= len(a.times) {
		return fmt.Errorf("observer: reference step %d outside time grid of %d", t, len(a.times))
	}
	if len(pos) != len(a.types) {
		return fmt.Errorf("observer: reference frame %d has %d points, want %d", t, len(pos), len(a.types))
	}
	c := append([]vec.Vec2(nil), pos...)
	vec.Center(c)
	a.refs[t] = c
	a.seeded[t] = true
	return nil
}

// FinishReference ends the reference phase: it derives the observer
// variables (per-particle, or the Sec. 5.3.1 k-means mean variables using
// the reference sample's final frame as the anchor), allocates the per-step
// datasets and writes the reference sample's rows.
func (a *Accumulator) FinishReference() error {
	if a.finished {
		return fmt.Errorf("observer: FinishReference called twice")
	}
	for t, ok := range a.seeded {
		if !ok {
			return fmt.Errorf("observer: reference frame %d not seeded", t)
		}
	}

	if a.cfg.KMeansK <= 0 {
		a.labels = append([]int(nil), a.types...)
		dims := make([]int, len(a.types))
		for v := range dims {
			dims[v] = 2
		}
		a.datasets = make([]*infotheory.Dataset, len(a.times))
		for t := range a.times {
			a.datasets[t] = infotheory.NewDataset(a.m, dims)
		}
	} else {
		// k-means reduction: partition particle indices per type on the
		// anchor frame — the aligned final frame of the reference sample.
		l := numTypes(a.types)
		anchor := a.refs[len(a.times)-1]
		groups, err := kmeans.PartitionByType(anchor, a.types, l, a.cfg.KMeansK, rngx.New(a.cfg.Seed))
		if err != nil {
			return fmt.Errorf("observer: k-means reduction: %w", err)
		}
		for ty, perType := range groups {
			for _, g := range perType {
				a.groups = append(a.groups, g)
				a.labels = append(a.labels, ty)
			}
		}
		if len(a.groups) < 2 {
			return fmt.Errorf("observer: k-means reduction produced %d observers; need at least 2", len(a.groups))
		}
		dims := make([]int, len(a.groups))
		for g := range dims {
			dims[g] = 2
		}
		a.datasets = make([]*infotheory.Dataset, len(a.times))
		for t := range a.times {
			a.datasets[t] = infotheory.NewDataset(a.m, dims)
		}
	}

	a.finished = true
	for t := range a.times {
		a.writeRow(t, 0, a.refs[t])
		a.remaining[t].Store(int32(a.m - 1))
		if a.m == 1 {
			a.complete(t)
		}
	}
	return nil
}

// Add aligns sample s's frame for step t against the step's reference and
// writes it into the step's dataset. Call exactly once per (s, t) with
// 1 ≤ s < m, after FinishReference; safe for concurrent use. pos is read
// during the call only.
func (a *Accumulator) Add(s, t int, pos []vec.Vec2) error {
	if !a.finished {
		return fmt.Errorf("observer: Add before FinishReference")
	}
	if s <= 0 || s >= a.m {
		return fmt.Errorf("observer: sample %d outside (0, %d)", s, a.m)
	}
	if t < 0 || t >= len(a.times) {
		return fmt.Errorf("observer: step %d outside time grid of %d", t, len(a.times))
	}
	if len(pos) != len(a.types) {
		return fmt.Errorf("observer: sample %d frame %d has %d points, want %d", s, t, len(pos), len(a.types))
	}
	sc := a.scratch.Get().(*addScratch)
	defer a.scratch.Put(sc)
	if a.cfg.SkipAlign {
		sc.row = append(sc.row[:0], pos...)
		vec.Center(sc.row)
	} else {
		if cap(sc.row) < len(pos) {
			sc.row = make([]vec.Vec2, len(pos))
		}
		sc.row = sc.row[:len(pos)]
		if err := sc.al.AlignReorderedInto(sc.row, pos, a.refs[t], a.types); err != nil {
			return fmt.Errorf("observer: sample %d frame %d: %w", s, t, err)
		}
	}
	a.writeRow(t, s, sc.row)
	if a.remaining[t].Add(-1) == 0 {
		a.complete(t)
	}
	return nil
}

func (a *Accumulator) complete(t int) {
	if a.OnStepComplete != nil {
		a.OnStepComplete(t)
	}
}

// writeRow stores one sample's aligned configuration as row s of step t's
// dataset — directly for per-particle observers, or as per-group mean
// positions under the k-means reduction (Sec. 5.3.1).
func (a *Accumulator) writeRow(t, s int, aligned []vec.Vec2) {
	d := a.datasets[t]
	if a.groups == nil {
		for v, p := range aligned {
			d.SetVar(s, v, p.X, p.Y)
		}
		return
	}
	for g, members := range a.groups {
		var sum vec.Vec2
		for _, i := range members {
			sum = sum.Add(aligned[i])
		}
		mean := sum.Scale(1 / float64(len(members)))
		d.SetVar(s, g, mean.X, mean.Y)
	}
}

// Times returns the recorded time grid.
func (a *Accumulator) Times() []int { return a.times }

// Labels returns the observer variable labels; valid after FinishReference.
func (a *Accumulator) Labels() []int { return a.labels }

// Datasets returns the per-step datasets; valid after FinishReference. A
// step's dataset is immutable once its OnStepComplete fired (or, without a
// callback, once every Add returned).
func (a *Accumulator) Datasets() []*infotheory.Dataset { return a.datasets }

// Observers packages the accumulated result. Call after the stream is done.
func (a *Accumulator) Observers() *Observers {
	return &Observers{
		Times:    append([]int(nil), a.times...),
		Datasets: a.datasets,
		Labels:   a.labels,
	}
}
