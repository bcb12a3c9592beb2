package align

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/vec"
)

// ICP loop parameters. The loop stops after maxIterations iterations or
// when the RMS correspondence distance improves by less than tolerance
// between iterations. ICP converges to the nearest local optimum, so it is
// restarted from restarts initial rotations evenly spaced in [0, 2π) to
// stay robust to large relative rotations.
const (
	maxIterations = 50
	tolerance     = 1e-9
	restarts      = 8
)

// Result reports an ICP alignment.
type Result struct {
	// Transform maps the original moving cloud onto the reference.
	Transform Rigid
	// Aligned is the moving cloud after the transform, in the original
	// particle order.
	Aligned []vec.Vec2
	// Perm maps reference slots to moving particles: Perm[j] = i means
	// moving particle i corresponds to reference particle j. It is a
	// bijection that never crosses types (an element of S*_n).
	Perm []int
	// RMS is the final root-mean-square distance between matched pairs.
	RMS float64
	// Iterations is the total ICP iterations over all restarts.
	Iterations int
}

// Reordered returns the aligned moving cloud re-indexed to reference slots:
// out[j] is the aligned position of the moving particle matched to
// reference particle j. This is the w-representation of Sec. 5.2 — after
// this step, "particles close to each other in different samples at the
// same time are considered to represent the same particle".
func (r Result) Reordered() []vec.Vec2 {
	out := make([]vec.Vec2, len(r.Aligned))
	for j, i := range r.Perm {
		out[j] = r.Aligned[i]
	}
	return out
}

// Aligner runs ICP alignments with reusable scratch storage. A zero Aligner
// is ready to use; after the first call, further alignments of same-sized
// configurations perform (almost) no heap allocation, which matters when an
// ensemble pipeline aligns tens of thousands of frames. An Aligner is not
// safe for concurrent use — give each worker goroutine its own.
type Aligner struct {
	mov, ref  []vec.Vec2
	rotated   []vec.Vec2
	matched   []vec.Vec2
	aligned   []vec.Vec2
	refByType []vec.Vec2 // refByType[k] = ref[order[k]]
	perm      []int
	order     []int
	runs      []typeRun
	typeSort  typeSorter
	pairs     []icpPair
	pairSort  pairSorter
	usedI     []bool
	usedJ     []bool

	movCentroid, refCentroid vec.Vec2
}

// typeRun is the half-open range [lo, hi) of one type's members in the
// (type, index)-sorted particle order.
type typeRun struct{ lo, hi int }

// ICP aligns the moving configuration onto the reference configuration,
// both with the same type multiset (same number of particles of each type),
// and returns the recovered isometry, the aligned cloud, and a type-
// respecting one-to-one correspondence.
//
// Both clouds are first centred (factoring out translation); each restart
// then iterates same-type nearest-neighbour correspondence against the
// rotation solved in closed form by Procrustes2D, until the RMS stops
// improving. The restart with the lowest final matching cost wins. The
// final permutation is produced by a greedy minimum-distance matching
// within each type, which unlike raw nearest-neighbour output is guaranteed
// to be a bijection.
func ICP(moving, reference []vec.Vec2, types []int) (Result, error) {
	var a Aligner
	return a.ICP(moving, reference, types)
}

// ICP is the scratch-reusing form of the package-level ICP. The returned
// Result's slices are freshly allocated and caller-owned.
func (a *Aligner) ICP(moving, reference []vec.Vec2, types []int) (Result, error) {
	theta, iters, err := a.icp(moving, reference, types)
	if err != nil {
		return Result{}, err
	}
	aligned := append([]vec.Vec2(nil), a.aligned...)
	perm := append([]int(nil), a.perm...)

	var sumD2 float64
	for j, i := range perm {
		sumD2 += aligned[i].Dist2(a.ref[j])
	}

	// Full transform in original coordinates:
	// x ↦ R(θ)·(x − movCentroid) + refCentroid.
	transform := Rigid{Theta: theta, T: a.refCentroid.Sub(a.movCentroid.Rotate(theta))}
	return Result{
		Transform:  transform,
		Aligned:    aligned,
		Perm:       perm,
		RMS:        math.Sqrt(sumD2 / float64(len(moving))),
		Iterations: iters,
	}, nil
}

// AlignReorderedInto aligns moving onto reference and writes the reordered
// aligned cloud directly into dst: dst[j] is the aligned position of the
// moving particle matched to reference slot j (the w-representation of
// Sec. 5.2). dst must have length len(reference). This is the zero-copy
// path of the streaming observer accumulator: no intermediate Result is
// materialised and, after scratch warm-up, the call is allocation-free.
func (a *Aligner) AlignReorderedInto(dst []vec.Vec2, moving, reference []vec.Vec2, types []int) error {
	if len(dst) != len(reference) {
		return fmt.Errorf("align: dst has %d slots, reference %d", len(dst), len(reference))
	}
	if _, _, err := a.icp(moving, reference, types); err != nil {
		return err
	}
	for j, i := range a.perm {
		dst[j] = a.aligned[i]
	}
	return nil
}

// nearest answers a correspondence query: it returns the reference
// particle of particle i's type closest to p, and the squared distance.
// The type's members are scanned in increasing index order and a candidate
// replaces the best only when strictly closer, so ties go to the smaller
// index.
//
// This is the paper's type-lifted search (Sec. 5.2) without the lift. The
// paper appends the type, scaled by a factor a magnitude larger than the
// diameter, as a third coordinate so that matching never crosses types.
// With both clouds centred, a same-type candidate is within one diameter
// while a cross-type one is at least ten diameters away on that axis
// alone, so the lifted nearest neighbour is always the same-type one; and
// for a same-type pair the lifted coordinate differs by exactly zero, so
// the squared distance is the same float.
func (a *Aligner) nearest(i int, p vec.Vec2) (int, float64) {
	r := a.runs[i]
	best, bestD2 := r.lo, p.Dist2(a.refByType[r.lo])
	for k := r.lo + 1; k < r.hi; k++ {
		if d2 := p.Dist2(a.refByType[k]); d2 < bestD2 {
			best, bestD2 = k, d2
		}
	}
	return a.order[best], bestD2
}

// icp runs the full alignment into the scratch buffers: afterwards
// a.aligned holds the rotated moving cloud (original particle order) and
// a.perm the type-respecting bijection. It returns the winning rotation
// angle and the total iteration count.
func (a *Aligner) icp(moving, reference []vec.Vec2, types []int) (float64, int, error) {
	if len(moving) != len(reference) {
		return 0, 0, fmt.Errorf("align: moving has %d points, reference %d", len(moving), len(reference))
	}
	if len(types) != len(moving) {
		return 0, 0, fmt.Errorf("align: %d types for %d points", len(types), len(moving))
	}
	if len(moving) == 0 {
		return 0, 0, fmt.Errorf("align: empty configuration")
	}
	if err := checkTypeMultiset(types); err != nil {
		return 0, 0, err
	}

	a.mov = append(a.mov[:0], moving...)
	a.ref = append(a.ref[:0], reference...)
	a.movCentroid = vec.Center(a.mov)
	a.refCentroid = vec.Center(a.ref)
	mov, ref := a.mov, a.ref
	a.groupByType(ref, types)

	bestTheta, bestCost := 0.0, math.Inf(1)
	totalIters := 0
	a.matched = growVec2(a.matched, len(mov))
	a.rotated = growVec2(a.rotated, len(mov))
	matched, rotated := a.matched, a.rotated

	for restart := 0; restart < restarts; restart++ {
		theta := 2 * math.Pi * float64(restart) / restarts
		prevRMS := math.Inf(1)
		for iter := 0; iter < maxIterations; iter++ {
			totalIters++
			for i, p := range mov {
				rotated[i] = p.Rotate(theta)
			}
			var sumD2 float64
			for i, p := range rotated {
				j, d2 := a.nearest(i, p)
				matched[i] = ref[j]
				sumD2 += d2
			}
			rms := math.Sqrt(sumD2 / float64(len(mov)))
			// Re-solve the rotation against the current matches.
			// The incremental rotation is composed into theta;
			// translation is ignored because both clouds are
			// centred and the matching is (near-)balanced.
			delta := Procrustes2D(rotated, matched)
			theta += delta.Theta
			if prevRMS-rms < tolerance {
				break
			}
			prevRMS = rms
		}
		// Score this restart by its final matching cost.
		var cost float64
		for i, p := range mov {
			_, d2 := a.nearest(i, p.Rotate(theta))
			cost += d2
		}
		if cost < bestCost {
			bestCost, bestTheta = cost, theta
		}
	}

	a.aligned = growVec2(a.aligned, len(moving))
	for i, p := range mov {
		a.aligned[i] = p.Rotate(bestTheta)
	}
	a.matchByType(a.aligned, ref)
	return bestTheta, totalIters, nil
}

func checkTypeMultiset(types []int) error {
	for _, t := range types {
		if t < 0 {
			return fmt.Errorf("align: negative type %d", t)
		}
	}
	return nil
}

type icpPair struct {
	d2   float64
	i, j int // moving index, reference index
}

// pairSorter orders candidate pairs by distance with deterministic index
// tie-breaks — a reusable sort.Interface so the per-frame matching does not
// allocate a closure and swapper the way sort.Slice would.
type pairSorter struct{ pairs []icpPair }

func (p *pairSorter) Len() int      { return len(p.pairs) }
func (p *pairSorter) Swap(a, b int) { p.pairs[a], p.pairs[b] = p.pairs[b], p.pairs[a] }
func (p *pairSorter) Less(a, b int) bool {
	pa, pb := p.pairs[a], p.pairs[b]
	if pa.d2 != pb.d2 {
		return pa.d2 < pb.d2
	}
	if pa.i != pb.i {
		return pa.i < pb.i
	}
	return pa.j < pb.j
}

// typeSorter orders particle indices by (type, index) so same-type
// particles form contiguous runs — constant scratch for any type ids,
// where a dense per-type bucket array would scale with the largest id and
// a map would allocate per frame.
type typeSorter struct {
	idx   []int
	types []int
}

func (s *typeSorter) Len() int      { return len(s.idx) }
func (s *typeSorter) Swap(a, b int) { s.idx[a], s.idx[b] = s.idx[b], s.idx[a] }
func (s *typeSorter) Less(a, b int) bool {
	ta, tb := s.types[s.idx[a]], s.types[s.idx[b]]
	if ta != tb {
		return ta < tb
	}
	return s.idx[a] < s.idx[b]
}

// groupByType sorts the particle indices by (type, index) into a.order,
// records each particle's type run in a.runs, and lays the reference cloud
// out in that order in a.refByType, so every type's members are one
// contiguous run scanned in increasing index order.
func (a *Aligner) groupByType(ref []vec.Vec2, types []int) {
	n := len(types)
	a.order = growInt(a.order, n)
	for i := range a.order {
		a.order[i] = i
	}
	a.typeSort = typeSorter{idx: a.order, types: types}
	sort.Sort(&a.typeSort)
	a.runs = growRuns(a.runs, n)
	a.refByType = growVec2(a.refByType, n)
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && types[a.order[hi]] == types[a.order[lo]] {
			hi++
		}
		for k := lo; k < hi; k++ {
			a.runs[a.order[k]] = typeRun{lo, hi}
			a.refByType[k] = ref[a.order[k]]
		}
		lo = hi
	}
}

// matchByType produces a type-respecting bijection between the moving and
// reference clouds into a.perm: perm[j] = i. Within each type it runs a
// greedy minimum-distance matching (repeatedly pairing the globally closest
// unmatched moving/reference pair), which is O(n² log n) per type and is a
// strict improvement over the raw many-to-one nearest-neighbour output of
// the ICP correspondence step. Types are processed in increasing order; the
// result is identical to any other order because the per-type matchings
// write disjoint permutation slots. It reuses the grouping of groupByType.
func (a *Aligner) matchByType(moving, reference []vec.Vec2) {
	n := len(moving)
	a.perm = growInt(a.perm, n)
	a.usedI = growBool(a.usedI, n)
	a.usedJ = growBool(a.usedJ, n)
	for lo := 0; lo < n; {
		hi := a.runs[a.order[lo]].hi
		idx := a.order[lo:hi] // one type's members, in increasing index order
		lo = hi
		a.pairs = a.pairs[:0]
		for _, i := range idx {
			for _, j := range idx {
				a.pairs = append(a.pairs, icpPair{moving[i].Dist2(reference[j]), i, j})
			}
		}
		a.pairSort.pairs = a.pairs
		sort.Sort(&a.pairSort)
		for _, i := range idx {
			a.usedI[i] = false
			a.usedJ[i] = false
		}
		for _, p := range a.pairs {
			if a.usedI[p.i] || a.usedJ[p.j] {
				continue
			}
			a.usedI[p.i] = true
			a.usedJ[p.j] = true
			a.perm[p.j] = p.i
		}
	}
}

func growVec2(s []vec.Vec2, n int) []vec.Vec2 {
	if cap(s) < n {
		return make([]vec.Vec2, n)
	}
	return s[:n]
}

func growInt(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func growRuns(s []typeRun, n int) []typeRun {
	if cap(s) < n {
		return make([]typeRun, n)
	}
	return s[:n]
}

func growBool(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}
