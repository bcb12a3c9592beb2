package align

import (
	"cmp"
	"fmt"
	"math"
	"slices"

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
// is ready to use; after the first call, AlignReorderedInto of same-sized
// configurations performs no heap allocation (ICP allocates only its
// Result), which matters when an ensemble pipeline aligns tens of
// thousands of frames. An Aligner is not safe for concurrent use — give
// each worker goroutine its own.
type Aligner struct {
	mov, ref   []vec.Vec2
	rotated    []vec.Vec2
	matched    []vec.Vec2
	aligned    []vec.Vec2
	refX, refY []float64 // refX[k], refY[k] = ref[order[k]]
	perm       []int
	order      []int
	runs       []typeRun
	certs      []certificate // certs[i] is moving particle i's
	rowD2      []float64     // matching: row k's minimum over free columns
	rowCol     []int         // ... and its column; −1 once row k is matched
	colUsed    []bool

	movCentroid, refCentroid vec.Vec2
}

// typeRun is the half-open range [lo, hi) of one type's members in the
// (type, index)-sorted particle order.
type typeRun struct{ lo, hi int }

// certificate records the outcome of a full correspondence scan: the
// winning slot, and how far the rotation angle may move from the scan's
// angle before the winner could change. See nearest.
type certificate struct {
	theta float64 // rotation angle of the scan
	reach float64 // the winner is certified while |θ − theta| ≤ reach
	slot  int     // winning position in (type, index) order
}

// Certificate margin. The scan compares computed squared distances, so a
// certificate must hold for the computed floats, not only for exact
// geometry. Each rotated coordinate is within ~20 ulp·|m| of the exact
// rotation of m (two rounded products and a difference, with sin and cos
// each off by a few ulp), and each computed distance is within 3 ulp of
// relative error of the true one (a rounded difference per axis, the
// squares, the sum). All of it is below 5e-14 relative to the distances
// and |m|, so certMargin = 1e-9 is five orders of magnitude of headroom.
// certFloor covers the one place relative errors do not apply: squares
// that underflow into the subnormal range, whose absolute error of a few
// 1e-324 moves a square root by at most ~1e-161.
const (
	certMargin = 1e-9
	certFloor  = 1e-150
)

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
// p must be moving particle i rotated by theta, as by rotate. The type's
// members are scanned in increasing index order and a candidate replaces
// the best only when strictly closer, so ties go to the smaller index.
//
// This is the paper's type-lifted search (Sec. 5.2) without the lift. The
// paper appends the type, scaled by a factor a magnitude larger than the
// diameter, as a third coordinate so that matching never crosses types.
// With both clouds centred, a same-type candidate is within one diameter
// while a cross-type one is at least ten diameters away on that axis
// alone, so the lifted nearest neighbour is always the same-type one; and
// for a same-type pair the lifted coordinate differs by exactly zero, so
// the squared distance is the same float.
//
// Most queries skip the scan. A rotation by θ' instead of θ moves the
// query by at most |θ' − θ|·|m|, which brings the winner at most that much
// closer and every other member at most that much farther away. So while
// the move stays under half the gap between the best and second-best
// distance, the scan would pick the same winner, and nearest only
// recomputes the winner's squared distance — the same float as the scan.
// This is the triangle-inequality bound of accelerated k-means (Elkan,
// ICML 2003; Hamerly, SDM 2010), less certMargin for rounding. An exact
// tie has zero gap and is never certified.
func (a *Aligner) nearest(i int, p vec.Vec2, theta float64) (int, float64) {
	c := &a.certs[i]
	if math.Abs(theta-c.theta) <= c.reach {
		dx, dy := p.X-a.refX[c.slot], p.Y-a.refY[c.slot]
		return a.order[c.slot], dx*dx + dy*dy
	}
	r := a.runs[i]
	xs := a.refX[r.lo:r.hi]
	ys := a.refY[r.lo:r.hi]
	ys = ys[:len(xs)] // one length, so the loop needs no bounds checks
	best := 0
	dx, dy := p.X-xs[0], p.Y-ys[0]
	d1, d2 := dx*dx+dy*dy, math.Inf(1) // best and second-best
	for k := 1; k < len(xs); k++ {
		dx, dy := p.X-xs[k], p.Y-ys[k]
		if d := dx*dx + dy*dy; d < d1 {
			best, d1, d2 = k, d, d1
		} else if d < d2 {
			d2 = d
		}
	}
	best += r.lo
	// NaN (a one-member type's infinite gap, or non-finite input) fails
	// every comparison with |θ − theta|, so it certifies nothing.
	g1, g2, norm := math.Sqrt(d1), math.Sqrt(d2), math.Sqrt(p.X*p.X+p.Y*p.Y)
	slack := (g2-g1)/2 - certMargin*(g1+g2+norm) - certFloor
	*c = certificate{theta: theta, reach: slack / norm, slot: best}
	return a.order[best], d1
}

// rotate returns p rotated by the angle whose sine and cosine are s and c,
// with the expression of vec.Vec2.Rotate, so the result has the same bits.
func rotate(p vec.Vec2, s, c float64) vec.Vec2 {
	return vec.Vec2{X: c*p.X - s*p.Y, Y: s*p.X + c*p.Y}
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
	a.matched = grow(a.matched, len(mov))
	a.rotated = grow(a.rotated, len(mov))
	matched, rotated := a.matched, a.rotated

	for restart := 0; restart < restarts; restart++ {
		theta := 2 * math.Pi * float64(restart) / restarts
		prevRMS := math.Inf(1)
		for iter := 0; iter < maxIterations; iter++ {
			totalIters++
			s, c := math.Sincos(theta)
			var sumD2 float64
			for i, p := range mov {
				q := rotate(p, s, c)
				rotated[i] = q
				j, d2 := a.nearest(i, q, theta)
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
		s, c := math.Sincos(theta)
		var cost float64
		for i, p := range mov {
			_, d2 := a.nearest(i, rotate(p, s, c), theta)
			cost += d2
		}
		if cost < bestCost {
			bestCost, bestTheta = cost, theta
		}
	}

	a.aligned = grow(a.aligned, len(moving))
	s, c := math.Sincos(bestTheta)
	for i, p := range mov {
		a.aligned[i] = rotate(p, s, c)
	}
	a.matchByType(a.aligned)
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

// groupByType sorts the particle indices by (type, index) into a.order,
// records each particle's type run in a.runs, lays the reference cloud out
// in that order in a.refX and a.refY, so every type's members are one
// contiguous run scanned in increasing index order, and invalidates every
// correspondence certificate.
func (a *Aligner) groupByType(ref []vec.Vec2, types []int) {
	n := len(types)
	a.order = grow(a.order, n)
	for i := range a.order {
		a.order[i] = i
	}
	slices.SortFunc(a.order, func(i, j int) int {
		if c := cmp.Compare(types[i], types[j]); c != 0 {
			return c
		}
		return cmp.Compare(i, j)
	})
	a.runs = grow(a.runs, n)
	a.refX = grow(a.refX, n)
	a.refY = grow(a.refY, n)
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && types[a.order[hi]] == types[a.order[lo]] {
			hi++
		}
		for k := lo; k < hi; k++ {
			a.runs[a.order[k]] = typeRun{lo, hi}
			a.refX[k], a.refY[k] = ref[a.order[k]].X, ref[a.order[k]].Y
		}
		lo = hi
	}
	a.certs = grow(a.certs, n)
	for i := range a.certs {
		a.certs[i] = certificate{reach: math.NaN()}
	}
}

// matchByType produces a type-respecting bijection between the moving
// cloud and the reference laid out by groupByType into a.perm: perm[j] = i.
// Within each type it runs a greedy minimum-distance matching: it
// repeatedly pairs the unmatched moving/reference pair that is smallest in
// (d², i, j), which unlike the raw many-to-one nearest-neighbour output of
// the ICP correspondence step is a bijection.
//
// The greedy order is found without sorting all pairs. Each unmatched row
// (moving particle) keeps its (d², j)-minimum over the unmatched columns
// (reference particles); the smallest pair overall is then the row minimum
// of the (d², i)-smallest row. Accepting it only invalidates the rows whose
// minimum was the column just taken — every other row's minimum is still
// among the columns left — so only those are recomputed. Types are
// processed in increasing order; the per-type matchings write disjoint
// permutation slots.
func (a *Aligner) matchByType(moving []vec.Vec2) {
	n := len(moving)
	a.perm = grow(a.perm, n)
	a.rowD2 = grow(a.rowD2, n)
	a.rowCol = grow(a.rowCol, n)
	a.colUsed = grow(a.colUsed, n)
	for lo := 0; lo < n; {
		hi := a.runs[a.order[lo]].hi
		for k := lo; k < hi; k++ {
			a.colUsed[k] = false
		}
		for k := lo; k < hi; k++ {
			a.rowMin(moving, k, lo, hi)
		}
		for range hi - lo {
			row := -1
			for k := lo; k < hi; k++ {
				if a.rowCol[k] >= 0 && (row < 0 || a.rowD2[k] < a.rowD2[row]) {
					row = k
				}
			}
			col := a.rowCol[row]
			a.perm[a.order[col]] = a.order[row]
			a.rowCol[row] = -1
			a.colUsed[col] = true
			for k := lo; k < hi; k++ {
				if a.rowCol[k] == col {
					a.rowMin(moving, k, lo, hi)
				}
			}
		}
		lo = hi
	}
}

// rowMin sets a.rowD2[k] and a.rowCol[k] to the (d², j)-minimum of row k —
// moving particle order[k] — over the unmatched columns of its type run
// [lo, hi). The caller guarantees one is left.
func (a *Aligner) rowMin(moving []vec.Vec2, k, lo, hi int) {
	p := moving[a.order[k]]
	col, d2 := -1, 0.0
	for j := lo; j < hi; j++ {
		if a.colUsed[j] {
			continue
		}
		dx, dy := p.X-a.refX[j], p.Y-a.refY[j]
		if d := dx*dx + dy*dy; col < 0 || d < d2 {
			col, d2 = j, d
		}
	}
	a.rowD2[k], a.rowCol[k] = d2, col
}

// grow returns s resized to n, reallocating only when its capacity is
// short: the scratch of a reused Aligner.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
