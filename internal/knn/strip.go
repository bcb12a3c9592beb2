package knn

import (
	"math"
	"slices"
)

// Strip is an exact, rebuildable range counter: a copy of m rows sorted
// along the axis of widest spread, with that axis's coordinates (the
// keys) kept in their own slice. A count binary-searches the window of
// rows whose axis term alone still passes the radius test, then scans
// only that window with the brute-force distance expression. The zero
// value is ready for Rebuild.
//
// Rows are copied, so a Strip never references caller storage: the
// source may change or be freed right after Rebuild, and an idle Strip
// pins nothing but its own recycled slabs. Queries never mutate the
// strip, so one strip serves concurrent readers.
type Strip struct {
	metric  Metric
	dim, n  int
	axis    int
	scanAll bool // a key is NaN or ±Inf: the sort order bounds nothing

	keys  []float64 // keys[i] = rows[i*dim+axis], ascending
	rows  []float64 // row i at [i*dim, (i+1)*dim)
	order []stripEntry
}

// stripEntry is one row's sort record during Rebuild.
type stripEntry struct {
	key float64
	row int32
}

// cmpStripEntry orders entries by key. Rows with equal keys may land in
// any order: counts never depend on it.
func cmpStripEntry(a, b stripEntry) int {
	switch {
	case a.key < b.key:
		return -1
	case a.key > b.key:
		return 1
	}
	return 0
}

// Rebuild indexes n rows of dim coordinates gathered from a strided
// source: row j is src[j*stride+off : j*stride+off+dim]. metric is
// Chebyshev or MaxEuclidean2 with one block spanning the row (plain
// squared Euclidean distance). Storage of earlier builds is reused, so
// same-shaped rebuilds do not allocate.
func (s *Strip) Rebuild(src []float64, n, stride, off, dim int, metric Metric) {
	if dim <= 0 || n < 0 || off < 0 || stride < off+dim || (n > 0 && len(src) < (n-1)*stride+off+dim) {
		panic("knn: Strip.Rebuild needs n strided rows of dim coordinates")
	}
	s.metric, s.dim, s.n = metric, dim, n
	s.keys = growFloat64s(s.keys, n)
	s.rows = growFloat64s(s.rows, n*dim)
	if cap(s.order) < n {
		s.order = make([]stripEntry, n)
	}
	s.order = s.order[:n]
	s.axis = widestStridedAxis(src, n, stride, off, dim)

	s.scanAll = false
	for j := range s.order {
		k := src[j*stride+off+s.axis]
		if math.IsNaN(k) || math.IsInf(k, 0) {
			s.scanAll = true
		}
		s.order[j] = stripEntry{key: k, row: int32(j)}
	}
	if !s.scanAll {
		slices.SortFunc(s.order, cmpStripEntry)
	}
	for i, e := range s.order {
		s.keys[i] = e.key
		p := int(e.row)*stride + off
		copy(s.rows[i*dim:(i+1)*dim], src[p:p+dim])
	}
}

// widestStridedAxis returns the coordinate with the largest max−min
// spread over the strided rows, the lowest one on ties. The choice only
// shapes the windows; counts never depend on it.
func widestStridedAxis(src []float64, n, stride, off, dim int) int {
	if n == 0 {
		return 0
	}
	axis, best := 0, -1.0
	for a := 0; a < dim; a++ {
		lo, hi := src[off+a], src[off+a]
		for j := 1; j < n; j++ {
			c := src[j*stride+off+a]
			if c < lo {
				lo = c
			}
			if c > hi {
				hi = c
			}
		}
		if spread := hi - lo; spread > best {
			axis, best = a, spread
		}
	}
	return axis
}

func growFloat64s(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// RetainedBytes reports the bytes of storage the strip keeps across
// Rebuilds: its row and key copies and the sort scratch.
func (s *Strip) RetainedBytes() int {
	const entryBytes = 16 // stripEntry: float64 + int32, padded
	return 8*(cap(s.keys)+cap(s.rows)) + entryBytes*cap(s.order)
}

// axisTerm is the distance term of the sort axis alone: (q_a − key)²,
// or |q_a − key| under Chebyshev.
func (s *Strip) axisTerm(qa, key float64) float64 {
	diff := qa - key
	if s.metric == Chebyshev {
		return math.Abs(diff)
	}
	return diff * diff
}

// window returns the row range [lo, hi) whose axis term is ≤ bound.
// The term is monotone in the key on each side of q_a, and a zero term
// passes (CountWithin checks), so the range is contiguous, holds every
// key equal to q_a, and two binary searches find it.
func (s *Strip) window(qa, bound float64) (lo, hi int) {
	keys := s.keys[:s.n]
	i, j := 0, len(keys)
	for i < j {
		h := int(uint(i+j) >> 1)
		if k := keys[h]; k < qa && !(s.axisTerm(qa, k) <= bound) {
			i = h + 1
		} else {
			j = h
		}
	}
	lo, j = i, len(keys)
	for i < j {
		h := int(uint(i+j) >> 1)
		if k := keys[h]; k > qa && !(s.axisTerm(qa, k) <= bound) {
			j = h
		} else {
			i = h + 1
		}
	}
	return lo, i
}

// CountWithin returns the number of indexed rows within radius r of q:
// strictly (dist < r) by default, inclusively (dist ≤ r) when inclusive
// is set, with r in the metric's comparison space (squared for
// MaxEuclidean2). If exclude is ≥ 0, q must hold exactly the coordinates
// of source row exclude, and that row is left out of the count.
//
// Counts equal a brute-force count over every row but exclude that
// evaluates the distance as a sequential sum of squared coordinate
// differences (MaxEuclidean2; a NaN sum never passes) or as max |Δ|
// (Chebyshev; a NaN difference never raises the max). Under IEEE
// rounding a sum or max of non-negative terms is never below any one of
// its terms, so a row whose axis term fails the test fails it in full:
// the window holds every row that can pass. A NaN or ±Inf key, or query
// axis coordinate, voids that ordering argument, and the whole strip is
// scanned instead.
func (s *Strip) CountWithin(q []float64, r float64, inclusive bool, exclude int32) int {
	// Floats are discrete, so d < r is d ≤ (the float below r), NaN
	// failing both: every test below is one inclusive compare.
	bound := r
	if !inclusive {
		bound = math.Nextafter(r, math.Inf(-1))
	}
	if s.n == 0 || !(0 <= bound) {
		// Every distance is ≥ 0 or NaN: nothing can pass.
		return 0
	}
	q = q[:s.dim]
	lo, hi := 0, s.n
	qa := q[s.axis]
	finite := !s.scanAll && !math.IsNaN(qa) && !math.IsInf(qa, 0)
	if finite {
		lo, hi = s.window(qa, bound)
	}
	var c int
	switch {
	case finite && s.dim == 1:
		// A one-coordinate distance is its axis term: the window is
		// the answer.
		c = hi - lo
	case s.metric == Chebyshev:
		c = countChebyshev(s.rows[lo*s.dim:hi*s.dim], q, bound)
	case s.dim == 2:
		c = count2(s.rows[2*lo:2*hi], q[0], q[1], bound)
	default:
		c = countEuclidean(s.rows[lo*s.dim:hi*s.dim], q, bound)
	}
	if exclude >= 0 && s.selfDist(q) <= bound {
		// The excluded row is q itself, and it passed the same test.
		c--
	}
	return c
}

// selfDist is q's distance to itself under the scan's expression: 0 on
// finite input, NaN for a non-finite coordinate under MaxEuclidean2.
func (s *Strip) selfDist(q []float64) float64 {
	if s.metric == Chebyshev {
		return 0 // NaN differences never raise the running max
	}
	var sum float64
	for _, v := range q {
		diff := v - v
		sum += diff * diff
	}
	return sum
}

// count2 counts the two-coordinate rows within bound of (q0, q1). The
// compare feeds a conditional add, not a branch.
func count2(rows []float64, q0, q1, bound float64) int {
	var c int
	for ; len(rows) >= 2; rows = rows[2:] {
		d0 := q0 - rows[0]
		d1 := q1 - rows[1]
		sum := d0 * d0
		sum += d1 * d1
		if sum <= bound {
			c++
		}
	}
	return c
}

// countEuclidean counts the rows of len(q) coordinates within bound of
// q. Each row's sum is the sequential one; two rows are summed side by
// side so their dependency chains overlap. Measured faster than exiting
// a row once its partial sum exceeds bound, except at the smallest
// radii, where the window is short anyway.
func countEuclidean(rows, q []float64, bound float64) int {
	dim := len(q)
	var c int
	for ; len(rows) >= 2*dim; rows = rows[2*dim:] {
		p0, p1 := rows[:dim], rows[dim:2*dim]
		var s0, s1 float64
		for j, v := range q {
			d0 := v - p0[j]
			d1 := v - p1[j]
			s0 += d0 * d0
			s1 += d1 * d1
		}
		if s0 <= bound {
			c++
		}
		if s1 <= bound {
			c++
		}
	}
	if len(rows) >= dim {
		var sum float64
		for j, v := range q {
			d := v - rows[j]
			sum += d * d
		}
		if sum <= bound {
			c++
		}
	}
	return c
}

// countChebyshev counts the rows of len(q) coordinates whose max |Δ|
// to q is within bound, leaving a row once one |Δ| exceeds it.
func countChebyshev(rows, q []float64, bound float64) int {
	dim := len(q)
	var c int
next:
	for ; len(rows) >= dim; rows = rows[dim:] {
		p := rows[:dim]
		var worst float64
		for j, v := range q {
			if d := math.Abs(v - p[j]); d > worst {
				if d > bound {
					continue next
				}
				worst = d
			}
		}
		c++
	}
	return c
}
