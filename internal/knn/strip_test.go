package knn

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// stripInstance draws n rows of dim coordinates on a coarse grid, with
// some fractional offsets and duplicated rows, so distance ties and
// radii that land exactly on a neighbour's distance are common.
func stripInstance(r *rand.Rand, n, dim int) []float64 {
	pts := make([]float64, n*dim)
	for i := range pts {
		pts[i] = float64(r.Intn(8))
		if r.Intn(4) == 0 {
			pts[i] += r.Float64()
		}
	}
	for d := 0; d < n/8; d++ {
		src, dst := r.Intn(n), r.Intn(n)
		copy(pts[dst*dim:(dst+1)*dim], pts[src*dim:(src+1)*dim])
	}
	return pts
}

// stripDist is the brute-force distance of rows a and b: a sequential
// sum of squared coordinate differences (NaN stays NaN and never
// passes), or max |Δ| under Chebyshev (a NaN difference never raises
// the max), the expressions of the estimators' brute references.
func stripDist(pts []float64, dim int, metric Metric, a, b int) float64 {
	pa := pts[a*dim : (a+1)*dim]
	pb := pts[b*dim : (b+1)*dim]
	var d float64
	for i := range pa {
		diff := pa[i] - pb[i]
		if metric != Chebyshev {
			d += diff * diff
		} else if abs := math.Abs(diff); abs > d {
			d = abs
		}
	}
	return d
}

// passes is the brute-force radius test: strict (d < r) or inclusive
// (d ≤ r).
func passes(d, r float64, inclusive bool) bool {
	return d < r || (inclusive && d == r)
}

// bruteCountExcluding counts the rows within r of row q, skipping row
// exclude (none when it is −1).
func bruteCountExcluding(pts []float64, n, dim int, metric Metric, q, exclude int, r float64, inclusive bool) int {
	c := 0
	for j := 0; j < n; j++ {
		if j != exclude && passes(stripDist(pts, dim, metric, q, j), r, inclusive) {
			c++
		}
	}
	return c
}

// checkStripCounts compares every row's count against brute force for
// the given radii, excluding the row itself and (with exclude = −1)
// not excluding it.
func checkStripCounts(t *testing.T, s *Strip, pts []float64, n, dim int, metric Metric, radii func(q int) []float64) {
	t.Helper()
	for q := 0; q < n; q++ {
		for _, rad := range radii(q) {
			for _, inclusive := range []bool{false, true} {
				for _, exclude := range []int32{int32(q), -1} {
					got := s.CountWithin(rowOf(pts, dim, q), rad, inclusive, exclude)
					want := bruteCountExcluding(pts, n, dim, metric, q, int(exclude), rad, inclusive)
					if got != want {
						t.Fatalf("metric %v dim %d n %d q=%d r=%v inclusive=%v exclude=%d: count %d, want %d\nrows %v",
							metric, dim, n, q, rad, inclusive, exclude, got, want, pts)
					}
				}
			}
		}
	}
}

func TestStripCountMatchesBruteExactly(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	var s Strip
	for trial := 0; trial < 300; trial++ {
		dim := 1 + trial%9
		n := 1 + r.Intn(70)
		if trial < 18 {
			n = 1 + trial%2 // m ∈ {1, 2}
		}
		pts := stripInstance(r, n, dim)
		for _, metric := range []Metric{MaxEuclidean2, Chebyshev} {
			s.Rebuild(pts, n, dim, 0, dim, metric)
			checkStripCounts(t, &s, pts, n, dim, metric, func(q int) []float64 {
				// Zero, a negative and a generic radius, and one that
				// lands exactly on a neighbour's distance.
				j := r.Intn(n)
				return []float64{0, -1, r.Float64() * 10, stripDist(pts, dim, metric, q, j)}
			})
		}
	}
}

func TestStripAllDuplicatesAndOneDimension(t *testing.T) {
	var s Strip
	for _, metric := range []Metric{MaxEuclidean2, Chebyshev} {
		dup := []float64{5, 5, 5, 5, 5}
		s.Rebuild(dup, 5, 1, 0, 1, metric)
		for _, tc := range []struct {
			r         float64
			inclusive bool
			want      int
		}{{0, false, 0}, {0, true, 4}, {1e-300, false, 4}} {
			if got := s.CountWithin([]float64{5}, tc.r, tc.inclusive, 2); got != tc.want {
				t.Errorf("metric %v r=%v inclusive=%v: %d, want %d", metric, tc.r, tc.inclusive, got, tc.want)
			}
		}
		// A radius exactly equal to neighbours' distances: 1-D strict
		// counts come from the window alone.
		line := []float64{0, 1, 2, 3, 4}
		s.Rebuild(line, 5, 1, 0, 1, metric)
		if got := s.CountWithin([]float64{2}, 1, false, 2); got != 0 {
			t.Errorf("metric %v: strict r=1 counted %d boundary points, want 0", metric, got)
		}
		if got := s.CountWithin([]float64{2}, 1, true, 2); got != 2 {
			t.Errorf("metric %v: inclusive r=1 counted %d, want 2", metric, got)
		}
	}
	var empty Strip
	empty.Rebuild(nil, 0, 2, 0, 2, MaxEuclidean2)
	if got := empty.CountWithin([]float64{0, 0}, 1, true, -1); got != 0 {
		t.Errorf("empty strip counted %d", got)
	}
}

// TestStripNonFiniteMatchesBrute pins the brute-force contract on
// non-finite input: one NaN or ±Inf coordinate among finite points must
// not change the count of any other point. A k-d tree whose bounding
// boxes skip NaN bounds fails this: it bulk-accepts a subtree holding
// the NaN point.
func TestStripNonFiniteMatchesBrute(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	var s Strip
	for trial := 0; trial < 200; trial++ {
		const n = 64
		dim := 1 + trial%3
		pts := make([]float64, n*dim)
		for i := range pts {
			pts[i] = r.NormFloat64()
		}
		bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[trial%3]
		pts[r.Intn(len(pts))] = bad
		for _, metric := range []Metric{MaxEuclidean2, Chebyshev} {
			s.Rebuild(pts, n, dim, 0, dim, metric)
			checkStripCounts(t, &s, pts, n, dim, metric, func(q int) []float64 {
				return []float64{0.5, 4, math.Inf(1)}
			})
		}
	}
}

// TestStripGathersStridedRowsAndCopies: a strip over a strided slice
// of wider rows counts exactly like one over the contiguous columns,
// and later writes to the source do not reach it.
func TestStripGathersStridedRowsAndCopies(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	const n, stride, off, dim = 50, 7, 2, 3
	wide := stripInstance(r, n, stride)
	cols := make([]float64, n*dim)
	for j := 0; j < n; j++ {
		copy(cols[j*dim:(j+1)*dim], wide[j*stride+off:j*stride+off+dim])
	}
	var strided Strip
	strided.Rebuild(wide, n, stride, off, dim, MaxEuclidean2)
	for i := range wide {
		wide[i] = math.NaN()
	}
	checkStripCounts(t, &strided, cols, n, dim, MaxEuclidean2, func(q int) []float64 {
		return []float64{1, 9, stripDist(cols, dim, MaxEuclidean2, q, (q+1)%n)}
	})
}

// TestStripRebuildOverMovedRows is the strip's side of the tree's
// Refresh contract: after moves small and large, a reused strip counts
// exactly like a fresh one and like brute force.
func TestStripRebuildOverMovedRows(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	var reused Strip
	for trial := 0; trial < 60; trial++ {
		dim := 1 + r.Intn(6)
		n := 5 + r.Intn(60)
		cur := stripInstance(r, n, dim)
		for _, metric := range []Metric{MaxEuclidean2, Chebyshev} {
			for step := 0; step < 4; step++ {
				frac := 0.01
				if step == 2 {
					frac = 3.0
				}
				cur = perturb(r, cur, frac)
				reused.Rebuild(cur, n, dim, 0, dim, metric)
				var fresh Strip
				fresh.Rebuild(cur, n, dim, 0, dim, metric)
				for q := 0; q < n; q++ {
					rad := stripDist(cur, dim, metric, q, r.Intn(n))
					for _, inc := range []bool{false, true} {
						a := reused.CountWithin(rowOf(cur, dim, q), rad, inc, int32(q))
						b := fresh.CountWithin(rowOf(cur, dim, q), rad, inc, int32(q))
						want := bruteCountExcluding(cur, n, dim, metric, q, q, rad, inc)
						if a != want || b != want {
							t.Fatalf("trial %d step %d q=%d: reused %d, fresh %d, brute %d", trial, step, q, a, b, want)
						}
					}
				}
			}
		}
	}
}

// TestStripPermutationInvariant: counts do not depend on the order of
// the indexed rows.
func TestStripPermutationInvariant(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 60; trial++ {
		dim := 1 + r.Intn(6)
		n := 5 + r.Intn(60)
		pts := stripInstance(r, n, dim)
		perm := r.Perm(n)
		permuted := make([]float64, len(pts))
		rowOfOrig := make([]int32, n)
		for row, orig := range perm {
			copy(permuted[row*dim:(row+1)*dim], pts[orig*dim:(orig+1)*dim])
			rowOfOrig[orig] = int32(row)
		}
		for _, metric := range []Metric{MaxEuclidean2, Chebyshev} {
			var base, permStrip Strip
			base.Rebuild(pts, n, dim, 0, dim, metric)
			permStrip.Rebuild(permuted, n, dim, 0, dim, metric)
			for q := 0; q < n; q++ {
				rad := stripDist(pts, dim, metric, q, r.Intn(n))
				for _, inc := range []bool{false, true} {
					cw := base.CountWithin(rowOf(pts, dim, q), rad, inc, int32(q))
					cg := permStrip.CountWithin(rowOf(pts, dim, q), rad, inc, rowOfOrig[q])
					if cw != cg {
						t.Fatalf("trial %d q=%d: count %d vs %d", trial, q, cw, cg)
					}
				}
			}
		}
	}
}

func TestStripSteadyStateRebuildAndCountAllocationFree(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	const n, dim = 256, 2
	src := make([]float64, n*4)
	var s Strip
	fill := func() {
		for i := range src {
			src[i] = r.NormFloat64()
		}
	}
	fill()
	s.Rebuild(src, n, 4, 1, dim, MaxEuclidean2) // warm-up build
	allocs := testing.AllocsPerRun(10, func() {
		fill()
		s.Rebuild(src, n, 4, 1, dim, MaxEuclidean2)
		for q := 0; q < n; q++ {
			if s.CountWithin(src[q*4+1:q*4+3], 0.5, true, int32(q)) < 0 {
				t.Fatal("negative count")
			}
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state rebuild+count allocates %v allocs/op, want 0", allocs)
	}
}

// decodeStripRows turns fuzz bytes into at most 48 rows of dim
// coordinates. Each coordinate starts with a tag byte: 0 takes a small
// integer from the next byte (ties), 1 repeats the previous coordinate
// (duplicates), 2 reads a raw float64 (huge, subnormal and non-finite
// values), 3 takes a 1/64 multiple from the next two bytes.
func decodeStripRows(data []byte, dim int) []float64 {
	var coords []float64
	prev := 0.0
	for len(data) > 0 && len(coords) < 48*dim {
		tag := data[0] % 4
		data = data[1:]
		switch {
		case tag == 0 && len(data) >= 1:
			prev = float64(int8(data[0]) % 8)
			data = data[1:]
		case tag == 2 && len(data) >= 8:
			prev = math.Float64frombits(binary.LittleEndian.Uint64(data))
			data = data[8:]
		case tag == 3 && len(data) >= 2:
			prev = float64(int16(binary.LittleEndian.Uint16(data))) / 64
			data = data[2:]
		}
		coords = append(coords, prev)
	}
	return coords[:len(coords)/dim*dim]
}

// FuzzStripCount: for any rows (ties, duplicates, huge, subnormal and
// non-finite coordinates), any dimension 1–9, either metric and either
// bound, every row's count with and without self-exclusion equals the
// brute-force count, at the fuzzed radius and at the exact distance to
// the next row.
func FuzzStripCount(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 0, 3, 1, 0, 4}, uint8(0), 1.0, uint8(0))
	f.Add([]byte{0, 1, 0, 2, 0, 3, 1, 0, 4, 3, 7, 1, 0, 5}, uint8(1), 2.0, uint8(3))
	f.Add([]byte{0, 1, 2, 0, 0, 0, 0, 0, 0, 248, 127, 0, 2, 0, 3, 2, 0, 0, 0, 0, 0, 0, 240, 127}, uint8(1), 4.0, uint8(2)) // NaN, +Inf
	f.Add([]byte{2, 0x9c, 0x75, 0x00, 0x88, 0x3c, 0xe4, 0x37, 0x7e, 0, 1, 0, 2, 1, 0, 3}, uint8(2), 1e300, uint8(1))       // 1e300
	f.Add([]byte{2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 2}, uint8(0), math.SmallestNonzeroFloat64, uint8(2))            // subnormal
	f.Add([]byte{0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 0, 0, 1, 1}, uint8(8), math.Inf(1), uint8(3))
	f.Add([]byte{0, 1, 0, 2, 0, 3}, uint8(0), math.NaN(), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, dimSel uint8, rad float64, flags uint8) {
		dim := 1 + int(dimSel%9)
		pts := decodeStripRows(data, dim)
		n := len(pts) / dim
		metric := MaxEuclidean2
		if flags&1 != 0 {
			metric = Chebyshev
		}
		inclusive := flags&2 != 0
		var s Strip
		s.Rebuild(pts, n, dim, 0, dim, metric)
		for q := 0; q < n; q++ {
			for _, r := range []float64{rad, stripDist(pts, dim, metric, q, (q+1)%n)} {
				for _, exclude := range []int32{int32(q), -1} {
					got := s.CountWithin(rowOf(pts, dim, q), r, inclusive, exclude)
					want := bruteCountExcluding(pts, n, dim, metric, q, int(exclude), r, inclusive)
					if got != want {
						t.Fatalf("metric %v dim %d q=%d r=%v inclusive=%v exclude=%d: count %d, want %d\nrows %v",
							metric, dim, q, r, inclusive, exclude, got, want, pts)
					}
				}
			}
		}
	})
}

// BenchmarkStripCount times one inclusive range count against a brute
// scan of the same rows: unit-Gaussian points, radii set to the
// distance quantile that puts ~0.1%, 10% or 50% of the points inside a
// typical query's ball. Each op is one query; rebuild cost is excluded.
func BenchmarkStripCount(b *testing.B) {
	for _, m := range []int{128, 1000, 50000} {
		for _, dim := range []int{2, 8} {
			r := rand.New(rand.NewSource(int64(m * dim)))
			pts := make([]float64, m*dim)
			for i := range pts {
				pts[i] = r.NormFloat64()
			}
			var s Strip
			s.Rebuild(pts, m, dim, 0, dim, MaxEuclidean2)
			for _, frac := range []float64{0.001, 0.1, 0.5} {
				rad := distanceQuantile(r, pts, m, dim, frac)
				name := fmt.Sprintf("m=%d/dim=%d/frac=%v", m, dim, frac)
				b.Run("strip/"+name, func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						q := i % m
						stripSink += s.CountWithin(rowOf(pts, dim, q), rad, true, int32(q))
					}
				})
				b.Run("brute/"+name, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						stripSink += bruteCountExcluding(pts, m, dim, MaxEuclidean2, i%m, i%m, rad, true)
					}
				})
			}
		}
	}
}

var stripSink int

// distanceQuantile returns the frac-quantile of squared distances from
// up to 64 random rows to every row.
func distanceQuantile(r *rand.Rand, pts []float64, m, dim int, frac float64) float64 {
	var ds []float64
	for i := 0; i < 64; i++ {
		q := r.Intn(m)
		for j := 0; j < m; j++ {
			ds = append(ds, stripDist(pts, dim, MaxEuclidean2, q, j))
		}
	}
	sort.Float64s(ds)
	return ds[int(frac*float64(len(ds)-1))]
}
