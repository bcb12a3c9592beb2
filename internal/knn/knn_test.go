package knn

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// bruteDist evaluates the metric with the reference floating-point
// expression: sequential per-block sums in coordinate order, maxed across
// blocks (or max |Δ| for Chebyshev).
func bruteDist(pts []float64, dim int, metric Metric, blocks []Block, a, b int) float64 {
	pa := pts[a*dim : (a+1)*dim]
	pb := pts[b*dim : (b+1)*dim]
	if metric == Chebyshev {
		var worst float64
		for i := range pa {
			if d := math.Abs(pa[i] - pb[i]); d > worst {
				worst = d
			}
		}
		return worst
	}
	if blocks == nil {
		blocks = []Block{{0, dim}}
	}
	var worst float64
	for _, bl := range blocks {
		var s float64
		for i := bl.Off; i < bl.Off+bl.Len; i++ {
			diff := pa[i] - pb[i]
			s += diff * diff
		}
		if s > worst {
			worst = s
		}
	}
	return worst
}

func bruteKNearest(pts []float64, n, dim int, metric Metric, blocks []Block, q, k int) []Neighbor {
	var all []Neighbor
	for j := 0; j < n; j++ {
		if j == q {
			continue
		}
		all = append(all, Neighbor{Index: int32(j), Dist: bruteDist(pts, dim, metric, blocks, q, j)})
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].Dist != all[b].Dist {
			return all[a].Dist < all[b].Dist
		}
		return all[a].Index < all[b].Index
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// randomInstance draws a point set with deliberate duplicates and
// coordinate collisions so the (distance, index) tie-breaking paths are
// exercised, plus a random block structure.
func randomInstance(r *rand.Rand) (pts []float64, n, dim int, blocks []Block) {
	dim = 1 + r.Intn(6)
	n = 5 + r.Intn(60)
	pts = make([]float64, n*dim)
	for i := range pts {
		// A coarse grid makes exact distance ties common.
		pts[i] = float64(r.Intn(8))
		if r.Intn(4) == 0 {
			pts[i] += r.Float64()
		}
	}
	// Duplicate a few full rows.
	for d := 0; d < n/8; d++ {
		src, dst := r.Intn(n), r.Intn(n)
		copy(pts[dst*dim:(dst+1)*dim], pts[src*dim:(src+1)*dim])
	}
	off := 0
	for off < dim {
		l := 1 + r.Intn(dim-off)
		blocks = append(blocks, Block{off, l})
		off += l
	}
	return pts, n, dim, blocks
}

// forEachMode runs f with the tree path and the flat-scan path forced in
// turn, restoring the package default afterwards.
func forEachMode(t *testing.T, f func(t *testing.T, wantTree bool)) {
	t.Helper()
	defer func(old int) { TreeDimLimit = old }(TreeDimLimit)
	TreeDimLimit = 64
	f(t, true)
	TreeDimLimit = 0
	f(t, false)
}

func TestKNearestMatchesBruteExactly(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	forEachMode(t, func(t *testing.T, wantTree bool) {
		var tr Tree
		for trial := 0; trial < 200; trial++ {
			pts, n, dim, blocks := randomInstance(r)
			for _, metric := range []Metric{MaxEuclidean2, Chebyshev} {
				bl := blocks
				if metric == Chebyshev {
					bl = nil
				}
				tr.Rebuild(pts, n, dim, metric, bl)
				if tr.TreeBacked() != (wantTree && n > 0) {
					t.Fatalf("TreeBacked = %v, want %v", tr.TreeBacked(), wantTree)
				}
				k := 1 + r.Intn(n)
				var scratch []Neighbor
				for q := 0; q < n; q++ {
					got := tr.KNearest(rowOf(pts, dim, q), k, int32(q), scratch)
					want := bruteKNearest(pts, n, dim, metric, bl, q, k)
					if len(got) != len(want) {
						t.Fatalf("metric %v k=%d q=%d: %d neighbours, want %d", metric, k, q, len(got), len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("metric %v k=%d q=%d neighbour %d: got {%d %v}, want {%d %v}",
								metric, k, q, i, got[i].Index, got[i].Dist, want[i].Index, want[i].Dist)
						}
					}
					scratch = got
				}
			}
		}
	})
}

func rowOf(pts []float64, dim, j int) []float64 { return pts[j*dim : (j+1)*dim] }

// Rebuilding over new data must behave exactly like a fresh tree, and in
// steady state (same-shaped inputs) must not allocate.
func TestRebuildReuseMatchesFreshTree(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	var reused Tree
	for trial := 0; trial < 60; trial++ {
		pts, n, dim, blocks := randomInstance(r)
		reused.Rebuild(pts, n, dim, MaxEuclidean2, blocks)
		var fresh Tree
		fresh.Rebuild(pts, n, dim, MaxEuclidean2, blocks)
		k := 1 + r.Intn(4)
		for q := 0; q < n; q++ {
			a := reused.KNearest(rowOf(pts, dim, q), k, int32(q), nil)
			b := fresh.KNearest(rowOf(pts, dim, q), k, int32(q), nil)
			if len(a) != len(b) {
				t.Fatalf("trial %d q=%d: reused %d results, fresh %d", trial, q, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("trial %d q=%d: reused tree diverged from fresh tree", trial, q)
				}
			}
		}
	}
}

func TestSteadyStateRebuildAndQueryAllocationFree(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	const n, dim, k = 256, 4, 4
	blocks := []Block{{0, 2}, {2, 2}}
	pts := make([]float64, n*dim)
	var tr Tree
	scratch := make([]Neighbor, 0, k)
	fill := func() {
		for i := range pts {
			pts[i] = r.NormFloat64()
		}
	}
	fill()
	tr.Rebuild(pts, n, dim, MaxEuclidean2, blocks) // warm-up build
	allocs := testing.AllocsPerRun(10, func() {
		fill()
		tr.Rebuild(pts, n, dim, MaxEuclidean2, blocks)
		for q := 0; q < n; q++ {
			scratch = tr.KNearest(rowOf(pts, dim, q), k, int32(q), scratch)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state rebuild+query allocates %v allocs/op, want 0", allocs)
	}
}

// perturb returns pts with every coordinate moved by at most frac of the
// point set's largest extent — the "recorded frames move little" regime
// Refresh exists for.
func perturb(r *rand.Rand, pts []float64, frac float64) []float64 {
	lo, hi := pts[0], pts[0]
	for _, v := range pts {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	ext := hi - lo
	out := make([]float64, len(pts))
	for i, v := range pts {
		out[i] = v + (r.Float64()*2-1)*frac*ext
	}
	return out
}

// TestRefreshMatchesRebuildExactly is the Refresh equivalence contract:
// after any sequence of small or large moves, a refreshed (or
// internally rebuilt) tree answers KNearest bit-identically to a freshly
// built tree over the same coordinates.
func TestRefreshMatchesRebuildExactly(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 80; trial++ {
		pts, n, dim, blocks := randomInstance(r)
		for _, metric := range []Metric{MaxEuclidean2, Chebyshev} {
			bl := blocks
			if metric == Chebyshev {
				bl = nil
			}
			var tr Tree
			tr.Rebuild(pts, n, dim, metric, bl)
			cur := pts
			for step := 0; step < 4; step++ {
				// Alternate small drift (refresh path) and a big jump
				// (internal rebuild path).
				frac := 0.01
				if step == 2 {
					frac = 3.0
				}
				next := perturb(r, cur, frac)
				refreshed := tr.Refresh(next, 0.1)
				if step == 2 && refreshed && tr.TreeBacked() {
					t.Fatalf("trial %d: 3×-extent jump took the refresh path", trial)
				}
				var fresh Tree
				fresh.Rebuild(next, n, dim, metric, bl)
				k := 1 + r.Intn(n)
				for q := 0; q < n; q++ {
					a := tr.KNearest(rowOf(next, dim, q), k, int32(q), nil)
					b := fresh.KNearest(rowOf(next, dim, q), k, int32(q), nil)
					if len(a) != len(b) {
						t.Fatalf("trial %d step %d q=%d: %d vs %d neighbours", trial, step, q, len(a), len(b))
					}
					for i := range a {
						if a[i] != b[i] {
							t.Fatalf("trial %d step %d q=%d: refreshed tree diverged: %v vs %v", trial, step, q, a[i], b[i])
						}
					}
				}
				cur = next
			}
		}
	}
}

func TestRefreshAliasedStorageRebuilds(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	pts, n, dim, blocks := randomInstance(r)
	var tr Tree
	tr.Rebuild(pts, n, dim, MaxEuclidean2, blocks)
	if tr.Refresh(pts, 0.1) {
		t.Fatal("aliased Refresh claimed the cheap path; old coordinates were unobservable")
	}
	if tr.Refreshed() {
		t.Fatal("aliased Refresh left the tree marked refreshed")
	}
}

func TestRefreshFlatScanFallback(t *testing.T) {
	defer func(old int) { TreeDimLimit = old }(TreeDimLimit)
	TreeDimLimit = 0 // force the scan path
	r := rand.New(rand.NewSource(7))
	pts, n, dim, blocks := randomInstance(r)
	var tr Tree
	tr.Rebuild(pts, n, dim, MaxEuclidean2, blocks)
	next := perturb(r, pts, 5.0)
	if !tr.Refresh(next, 0.1) {
		t.Fatal("flat scan has no structure to go stale; Refresh must be trivial")
	}
	got := tr.KNearest(rowOf(next, dim, 0), 3, 0, nil)
	want := bruteKNearest(next, n, dim, MaxEuclidean2, blocks, 0, 3)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("refreshed flat scan diverged from brute at %d", i)
		}
	}
}

func TestRefreshSteadyStateAllocationFree(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	const n, dim, k = 256, 4, 4
	a := make([]float64, n*dim)
	b := make([]float64, n*dim)
	for i := range a {
		a[i] = r.NormFloat64()
	}
	copy(b, a)
	var tr Tree
	tr.Rebuild(a, n, dim, MaxEuclidean2, nil)
	scratch := make([]Neighbor, 0, k)
	cur, next := a, b
	allocs := testing.AllocsPerRun(10, func() {
		for i := range next {
			next[i] = cur[i] + 1e-6*r.NormFloat64()
		}
		if !tr.Refresh(next, 0.1) {
			t.Fatal("tiny drift took the rebuild path")
		}
		for q := 0; q < n; q++ {
			scratch = tr.KNearest(rowOf(next, dim, q), k, int32(q), scratch)
		}
		cur, next = next, cur
	})
	if allocs != 0 {
		t.Errorf("steady-state refresh+query allocates %v allocs/op, want 0", allocs)
	}
}

// TestStableIDsMakeResultsPermutationInvariant pins the property the
// approximate estimator tier builds on: a tree over Morton- (or any-)
// permuted rows with ids = original indices returns, for every query,
// the same (distance, original-index) neighbour list as a tree over the
// original layout.
func TestStableIDsMakeResultsPermutationInvariant(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 60; trial++ {
		pts, n, dim, blocks := randomInstance(r)
		perm := r.Perm(n)
		permuted := make([]float64, len(pts))
		ids := make([]int32, n)
		rowOfOrig := make([]int32, n) // original index → permuted row
		for row, orig := range perm {
			copy(permuted[row*dim:(row+1)*dim], pts[orig*dim:(orig+1)*dim])
			ids[row] = int32(orig)
			rowOfOrig[orig] = int32(row)
		}
		for _, metric := range []Metric{MaxEuclidean2, Chebyshev} {
			bl := blocks
			if metric == Chebyshev {
				bl = nil
			}
			var base, permTree Tree
			base.Rebuild(pts, n, dim, metric, bl)
			permTree.RebuildWithIDs(permuted, n, dim, metric, bl, ids)
			k := 1 + r.Intn(n)
			for q := 0; q < n; q++ {
				want := base.KNearest(rowOf(pts, dim, q), k, int32(q), nil)
				got := permTree.KNearest(rowOf(pts, dim, q), k, rowOfOrig[q], nil)
				if len(got) != len(want) {
					t.Fatalf("trial %d q=%d: %d vs %d neighbours", trial, q, len(got), len(want))
				}
				for i := range got {
					if got[i].Dist != want[i].Dist || ids[got[i].Index] != want[i].Index {
						t.Fatalf("trial %d metric %v q=%d neighbour %d: got {row %d → id %d, %v}, want {%d, %v}",
							trial, metric, q, i, got[i].Index, ids[got[i].Index], got[i].Dist, want[i].Index, want[i].Dist)
					}
				}
			}
		}
	}
}

func TestReleaseDropsReferencesKeepsStorage(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	pts, n, dim, blocks := randomInstance(r)
	var tr Tree
	tr.Rebuild(pts, n, dim, MaxEuclidean2, blocks)
	retained := tr.RetainedBytes()
	if retained == 0 {
		t.Fatal("built tree reports zero retained bytes")
	}
	tr.Release()
	if tr.Len() != 0 || tr.TreeBacked() {
		t.Fatal("Release left the tree non-empty")
	}
	if got := tr.RetainedBytes(); got != retained {
		t.Fatalf("Release changed retained storage: %d → %d", retained, got)
	}
	// A released tree must still be rebuildable without fresh allocation
	// for same-shaped input.
	allocs := testing.AllocsPerRun(5, func() {
		tr.Rebuild(pts, n, dim, MaxEuclidean2, blocks)
	})
	if allocs != 0 {
		t.Errorf("rebuild after Release allocates %v, want 0", allocs)
	}
}

func TestKNearestEdgeCases(t *testing.T) {
	var tr Tree
	pts := []float64{0, 1, 2, 3}
	tr.Rebuild(pts, 4, 1, MaxEuclidean2, nil)
	if got := tr.KNearest([]float64{1.1}, 0, -1, nil); len(got) != 0 {
		t.Errorf("k=0 returned %d neighbours", len(got))
	}
	// k larger than the point count returns everything (minus exclusions).
	got := tr.KNearest([]float64{1.1}, 10, 1, nil)
	if len(got) != 3 {
		t.Errorf("k>n returned %d neighbours, want 3", len(got))
	}
	for _, nb := range got {
		if nb.Index == 1 {
			t.Errorf("excluded index returned")
		}
	}
	// All-duplicate points: ties must resolve by index.
	dup := []float64{5, 5, 5, 5}
	tr.Rebuild(dup, 4, 1, MaxEuclidean2, nil)
	got = tr.KNearest([]float64{5}, 2, 2, nil)
	if len(got) != 2 || got[0].Index != 0 || got[1].Index != 1 {
		t.Errorf("duplicate tie-break: got %v, want indices 0,1", got)
	}
}
