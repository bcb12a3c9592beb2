package spatial

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"

	"repro/internal/vec"
)

func randomPoints(r *rand.Rand, n int, extent float64) []vec.Vec2 {
	pts := make([]vec.Vec2, n)
	for i := range pts {
		pts[i] = vec.Vec2{X: (r.Float64() - 0.5) * extent, Y: (r.Float64() - 0.5) * extent}
	}
	return pts
}

// clusteredPoints places n points in clusters of radius 3·cell whose
// centres are uniform on a square of side extent, so a wide extent makes
// the grid wrap while every cluster still has neighbours.
func clusteredPoints(r *rand.Rand, n int, extent, cell float64) []vec.Vec2 {
	centres := randomPoints(r, max(1, n/20), extent)
	pts := randomPoints(r, n, 6*cell)
	for i := range pts {
		pts[i] = pts[i].Add(centres[i%len(centres)])
	}
	return pts
}

func sorted(xs []int) []int {
	out := append([]int(nil), xs...)
	sort.Ints(out)
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func newGrid(pts []vec.Vec2, cell float64) *DenseGrid {
	g := NewDenseGrid(cell)
	g.Rebuild(pts)
	return g
}

// neighbors is AppendNeighbors into a fresh []int.
func neighbors(g *DenseGrid, i int) []int {
	var out []int
	for _, j := range g.AppendNeighbors(nil, i) {
		out = append(out, int(j))
	}
	return out
}

// windowOrder returns the brute-force neighbours of point i within cell
// in the grid's visit order: by column offset, then row offset, then
// index.
func windowOrder(pts []vec.Vec2, i int, cell float64) []int {
	out := BruteNeighbors(pts, i, cell)
	offset := func(j int) (dx, dy float64) {
		return math.Floor(pts[j].X/cell) - math.Floor(pts[i].X/cell),
			math.Floor(pts[j].Y/cell) - math.Floor(pts[i].Y/cell)
	}
	sort.SliceStable(out, func(a, b int) bool {
		ax, ay := offset(out[a])
		bx, by := offset(out[b])
		return ax < bx || ax == bx && ay < by
	})
	return out
}

// Property: in the wrapped regime — points spread over far more cells than
// the O(n) bucket array holds — queries still match brute force in window
// order, for uniform and clustered sets, both with and without wrapping.
func TestGridMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 60; trial++ {
		n := 5 + r.IntN(200)
		cell := 0.3 + r.Float64()*6
		extent := cell * math.Pow(10, 1+5*r.Float64())
		pts := randomPoints(r, n, extent)
		if trial%2 == 1 {
			pts = clusteredPoints(r, n, extent, cell)
		}
		g := newGrid(pts, cell)
		for i := 0; i < n; i++ {
			got, want := neighbors(g, i), windowOrder(pts, i, cell)
			if !equalInts(got, want) {
				t.Fatalf("trial %d point %d: grid %v, brute %v (cell=%v extent=%v)", trial, i, got, want, cell, extent)
			}
		}
	}
}

func TestGridExcludesSelf(t *testing.T) {
	pts := []vec.Vec2{v2(0, 0), v2(0.1, 0), v2(5, 5), v2(0, 0)}
	g := newGrid(pts, 2)
	for i := range pts {
		for _, j := range neighbors(g, i) {
			if j == i {
				t.Fatalf("grid returned query point %d itself", i)
			}
		}
	}
	if got := neighbors(g, 0); !equalInts(got, []int{1, 3}) {
		t.Fatalf("neighbours of 0 = %v, want [1 3] (a duplicate is a neighbour, the point itself is not)", got)
	}
}

func TestGridBoundaryInclusive(t *testing.T) {
	// A point exactly at the radius must be included (<=), on both sides,
	// and one just beyond it excluded.
	pts := []vec.Vec2{v2(0, 0), v2(2, 0), v2(-2, 0), v2(0, 2.0000001)}
	g := newGrid(pts, 2)
	if got := neighbors(g, 0); !equalInts(got, []int{2, 1}) {
		t.Fatalf("boundary neighbours of 0 = %v, want [2 1]", got)
	}
}

func TestGridDeterministicOrder(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 4))
	for _, extent := range []float64{20, 1e6} {
		pts := randomPoints(r, 60, extent)
		g1 := newGrid(pts, 5)
		g2 := newGrid(pts, 5)
		for i := range pts {
			if !equalInts(neighbors(g1, i), neighbors(g2, i)) {
				t.Fatalf("extent %v: grid visit order not deterministic", extent)
			}
		}
	}
}

// Bad cell sizes panic at construction; extreme but valid ones build and
// answer without panicking.
func TestGridRejectsBadCellSize(t *testing.T) {
	for _, bad := range []float64{0, -1, math.Inf(1), math.Inf(-1), math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("cell size %v should panic", bad)
				}
			}()
			NewDenseGrid(bad)
		}()
	}
	pts := []vec.Vec2{v2(0, 0), v2(0, 0), v2(1, -1), v2(-1e300, 1e300)}
	for _, cell := range []float64{math.SmallestNonzeroFloat64, 1e-300, 1e300, math.MaxFloat64} {
		g := newGrid(pts, cell)
		for i := range pts {
			got := neighbors(g, i)
			for _, j := range got {
				if pts[i].Dist2(pts[j]) > cell*cell {
					t.Fatalf("cell %v point %d: neighbour %d is out of range", cell, i, j)
				}
			}
		}
		if got := sorted(neighbors(g, 0)); len(got) == 0 || got[0] != 1 {
			t.Fatalf("cell %v: duplicate of point 0 not found: %v", cell, got)
		}
	}
}

func TestBruteNeighborsInfiniteRadius(t *testing.T) {
	pts := []vec.Vec2{v2(0, 0), v2(1e6, 0), v2(0, 1e6)}
	got := BruteNeighbors(pts, 0, math.Inf(1))
	if len(got) != 2 {
		t.Fatalf("rc=inf should return all others, got %v", got)
	}
}
