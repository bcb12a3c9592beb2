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

// Property: grid radius queries agree exactly with brute force for random
// point sets, radii and cell sizes.
func TestGridMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 40; trial++ {
		n := 5 + r.IntN(120)
		pts := randomPoints(r, n, 30)
		radius := 0.5 + r.Float64()*8
		cell := 0.3 + r.Float64()*6
		g := NewGrid(pts, cell)
		for i := 0; i < n; i++ {
			got := sorted(g.Neighbors(i, radius))
			want := sorted(BruteNeighbors(pts, i, radius))
			if !equalInts(got, want) {
				t.Fatalf("trial %d point %d: grid %v, brute %v (r=%v cell=%v)", trial, i, got, want, radius, cell)
			}
		}
	}
}

func TestGridExcludesSelf(t *testing.T) {
	pts := []vec.Vec2{v2(0, 0), v2(0.1, 0), v2(5, 5)}
	g := NewGrid(pts, 1)
	for _, j := range g.Neighbors(0, 2) {
		if j == 0 {
			t.Fatal("grid returned the query point itself")
		}
	}
}

func TestGridBoundaryInclusive(t *testing.T) {
	// A point exactly at the radius must be included (<=).
	pts := []vec.Vec2{v2(0, 0), v2(2, 0)}
	g := NewGrid(pts, 1)
	if got := g.Neighbors(0, 2); len(got) != 1 {
		t.Fatalf("boundary point excluded: %v", got)
	}
}

func TestGridCountWithin(t *testing.T) {
	pts := []vec.Vec2{v2(0, 0), v2(1, 0), v2(0, 1), v2(10, 10)}
	g := NewGrid(pts, 2)
	if got := g.CountWithin(0, 1.5); got != 2 {
		t.Fatalf("CountWithin = %d, want 2", got)
	}
}

func TestGridDeterministicOrder(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 4))
	pts := randomPoints(r, 60, 20)
	g1 := NewGrid(pts, 2)
	g2 := NewGrid(pts, 2)
	for i := range pts {
		a := g1.Neighbors(i, 5)
		b := g2.Neighbors(i, 5)
		if !equalInts(a, b) {
			t.Fatal("grid visit order not deterministic")
		}
	}
}

func TestGridRejectsBadCellSize(t *testing.T) {
	for _, bad := range []float64{0, -1, math.Inf(1), math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("cell size %v should panic", bad)
				}
			}()
			NewGrid(nil, bad)
		}()
	}
}

func TestBruteNeighborsInfiniteRadius(t *testing.T) {
	pts := []vec.Vec2{v2(0, 0), v2(1e6, 0), v2(0, 1e6)}
	got := BruteNeighbors(pts, 0, math.Inf(1))
	if len(got) != 2 {
		t.Fatalf("rc=inf should return all others, got %v", got)
	}
}
