package spatial

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/vec"
)

// Property: the grid and brute force agree on random point sets and cell
// sizes, in exact visit order — brute-force neighbours sorted by column
// offset, row offset and index.
func TestDenseGridMatchesGridAndBruteForce(t *testing.T) {
	r := rand.New(rand.NewPCG(21, 22))
	for trial := 0; trial < 40; trial++ {
		n := 5 + r.IntN(120)
		pts := randomPoints(r, n, 30)
		cell := 0.3 + r.Float64()*6
		g := newGrid(pts, cell)
		for i := 0; i < n; i++ {
			got, want := neighbors(g, i), windowOrder(pts, i, cell)
			if !equalInts(got, want) {
				t.Fatalf("trial %d point %d: grid order %v, brute window order %v (cell=%v)",
					trial, i, got, want, cell)
			}
		}
	}
}

// Property: a recycled grid answers exactly like a freshly built one across
// growing, shrinking, identical and disjoint point sets, including spreads
// that wrap the bucket array.
func TestDenseGridRebuildReuse(t *testing.T) {
	r := rand.New(rand.NewPCG(23, 24))
	g := NewDenseGrid(1.5)
	sizes := []int{80, 200, 200, 12, 1, 0, 150, 3, 90}
	for round, n := range sizes {
		extent := 5 + r.Float64()*60 // varying spread exercises regrowth
		if round%3 == 2 {
			extent = 1e5
		}
		pts := randomPoints(r, n, extent)
		g.Rebuild(pts)
		fresh := newGrid(pts, 1.5)
		for i := 0; i < n; i++ {
			got := neighbors(g, i)
			if !equalInts(got, neighbors(fresh, i)) {
				t.Fatalf("round %d point %d: recycled grid diverged from fresh grid", round, i)
			}
			if !equalInts(got, windowOrder(pts, i, 1.5)) {
				t.Fatalf("round %d point %d: recycled grid diverged from brute force", round, i)
			}
		}
	}
}

// Rebuilding over the identical point set twice must not change any answer
// (the counting sort is stable and the scratch arrays are fully overwritten).
func TestDenseGridRebuildIdempotent(t *testing.T) {
	r := rand.New(rand.NewPCG(25, 26))
	pts := randomPoints(r, 90, 25)
	g := newGrid(pts, 4)
	before := make([][]int, len(pts))
	for i := range pts {
		before[i] = neighbors(g, i)
	}
	g.Rebuild(pts)
	for i := range pts {
		if !equalInts(before[i], neighbors(g, i)) {
			t.Fatalf("point %d: answers changed after identical rebuild", i)
		}
	}
}

// AppendNeighbors extends dst in place: a non-empty prefix survives, and a
// recycled buffer with enough capacity is reused.
func TestAppendNeighborsExtendsDst(t *testing.T) {
	r := rand.New(rand.NewPCG(27, 28))
	pts := randomPoints(r, 100, 20)
	const cell = 3.0
	g := newGrid(pts, cell)
	buf := make([]int32, 0, len(pts)+1)
	for i := range pts {
		buf = g.AppendNeighbors(append(buf[:0], -1), i)
		if cap(buf) != len(pts)+1 {
			t.Fatalf("point %d: buffer reallocated", i)
		}
		want := windowOrder(pts, i, cell)
		if buf[0] != -1 || len(buf) != len(want)+1 {
			t.Fatalf("point %d: got %v, want -1 then %v", i, buf, want)
		}
		for k, j := range want {
			if int(buf[k+1]) != j {
				t.Fatalf("point %d: got %v, want -1 then %v", i, buf, want)
			}
		}
	}
}

func TestDenseGridSteadyStateRebuildAllocationFree(t *testing.T) {
	r := rand.New(rand.NewPCG(29, 30))
	for _, extent := range []float64{40, 1e6} {
		pts := randomPoints(r, 256, extent)
		g := newGrid(pts, 2)
		buf := make([]int32, 0, 64)
		allocs := testing.AllocsPerRun(20, func() {
			// Jitter in place: same bounding box scale, new cell membership.
			for i := range pts {
				pts[i].X += (r.Float64() - 0.5)
				pts[i].Y += (r.Float64() - 0.5)
			}
			g.Rebuild(pts)
			for i := range pts {
				buf = g.AppendNeighbors(buf[:0], i)
			}
		})
		if allocs != 0 {
			t.Fatalf("extent %v: steady-state Rebuild+query allocated %.1f times per run, want 0", extent, allocs)
		}
	}
}

func TestDenseGridEdgeCases(t *testing.T) {
	g := NewDenseGrid(1)
	g.Rebuild(nil)
	g.Rebuild([]vec.Vec2{{X: 3, Y: -7}})
	if got := neighbors(g, 0); len(got) != 0 {
		t.Fatalf("single point has no neighbours, got %v", got)
	}
	// Points exactly on cell boundaries (negative and positive).
	pts := []vec.Vec2{{X: 0, Y: 0}, {X: -1, Y: 0}, {X: 1, Y: 0}, {X: 0, Y: -1}, {X: 0, Y: 1}}
	g.Rebuild(pts)
	if got := neighbors(g, 0); !equalInts(got, []int{1, 3, 4, 2}) {
		t.Fatalf("boundary-inclusive query: %v, want [1 3 4 2]", got)
	}
}

func TestDenseGridRejectsBadCellSize(t *testing.T) {
	for _, bad := range []float64{0, -1, math.Inf(1), math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("cell size %v should panic", bad)
				}
			}()
			NewDenseGrid(bad)
		}()
	}
}

// decodePoints turns fuzz bytes into at most 64 points. Each coordinate
// starts with a tag byte: 0 takes a half-cell multiple from the next byte
// (cell boundaries exactly), 1 repeats the previous coordinate
// (duplicates), 2 reads a raw float64 (huge, subnormal and non-finite
// values), 3 takes a 1/64-cell multiple from the next two bytes.
func decodePoints(data []byte, cell float64) []vec.Vec2 {
	var coords []float64
	prev := 0.0
	for len(data) > 0 && len(coords) < 128 {
		tag := data[0] % 4
		data = data[1:]
		switch {
		case tag == 0 && len(data) >= 1:
			prev = float64(int8(data[0])) * cell * 0.5
			data = data[1:]
		case tag == 2 && len(data) >= 8:
			prev = math.Float64frombits(binary.LittleEndian.Uint64(data))
			data = data[8:]
		case tag == 3 && len(data) >= 2:
			prev = float64(int16(binary.LittleEndian.Uint16(data))) * cell / 64
			data = data[2:]
		}
		coords = append(coords, prev)
	}
	pts := make([]vec.Vec2, len(coords)/2)
	for i := range pts {
		pts[i] = vec.Vec2{X: coords[2*i], Y: coords[2*i+1]}
	}
	return pts
}

// exactDomain reports whether every coordinate is finite with a cell index
// below 2^31 in magnitude, and cell² is a finite normal number. There the
// distance test neither overflows nor flushes to zero, and x/cellSize is
// within 2^-22 cells of its exact value, so the 3×3 window is the whole
// neighbourhood up to points at the cut-off to within 2^-19 relative.
// Beyond it the floor keying itself breaks down: distinct cells share a
// float index, and distances overflow to +Inf ≤ +Inf.
func exactDomain(pts []vec.Vec2, cell float64) bool {
	r2 := cell * cell
	if math.IsInf(r2, 1) || r2 < 0x1p-1022 {
		return false
	}
	for _, p := range pts {
		for _, v := range []float64{p.X, p.Y} {
			if !(math.Abs(math.Floor(v/cell)) < 1<<31) {
				return false
			}
		}
	}
	return true
}

// The grid never panics, never returns a point twice, itself, or one
// beyond the cell size; on the exact domain it returns the brute-force
// neighbours in window order. The one exception there is a neighbour at
// the cut-off to within rounding whose cell index differs by two: the
// floor(x/cellSize) keying can round a point onto the far side of a cell
// boundary, so no 3×3 window sees it.
func FuzzGridNeighbors(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 2, 0, 0, 1, 1, 0, 254, 1, 0}, 1.0)
	f.Add([]byte{3, 7, 1, 3, 200, 9, 1, 1, 3, 0, 128, 0, 3, 1, 0}, 0.3)
	f.Add([]byte{2, 0, 0, 0, 0, 0, 0, 248, 127, 0, 4, 1, 1, 2, 0, 0, 0, 0, 0, 0, 240, 127, 1}, 2.5) // NaN, +Inf
	f.Add([]byte{2, 0x9c, 0x75, 0x00, 0x88, 0x3c, 0xe4, 0x37, 0x7e, 1, 1, 1, 0, 6, 0, 250}, 1e-3)   // 1e300
	f.Add([]byte{0, 1, 0, 2, 0, 3, 0, 4}, 1e300)
	f.Add([]byte{0, 1, 0, 2, 0, 3, 0, 4}, math.SmallestNonzeroFloat64)
	f.Add([]byte{0, 1, 0, 2}, math.NaN())
	f.Add([]byte{0, 1, 0, 2}, -1.0)
	f.Fuzz(func(t *testing.T, data []byte, cell float64) {
		if !(cell > 0) || math.IsInf(cell, 1) {
			defer func() {
				if recover() == nil {
					t.Fatalf("cell size %v accepted", cell)
				}
			}()
			NewDenseGrid(cell)
			return
		}
		pts := decodePoints(data, cell)
		g := newGrid(pts, cell)
		r2 := cell * cell
		exact := exactDomain(pts, cell)
		var buf []int32
		for i := range pts {
			buf = g.AppendNeighbors(buf[:0], i)
			seen := make(map[int32]bool, len(buf))
			for _, j := range buf {
				if int(j) == i || seen[j] || !(pts[i].Dist2(pts[j]) <= r2) {
					t.Fatalf("point %d of %v (cell %v): bad neighbour %d in %v", i, pts, cell, j, buf)
				}
				seen[j] = true
			}
			if !exact {
				continue
			}
			got := neighbors(g, i)
			var want []int
			for _, j := range windowOrder(pts, i, cell) {
				dx := math.Floor(pts[j].X/cell) - math.Floor(pts[i].X/cell)
				dy := math.Floor(pts[j].Y/cell) - math.Floor(pts[i].Y/cell)
				if math.Abs(dx) <= 1 && math.Abs(dy) <= 1 {
					want = append(want, j)
				} else if pts[i].Dist2(pts[j]) < r2*(1-0x1p-19) {
					t.Fatalf("point %d of %v (cell %v): neighbour %d at offset (%v, %v) is inside the cut-off", i, pts, cell, j, dx, dy)
				}
			}
			if !equalInts(got, want) {
				t.Fatalf("point %d of %v (cell %v): grid %v, brute window order %v", i, pts, cell, got, want)
			}
		}
	})
}
