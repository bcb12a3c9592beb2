// Package spatial provides the simulator's neighbour search — one uniform
// cell-list grid for the fixed-radius N_rc(i) neighbourhoods of Eq. 6 —
// and the Morton row ordering the estimators' k-d trees share.
//
// DenseGrid lays its cells out in a flat CSR array that Rebuild recycles,
// so the simulator's per-step rebuild and queries are allocation-free in
// steady state at any spread: the array covers the point set's bounding
// box while that fits a memory bound of O(n) cells, and wraps into a
// torus beyond it. The grid is exact — it returns the same neighbours as
// brute force, in a fixed window order that the property and fuzz tests
// pin.
package spatial

import (
	"math"

	"repro/internal/vec"
)

// DenseGrid is a flat-array uniform cell list built by counting sort
// (CSR layout: idx holds point indices grouped by bucket, start[b]..
// start[b+1] delimits bucket b). Rebuild recycles all backing arrays, so
// in steady state rebuilding over a new frame performs zero heap
// allocations.
//
// A point p lies in the cell with column floor(p.X/cellSize) and row
// floor(p.Y/cellSize). Cells map to a w×h bucket array by (column − ox)
// mod w and (row − oy) mod h, where (ox, oy) is the cell one below and
// left of the bounding box. While it fits the memory bound, w×h is the
// bounding box plus one empty padding cell on each side, and every
// bucket holds one cell. Beyond the bound w and h are capped and distant
// cells share buckets. A query visits the 3×3 cells around the query
// point's cell, which w, h ≥ 3 keep in distinct buckets. A capped side
// keeps at least 8 buckets, so a cell aliased into a visited bucket is at
// least seven columns or rows from the query point's cell and the exact
// distance test rejects its points. Queries therefore return the same
// neighbours, in the same order, however the array is laid out.
type DenseGrid struct {
	cellSize float64
	points   []vec.Vec2 // aliased from the last Rebuild; not owned

	// Bucket layout of the last Rebuild.
	ox, oy int64
	w, h   int

	start  []int32 // CSR bucket offsets, len w·h+1
	idx    []int32 // point indices grouped by bucket, len n
	cellOf []int32 // scratch: linear bucket per point, len n
}

// NewDenseGrid returns an empty grid whose cell size is also its query
// radius, giving the classic 3×3-cell neighbourhood scan; call Rebuild to
// populate it. cellSize must be positive and finite.
func NewDenseGrid(cellSize float64) *DenseGrid {
	if !(cellSize > 0) || math.IsInf(cellSize, 1) {
		panic("spatial: cell size must be positive and finite")
	}
	return &DenseGrid{cellSize: cellSize}
}

// grow returns buf resliced to length n, reallocating only when the
// capacity is insufficient. Contents are unspecified.
func grow(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n, n+n/2)
	}
	return buf[:n]
}

// cellLimit clamps cell indices so that the difference of two fits an
// int64. Cells that far out hold only points whose coordinates are huge
// or non-finite; bucketing them together costs distance tests, never
// correctness.
const cellLimit = 1 << 61

// cell returns the column or row index floor(v/cellSize), clamped to
// ±cellLimit; NaN maps to 0.
func (g *DenseGrid) cell(v float64) int64 {
	c := math.Floor(v / g.cellSize)
	if c > -cellLimit && c < cellLimit {
		return int64(c)
	}
	if c >= cellLimit {
		return cellLimit
	}
	if c <= -cellLimit {
		return -cellLimit
	}
	return 0
}

// wrap returns (c − o) mod n in [0, n).
func wrap(c, o int64, n int) int {
	v := c - o
	if uint64(v) < uint64(n) {
		return int(v)
	}
	v %= int64(n)
	if v < 0 {
		v += int64(n)
	}
	return int(v)
}

// Rebuild re-indexes the grid over a new point set, recycling all backing
// arrays. The slice is aliased, not copied: the caller must not move points
// between Rebuild and subsequent queries. Growing, shrinking and identical
// point sets are all fine — the property tests check that a recycled grid
// answers exactly like a freshly built one.
func (g *DenseGrid) Rebuild(points []vec.Vec2) {
	lo, hi := vec.BoundingBox(points)
	g.RebuildBounded(points, lo, hi)
}

// RebuildBounded is Rebuild with a precomputed bounding box of the points,
// saving the extra O(n) scan when the caller already has one (the
// simulator's path choice computes it every step anyway). Points outside
// [lo, hi], such as NaN coordinates the box skipped, stay valid: they wrap
// into the array like any distant cell.
func (g *DenseGrid) RebuildBounded(points []vec.Vec2, lo, hi vec.Vec2) {
	g.points = points
	n := len(points)
	g.idx = grow(g.idx, n)
	g.cellOf = grow(g.cellOf, n)

	g.ox, g.oy = g.cell(lo.X)-1, g.cell(lo.Y)-1
	w := max(g.cell(hi.X)-g.ox+2, 3)
	h := max(g.cell(hi.Y)-g.oy+2, 3)
	// Past 4n+64 buckets, wrap the array into a torus: cap the longer
	// side, or both sides at √bound ≥ 8 when both exceed it.
	bound := 4*int64(n) + 64
	if float64(w)*float64(h) > float64(bound) {
		s := int64(math.Sqrt(float64(bound)))
		switch {
		case h <= s:
			w = bound / h
		case w <= s:
			h = bound / w
		default:
			w, h = s, s
		}
	}
	g.w, g.h = int(w), int(h)
	nb := g.w * g.h

	g.start = grow(g.start, nb+1)
	start, cellOf, idx := g.start, g.cellOf, g.idx
	for b := range start {
		start[b] = 0
	}
	// Counting sort, pass 1: histogram bucket occupancy.
	for i, p := range points {
		b := int32(wrap(g.cell(p.Y), g.oy, g.h)*g.w + wrap(g.cell(p.X), g.ox, g.w))
		cellOf[i] = b
		start[b+1]++
	}
	for b := 0; b < nb; b++ {
		start[b+1] += start[b]
	}
	// Pass 2: scatter in ascending point order, so indices stay ascending
	// within each bucket (the determinism contract). The cursor trick
	// advances start[b] to end-of-bucket; the shift below restores the
	// CSR offsets.
	for i, b := range cellOf {
		idx[start[b]] = int32(i)
		start[b]++
	}
	copy(start[1:], start[:nb])
	start[0] = 0
}

// AppendNeighbors appends to dst the indices of all points j ≠ i with
// ‖p_j − p_i‖ ≤ cellSize and returns the extended slice. The order is
// deterministic: cells by column offset, then row offset, each in
// −1, 0, +1 order, and indices ascending within a cell. Passing a
// recycled dst[:0] makes the query allocation-free once the buffer has
// grown to the steady-state neighbour count — this is the simulator's
// hot-path entry point.
func (g *DenseGrid) AppendNeighbors(dst []int32, i int) []int32 {
	// Locals, not fields: the appends would otherwise force reloads.
	pts, start, idx, w, h := g.points, g.start, g.idx, g.w, g.h
	p := pts[i]
	r2 := g.cellSize * g.cellSize
	cx := wrap(g.cell(p.X), g.ox, w)
	cy := wrap(g.cell(p.Y), g.oy, h)
	for dx := -1; dx <= 1; dx++ {
		x := cx + dx
		if x < 0 {
			x += w
		} else if x >= w {
			x -= w
		}
		for dy := -1; dy <= 1; dy++ {
			y := cy + dy
			if y < 0 {
				y += h
			} else if y >= h {
				y -= h
			}
			b := y*w + x
			for _, j := range idx[start[b]:start[b+1]] {
				if int(j) != i && pts[j].Dist2(p) <= r2 {
					dst = append(dst, j)
				}
			}
		}
	}
	return dst
}

// BruteNeighbors is the reference implementation of a fixed-radius query:
// it scans all points. Tests use it as ground truth.
func BruteNeighbors(points []vec.Vec2, i int, radius float64) []int {
	r2 := radius * radius
	inf := math.IsInf(radius, 1)
	var out []int
	for j, q := range points {
		if j == i {
			continue
		}
		if inf || points[i].Dist2(q) <= r2 {
			out = append(out, j)
		}
	}
	return out
}
