// Package spatial provides the simulator's neighbour-search substrates:
// two uniform cell-list grids for its fixed-radius queries (the N_rc(i)
// neighbourhoods of Eq. 6).
//
// The two grids trade memory for rebuild cost. DenseGrid lays cells out in
// a flat CSR array over the point set's bounding box and recycles its
// backing arrays across Rebuild calls — the simulator's per-step hot path,
// allocation-free in steady state. Grid keys cells sparsely in a map, so
// its memory is O(n) regardless of how spread out the points are; it is
// the fallback for pathologically sparse sets whose bounding box would
// need far more cells than points.
//
// All structures are exact — they return the same results as brute force,
// and the two grids visit neighbours in the same deterministic order,
// which the property tests verify on random inputs.
package spatial

import (
	"math"

	"repro/internal/vec"
)

// Grid is a uniform cell-list over a point set, supporting exact
// fixed-radius neighbour queries. Cells are keyed sparsely in a map so the
// domain may be unbounded (the paper's particles live in all of R² and the
// collectives slowly expand).
type Grid struct {
	cellSize float64
	points   []vec.Vec2
	cells    map[cellKey][]int32
}

type cellKey struct{ cx, cy int32 }

// NewGrid builds a grid over points with the given cell size. A cell size
// equal to the query radius gives the classic 3×3-cell neighbourhood scan.
// cellSize must be positive and finite.
func NewGrid(points []vec.Vec2, cellSize float64) *Grid {
	if !(cellSize > 0) || math.IsInf(cellSize, 1) {
		panic("spatial: cell size must be positive and finite")
	}
	g := &Grid{
		cellSize: cellSize,
		points:   points,
		cells:    make(map[cellKey][]int32, len(points)),
	}
	for i, p := range points {
		k := g.key(p)
		g.cells[k] = append(g.cells[k], int32(i))
	}
	return g
}

func (g *Grid) key(p vec.Vec2) cellKey {
	return cellKey{
		cx: int32(math.Floor(p.X / g.cellSize)),
		cy: int32(math.Floor(p.Y / g.cellSize)),
	}
}

// ForNeighbors calls fn(j) for every point j ≠ i with ‖p_j − p_i‖ ≤ radius.
// The visit order is deterministic for a fixed point set (cells are scanned
// in a fixed window order and indices within a cell in insertion order),
// which keeps simulations bit-reproducible.
func (g *Grid) ForNeighbors(i int, radius float64, fn func(j int)) {
	p := g.points[i]
	r2 := radius * radius
	span := int32(math.Ceil(radius / g.cellSize))
	base := g.key(p)
	for dx := -span; dx <= span; dx++ {
		for dy := -span; dy <= span; dy++ {
			bucket := g.cells[cellKey{base.cx + dx, base.cy + dy}]
			for _, j := range bucket {
				if int(j) == i {
					continue
				}
				if g.points[j].Dist2(p) <= r2 {
					fn(int(j))
				}
			}
		}
	}
}

// AppendNeighbors appends to dst the indices of all points j ≠ i with
// ‖p_j − p_i‖ ≤ radius, in the same deterministic order as ForNeighbors,
// and returns the extended slice. It mirrors DenseGrid.AppendNeighbors so
// the simulator can swap backends without changing its scan loop.
func (g *Grid) AppendNeighbors(dst []int32, i int, radius float64) []int32 {
	g.ForNeighbors(i, radius, func(j int) { dst = append(dst, int32(j)) })
	return dst
}

// Neighbors returns the indices of all points within radius of point i,
// excluding i itself, in deterministic order.
func (g *Grid) Neighbors(i int, radius float64) []int {
	var out []int
	g.ForNeighbors(i, radius, func(j int) { out = append(out, j) })
	return out
}

// CountWithin returns the number of points j ≠ i within radius of point i.
func (g *Grid) CountWithin(i int, radius float64) int {
	n := 0
	g.ForNeighbors(i, radius, func(int) { n++ })
	return n
}

// BruteNeighbors is the reference implementation of a fixed-radius query:
// it scans all points. It is used by the simulator when the cut-off radius
// is infinite (every particle interacts with every other, Sec. 6.1's
// rc = ∞ experiments) and by tests as ground truth.
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
