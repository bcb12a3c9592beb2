// Package knn is the shared exact nearest-neighbour engine under every
// continuous estimator in this repository: the KSG multi-information
// estimator and the Kozachenko–Leonenko entropy estimator (package
// infotheory) and the Frenzel–Pompe conditional mutual-information
// estimator (package infodynamics). It replaces four private O(m²)
// sort-based distance sweeps with two sub-quadratic structures, one per
// query shape:
//
//   - Tree, a k-d tree over m points stored as contiguous rows of a flat
//     []float64, answers KNearest: the k nearest neighbours of a query
//     point, sorted by (distance, index) with deterministic index
//     tie-breaking.
//   - Strip, a copy of the rows sorted along one axis, answers
//     CountWithin: the number of points strictly (or inclusively)
//     within a radius.
//
// Two metrics cover every estimator in the repository:
//
//   - MaxEuclidean2 — the paper's joint metric (Eq. 19): the maximum over
//     variable blocks of the per-block squared Euclidean distance.
//     Distances are reported in squared space (monotonic, so ordering and
//     counts are unchanged). A single block spanning all coordinates is
//     plain squared Euclidean distance (the KL entropy metric, and the
//     only form a Strip counts in).
//   - Chebyshev — max over coordinates of |Δ|, the max-norm of the
//     Frenzel–Pompe estimator.
//
// # Equivalence contract
//
// Results are bit-identical to a brute-force sweep that evaluates the
// same floating-point distance expression (a sequential sum of squared
// coordinate differences per block, maxed across blocks). The tree
// computes candidate distances by exactly that expression, and its
// box/axis bounds with elementwise-dominating terms summed in the same
// coordinate order, so IEEE rounding monotonicity guarantees a bound
// never misranks a point it gates. Subtree pruning uses strict
// inequalities wherever an equal-distance point could still matter
// (index tie-breaks), so ties resolve exactly as the brute path resolves
// them. The strip's window bound is a single term of the same
// expression, which no sum or max of non-negative terms falls below
// (see Strip.CountWithin).
//
// Trees and strips are rebuildable in place: after warm-up, Rebuild over
// same-shaped inputs performs no heap allocation (the spatial.DenseGrid
// / align.Aligner recycle pattern). Queries never mutate them, so one
// tree or strip serves concurrent readers; per-query scratch (the
// Neighbor buffer) is caller-provided.
package knn

import (
	"math"
	"sort"
)

// Metric selects the distance kernel of a Tree or Strip.
type Metric int

const (
	// MaxEuclidean2 is the paper's joint metric (Eq. 19) in squared
	// space: max over blocks of the block's squared Euclidean distance.
	MaxEuclidean2 Metric = iota
	// Chebyshev is the L∞ metric: max over coordinates of |Δ|.
	Chebyshev
)

// Block is one variable's coordinate range within a row.
type Block struct{ Off, Len int }

// Neighbor is one kNN result: the point's row index and its distance to
// the query in the metric's comparison space (squared for MaxEuclidean2,
// plain for Chebyshev).
type Neighbor struct {
	Index int32
	Dist  float64
}

// TreeDimLimit is the dimension above which Rebuild skips building tree
// nodes and KNearest falls back to a flat scan with early-exit partial
// distances. Past ~16 dimensions a k-d tree on estimator-sized point sets
// prunes almost nothing and the node traversal overhead makes it slower
// than the scan; both paths honour the same equivalence contract. Tests
// override it to force either path.
var TreeDimLimit = 16

type treeNode struct {
	index       int32 // point row
	left, right int32 // node indices, -1 for none
	count       int32 // subtree size including self
	axis        int32
}

// Tree is a rebuildable exact-kNN index over the rows of a flat matrix.
// The zero value is ready for Rebuild.
type Tree struct {
	metric Metric
	dim    int
	blocks []Block
	pts    []float64 // referenced, not copied; row j at [j*dim, (j+1)*dim)
	n      int
	built  bool // tree nodes present; otherwise queries scan

	// ids maps row index → caller-chosen stable identity; nil means the
	// row index itself. Tie-breaks compare ids, so a tree over permuted
	// rows (ids = original indices) ranks equal-distance candidates
	// exactly as a tree over the original layout would — results become
	// independent of row order. Neighbor.Index always reports the row.
	ids []int32

	// refreshed marks the split structure as stale: points have moved
	// since the last Rebuild (via Refresh), boxes were recomputed but the
	// partition invariant — left subtree ≤ node ≤ right subtree on the
	// split axis — no longer holds. Queries then rely on box bounds only.
	refreshed bool

	nodes     []treeNode
	boxes     []float64 // per node: dim lows then dim highs
	root      int32
	idx       []int32
	sorter    axisSorter
	ownBlocks [1]Block // storage for the implicit whole-row block
}

// Rebuild reconstructs the index over a new point set in place, reusing
// node, box and index storage of previous builds. pts holds n rows of dim
// coordinates each and is referenced (not copied) for the lifetime of the
// queries, so it must stay unmodified until the next Rebuild. blocks
// partitions the row for MaxEuclidean2 (nil means one block spanning the
// row); it is ignored by Chebyshev. The blocks slice is referenced, not
// copied.
func (t *Tree) Rebuild(pts []float64, n, dim int, metric Metric, blocks []Block) {
	t.RebuildWithIDs(pts, n, dim, metric, blocks, nil)
}

// RebuildWithIDs is Rebuild with stable identities: ids[j] is the
// tie-break identity of row j (referenced, not copied; ids must be
// distinct for the ordering to be total). Use it when rows are a
// permutation of some canonical layout and results must not depend on
// the permutation. nil ids fall back to row indices (plain Rebuild).
func (t *Tree) RebuildWithIDs(pts []float64, n, dim int, metric Metric, blocks []Block, ids []int32) {
	if dim <= 0 || n < 0 || len(pts) < n*dim {
		panic("knn: Rebuild needs n rows of dim coordinates")
	}
	if ids != nil && len(ids) < n {
		panic("knn: RebuildWithIDs needs one id per row")
	}
	t.metric = metric
	t.dim = dim
	t.pts = pts
	t.n = n
	t.ids = ids
	t.refreshed = false
	if metric == Chebyshev || blocks == nil {
		t.ownBlocks[0] = Block{0, dim}
		t.blocks = t.ownBlocks[:]
	} else {
		t.blocks = blocks
	}
	t.nodes = t.nodes[:0]
	t.boxes = t.boxes[:0]
	t.root = -1
	t.built = dim <= TreeDimLimit && n > 0
	if !t.built {
		return
	}
	if cap(t.idx) < n {
		t.idx = make([]int32, n)
	}
	t.idx = t.idx[:n]
	for i := range t.idx {
		t.idx[i] = int32(i)
	}
	t.root = t.build(t.idx, 0)
	t.sorter = axisSorter{}
}

// Refresh re-points the index at moved coordinates without rebuilding
// the split structure: bounding boxes are recomputed bottom-up (O(n·dim)
// instead of the O(n log n · dim) sort-based rebuild) and queries switch
// to box-only pruning, which stays exact because every bound still
// dominates the distances actually computed. The shape of the last
// (Re)build — n, dim, metric, blocks, ids — carries over unchanged.
//
// The split structure only prunes well while points sit near where the
// build placed them, so Refresh measures the maximum coordinate
// displacement against maxDrift × (largest root-box extent): exceeding
// it — or passing storage that aliases the current points, which
// destroys the old coordinates the drift check needs — triggers an
// internal full rebuild instead. Returns true for the cheap refresh
// path, false when it rebuilt. Either way the tree is exact afterwards.
func (t *Tree) Refresh(pts []float64, maxDrift float64) bool {
	if t.dim == 0 {
		panic("knn: Refresh before Rebuild")
	}
	if len(pts) < t.n*t.dim {
		panic("knn: Refresh needs the shape of the last Rebuild")
	}
	if !t.built {
		t.pts = pts // flat scan has no structure to go stale
		return true
	}
	if &pts[0] == &t.pts[0] {
		t.rebuildInPlace(pts)
		return false
	}
	limit := maxDrift * t.rootExtent()
	for i, total := 0, t.n*t.dim; i < total; i++ {
		if d := math.Abs(pts[i] - t.pts[i]); d > limit {
			t.rebuildInPlace(pts)
			return false
		}
	}
	t.pts = pts
	t.refreshBoxes()
	t.refreshed = true
	return true
}

// Refreshed reports whether the tree is currently serving queries on a
// refreshed (box-only pruning) structure.
func (t *Tree) Refreshed() bool { return t.refreshed }

// rebuildInPlace rebuilds the node structure over pts, keeping the
// shape, metric, blocks and ids of the last Rebuild. Only called while
// built, so idx capacity is already n.
func (t *Tree) rebuildInPlace(pts []float64) {
	t.pts = pts
	t.refreshed = false
	t.nodes = t.nodes[:0]
	t.boxes = t.boxes[:0]
	t.idx = t.idx[:t.n]
	for i := range t.idx {
		t.idx[i] = int32(i)
	}
	t.root = t.build(t.idx, 0)
	t.sorter = axisSorter{}
}

// rootExtent returns the largest per-coordinate extent of the root box —
// the scale the Refresh drift bound is relative to.
func (t *Tree) rootExtent() float64 {
	lo := t.boxes[int(t.root)*2*t.dim : int(t.root)*2*t.dim+t.dim]
	hi := t.boxes[int(t.root)*2*t.dim+t.dim : (int(t.root)*2+2)*t.dim]
	var ext float64
	for i := 0; i < t.dim; i++ {
		if e := hi[i] - lo[i]; e > ext {
			ext = e
		}
	}
	return ext
}

// refreshBoxes recomputes every node's bounding box over the current
// points. Nodes are appended pre-order by build, so a parent always
// precedes its children and a single reverse pass sees both children
// before their parent.
func (t *Tree) refreshBoxes() {
	for ni := len(t.nodes) - 1; ni >= 0; ni-- {
		nd := &t.nodes[ni]
		p := t.pts[int(nd.index)*t.dim : (int(nd.index)+1)*t.dim]
		box := t.boxes[ni*2*t.dim : (ni*2+2)*t.dim]
		copy(box[:t.dim], p)
		copy(box[t.dim:], p)
		t.mergeBox(int32(ni), nd.left)
		t.mergeBox(int32(ni), nd.right)
	}
}

// Release drops the tree's references to caller-owned data (points,
// blocks, ids) and marks it empty, while keeping the internal node, box
// and index storage for the next Rebuild. Pools call this so an idle
// tree never pins a dataset's row slab.
func (t *Tree) Release() {
	t.pts = nil
	t.blocks = nil
	t.ids = nil
	t.n = 0
	t.built = false
	t.refreshed = false
	t.root = -1
	t.nodes = t.nodes[:0]
	t.boxes = t.boxes[:0]
}

// RetainedBytes reports the bytes of internal storage the tree keeps
// across Rebuilds (node, box and index capacity). References to
// caller-owned slices (pts, blocks, ids) are not counted — Release drops
// those.
func (t *Tree) RetainedBytes() int {
	const nodeBytes = 16 // treeNode: four int32 fields
	return cap(t.nodes)*nodeBytes + cap(t.boxes)*8 + cap(t.idx)*4
}

// Len returns the number of indexed points.
func (t *Tree) Len() int { return t.n }

// TreeBacked reports whether queries run on tree nodes (as opposed to the
// flat-scan fallback).
func (t *Tree) TreeBacked() bool { return t.built }

// axisSorter sorts an index slice by one coordinate with a deterministic
// index tie-break, as a reusable sort.Interface (a sort.Slice closure
// would allocate per node).
type axisSorter struct {
	idx  []int32
	pts  []float64
	dim  int
	axis int
}

func (s *axisSorter) Len() int      { return len(s.idx) }
func (s *axisSorter) Swap(a, b int) { s.idx[a], s.idx[b] = s.idx[b], s.idx[a] }
func (s *axisSorter) Less(a, b int) bool {
	ca := s.pts[int(s.idx[a])*s.dim+s.axis]
	cb := s.pts[int(s.idx[b])*s.dim+s.axis]
	if ca != cb {
		return ca < cb
	}
	return s.idx[a] < s.idx[b]
}

func (t *Tree) build(idx []int32, depth int) int32 {
	if len(idx) == 0 {
		return -1
	}
	axis := t.widestAxis(idx)
	t.sorter = axisSorter{idx: idx, pts: t.pts, dim: t.dim, axis: axis}
	sort.Sort(&t.sorter)
	mid := len(idx) / 2
	t.nodes = append(t.nodes, treeNode{
		index: idx[mid],
		left:  -1,
		right: -1,
		count: int32(len(idx)),
		axis:  int32(axis),
	})
	self := int32(len(t.nodes) - 1)
	// Reserve the node's box; filled bottom-up after the children exist.
	t.boxes = append(t.boxes, t.pts[int(idx[mid])*t.dim:(int(idx[mid])+1)*t.dim]...)
	t.boxes = append(t.boxes, t.pts[int(idx[mid])*t.dim:(int(idx[mid])+1)*t.dim]...)
	left := t.build(idx[:mid], depth+1)
	right := t.build(idx[mid+1:], depth+1)
	t.nodes[self].left = left
	t.nodes[self].right = right
	t.mergeBox(self, left)
	t.mergeBox(self, right)
	return self
}

// widestAxis returns the coordinate with the largest spread over the
// given points — the classic k-d split heuristic. With cycling axes a
// deep point set splits only its first ~log₂(n) coordinates; spread-based
// splits keep pruning effective when the dimension approaches
// TreeDimLimit. The choice only shapes the tree; result exactness never
// depends on it. Ties resolve to the lowest axis, keeping builds
// deterministic.
func (t *Tree) widestAxis(idx []int32) int {
	axis, best := 0, -1.0
	for a := 0; a < t.dim; a++ {
		lo, hi := t.pts[int(idx[0])*t.dim+a], t.pts[int(idx[0])*t.dim+a]
		for _, j := range idx[1:] {
			c := t.pts[int(j)*t.dim+a]
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

// mergeBox widens node ni's bounding box to cover child ci's box.
func (t *Tree) mergeBox(ni, ci int32) {
	if ci < 0 {
		return
	}
	dst := t.boxes[int(ni)*2*t.dim : (int(ni)*2+2)*t.dim]
	src := t.boxes[int(ci)*2*t.dim : (int(ci)*2+2)*t.dim]
	for i := 0; i < t.dim; i++ {
		if src[i] < dst[i] {
			dst[i] = src[i]
		}
		if src[t.dim+i] > dst[t.dim+i] {
			dst[t.dim+i] = src[t.dim+i]
		}
	}
}

// dist returns the metric distance between q and point row j, evaluated
// with the exact floating-point expression of the brute-force reference
// (sequential per-block sums in coordinate order, maxed across blocks).
// If the running value exceeds bound the evaluation stops and reports
// ok = false; the partial value is a lower bound on the true distance, so
// the caller may reject the point but must not use the value otherwise.
func (t *Tree) dist(q []float64, j int32, bound float64) (d float64, ok bool) {
	p := t.pts[int(j)*t.dim : (int(j)+1)*t.dim]
	if t.metric == Chebyshev {
		var worst float64
		for i := range q {
			d := math.Abs(q[i] - p[i])
			if d > worst {
				if d > bound {
					return d, false
				}
				worst = d
			}
		}
		return worst, true
	}
	var worst float64
	for _, b := range t.blocks {
		var s float64
		for i := b.Off; i < b.Off+b.Len; i++ {
			diff := q[i] - p[i]
			s += diff * diff
			if s > bound {
				// Partial sums of non-negative terms are
				// non-decreasing under IEEE rounding, so the full
				// block sum — and the max over blocks — can only be
				// larger.
				return s, false
			}
		}
		if s > worst {
			worst = s
		}
	}
	return worst, true
}

// minDistBox returns a lower bound on the distance from q to any point in
// node ni's bounding box, computed so that bound ≤ dist holds for the
// floating-point values the dist method actually produces (dominated
// terms, same summation order).
func (t *Tree) minDistBox(ni int32, q []float64) float64 {
	lo := t.boxes[int(ni)*2*t.dim : int(ni)*2*t.dim+t.dim]
	hi := t.boxes[int(ni)*2*t.dim+t.dim : (int(ni)*2+2)*t.dim]
	if t.metric == Chebyshev {
		var worst float64
		for i := range q {
			var m float64
			if q[i] < lo[i] {
				m = lo[i] - q[i]
			} else if q[i] > hi[i] {
				m = q[i] - hi[i]
			}
			if m > worst {
				worst = m
			}
		}
		return worst
	}
	var worst float64
	for _, b := range t.blocks {
		var s float64
		for i := b.Off; i < b.Off+b.Len; i++ {
			var m float64
			if q[i] < lo[i] {
				m = lo[i] - q[i]
			} else if q[i] > hi[i] {
				m = q[i] - hi[i]
			}
			s += m * m
		}
		if s > worst {
			worst = s
		}
	}
	return worst
}

// knnState is the mutable state of one KNearest query; it lives on the
// caller's stack so concurrent queries over one tree are safe.
type knnState struct {
	q       []float64
	k       int
	exclude int32
	dst     []Neighbor
}

// id returns row j's tie-break identity: the caller-supplied id when
// present, the row index itself otherwise.
func (t *Tree) id(j int32) int32 {
	if t.ids == nil {
		return j
	}
	return t.ids[j]
}

// nbLess orders candidates by (Dist, id) — the total order every result
// set is sorted by.
func (t *Tree) nbLess(a, b Neighbor) bool {
	if a.Dist != b.Dist {
		return a.Dist < b.Dist
	}
	return t.id(a.Index) < t.id(b.Index)
}

// consider offers point j as a kNN candidate, maintaining dst as the k
// best seen so far, sorted ascending by (Dist, id).
func (st *knnState) consider(t *Tree, j int32) {
	bound := math.Inf(1)
	if len(st.dst) == st.k {
		bound = st.dst[st.k-1].Dist
	}
	d, ok := t.dist(st.q, j, bound)
	if !ok {
		return
	}
	nb := Neighbor{Index: j, Dist: d}
	if len(st.dst) == st.k {
		if !t.nbLess(nb, st.dst[st.k-1]) {
			return
		}
		st.dst = st.dst[:st.k-1]
	}
	i := len(st.dst)
	st.dst = append(st.dst, nb)
	for i > 0 && t.nbLess(nb, st.dst[i-1]) {
		st.dst[i] = st.dst[i-1]
		i--
	}
	st.dst[i] = nb
}

// KNearest returns the min(k, Len()-|{exclude}|) nearest neighbours of q,
// sorted ascending by (distance, id) — exactly the prefix a brute-force
// (distance, id) sort would produce; without caller-supplied ids that is
// the historical (distance, index) order. exclude names a row to skip
// (the query's own row), or -1. dst is the caller's scratch; the result
// aliases it (grown if needed).
func (t *Tree) KNearest(q []float64, k int, exclude int32, dst []Neighbor) []Neighbor {
	dst = dst[:0]
	if k <= 0 || t.n == 0 {
		return dst
	}
	st := knnState{q: q, k: k, exclude: exclude, dst: dst}
	if t.built {
		t.searchKNN(t.root, &st)
	} else {
		for j := 0; j < t.n; j++ {
			if int32(j) == exclude {
				continue
			}
			st.consider(t, int32(j))
		}
	}
	return st.dst
}

func (t *Tree) searchKNN(ni int32, st *knnState) {
	if ni < 0 {
		return
	}
	nd := &t.nodes[ni]
	if len(st.dst) == st.k && nd.count > 1 {
		// Box pruning: every point in the subtree is at least
		// minDistBox away; a strictly worse subtree cannot supply a
		// neighbour (equal distances must still descend for the index
		// tie-break).
		if t.minDistBox(ni, st.q) > st.dst[st.k-1].Dist {
			return
		}
	}
	if nd.index != st.exclude {
		st.consider(t, nd.index)
	}
	axis := int(nd.axis)
	delta := st.q[axis] - t.pts[int(nd.index)*t.dim+axis]
	near, far := nd.left, nd.right
	if delta > 0 {
		near, far = far, near
	}
	t.searchKNN(near, st)
	if len(st.dst) < st.k || t.refreshed {
		// After Refresh the node's point no longer separates its
		// subtrees on the split axis, so the plane-gap bound below would
		// be unsound; the far child's entry box check (boxes are
		// recomputed by Refresh) is then the only — still exact — gate.
		t.searchKNN(far, st)
		return
	}
	gap := delta * delta
	if t.metric == Chebyshev {
		gap = math.Abs(delta)
	}
	// The splitting-plane gap lower-bounds the distance to every far-side
	// point; equality descends for the tie-break.
	if gap <= st.dst[st.k-1].Dist {
		t.searchKNN(far, st)
	}
}
