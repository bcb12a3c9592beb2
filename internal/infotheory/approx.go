package infotheory

import (
	"math"

	"repro/internal/knn"
	"repro/internal/mathx"
	"repro/internal/rngx"
	"repro/internal/spatial"
)

// Approximate estimator tier.
//
// The exact tier evaluates the KSG sum at every one of the m samples —
// Ω(m·log m) tree work per estimate even after PR 3. The approximate
// tier keeps the neighbour structure exact but evaluates the sample
// average at r ≪ m subsampled evaluation points:
//
//	I ≅ ψ(k) + (n−1)ψ(m) − (1/r) Σ_{s ∈ S, |S|=r} Σ_v ψ(c_v(s))
//
// Counts c_v(s) still range over all m samples, so each evaluated term
// is exactly the term the full estimator would produce; only the outer
// average is subsampled, making the estimate an unbiased Monte-Carlo
// draw of the full-m estimate (in ψ-space) with a computable standard
// error. Three stacked mechanics keep the cost down and the result
// deterministic:
//
//   - Morton-ordered rows: the dataset's rows are copied into Z-order of
//     their planar centroids, so joint-tree builds and scans walk memory
//     coherently. The joint tree carries ids = original sample indices,
//     so every (distance, id) ordering — and therefore every neighbour
//     set — is independent of the permutation, and counts never depend
//     on row order (knn's permutation-invariance property tests pin
//     both).
//   - Amortized rebuilds: across same-shaped calls (the pipeline's
//     consecutive recorded steps) the engine double-buffers the permuted
//     rows and refreshes the joint tree in O(m·dim) instead of
//     rebuilding, falling back to an internal rebuild when drift exceeds
//     the bound. The per-variable count strips are re-sorted each call.
//   - Deterministic subsampling: evaluation points are drawn by a
//     rngx.Stream seeded only from caller-supplied (Seed, Sequence) —
//     never from engine state — so results are bit-identical across
//     Workers settings, engine reuse histories, and kill/resume.
//
// The error bar is the finite-population-corrected standard error of
// the subsample mean of the per-point ψ-sums a_s = Σ_v ψ(c_v(s)):
//
//	SE = sd(a_s)/√r · √((m−r)/(m−1))    (in nats; reported in bits)
//
// with the 95% normal interval MI ± 1.96·SE. At r = m the correction
// is 0: every point is evaluated and the interval collapses.

// DefaultMaxDrift is the Refresh drift bound (fraction of the root-box
// extent) used when ApproxOptions.MaxDrift is zero. Recorded frames of
// an equilibrating simulation move a small fraction of the box between
// steps; 10% keeps the split structure useful while letting almost all
// consecutive-step refreshes take the cheap path.
const DefaultMaxDrift = 0.1

// ApproxOptions configures one approximate-tier evaluation.
type ApproxOptions struct {
	// Subsample is r, the number of evaluation points; 1 ≤ r ≤ m.
	Subsample int
	// Seed and Sequence identify the subsample draw: the stream is
	// rngx.NewStream(Seed, Sequence). Derive Sequence from stable task
	// coordinates (e.g. the pipeline step index), never from engine
	// state, to keep results schedule-independent.
	Seed, Sequence uint64
	// MaxDrift overrides DefaultMaxDrift when positive.
	MaxDrift float64
}

// ApproxEstimate is the result of one approximate-tier evaluation: the
// estimate with its subsampling uncertainty, all in bits.
type ApproxEstimate struct {
	MI            float64 // subsampled estimate
	StdErr        float64 // standard error of MI from the subsampling
	CILow, CIHigh float64 // MI ∓ 1.96·StdErr
	Evals         int     // evaluation points actually used (= r)
}

// approxState is the engine's approximate-tier working set: the cached
// Morton layout, the double-buffered permuted rows, the refreshable
// joint tree and the count strips. It is independent of the exact
// tier's scratch, so exact and approximate calls interleave freely on
// one engine.
type approxState struct {
	ms   spatial.MortonScratch
	perm []int32 // row → original sample index (= tree ids)

	// Cached layout shape; a mismatch forces a fresh permutation+build.
	m, rowLen  int
	dims       []int
	offsets    []int
	blocks     []knn.Block
	haveLayout bool

	rows [2][]float64 // double-buffered permuted rows
	cur  int          // buffer currently referenced by the joint tree

	joint knn.Tree
	marg  []knn.Strip // per-variable range counters over rows[cur]

	rowOf     []int32 // original sample index → permuted row
	sampleIdx []int32 // SampleInto scratch, len m
	drawn     []int32 // the r drawn original indices, in draw order
	aVals     []float64
}

// MultiInfoKSGApprox estimates the multi-information in bits on the
// approximate tier: the KSG sum of MultiInfoKSGVariant subsampled at
// opts.Subsample evaluation points (marginal counts still over all m
// samples), with the subsampling standard error and 95% interval. See
// the tier contract at the top of this file; results are bit-identical
// for every Workers setting and depend only on (d, k, variant, opts).
func (e *Engine) MultiInfoKSGApprox(d *Dataset, k int, variant KSGVariant, opts ApproxOptions) ApproxEstimate {
	m := d.NumSamples()
	n := d.NumVars()
	if n < 2 {
		return ApproxEstimate{}
	}
	if k < 1 || k >= m {
		panic("infotheory: KSG needs 1 <= k < m")
	}
	r := opts.Subsample
	if r < 1 || r > m {
		panic("infotheory: approximate KSG needs 1 <= Subsample <= m")
	}

	e.ensureApproxLayout(d, opts.maxDrift())
	ap := &e.approx

	base := mathx.Digamma(float64(k)) + float64(n-1)*mathx.Digamma(float64(m))
	if variant == KSG2 {
		base -= float64(n-1) / float64(k)
	}

	// Draw the evaluation points in original-index space: the draw knows
	// nothing about the (engine-history-dependent) row permutation.
	if cap(ap.sampleIdx) < m {
		ap.sampleIdx = make([]int32, m)
	}
	stream := rngx.NewStream(opts.Seed, opts.Sequence)
	ap.drawn = stream.SampleInto(ap.sampleIdx[:m], m, r)

	ap.aVals = growFloats(ap.aVals, r)
	if workers := e.workerCount(r); workers == 1 {
		e.approxChunk(k, variant, 0, 0, r)
	} else {
		e.runParallel(workers, r, func(worker, lo, hi int) {
			e.approxChunk(k, variant, worker, lo, hi)
		})
	}

	// Reduce in draw order — fixed for every Workers setting.
	var sum mathx.KahanSum
	for _, a := range ap.aVals[:r] {
		sum.Add(a)
	}
	mean := sum.Sum() / float64(r)

	var se float64
	if r > 1 && m > 1 {
		var devSum mathx.KahanSum
		for _, a := range ap.aVals[:r] {
			dev := a - mean
			devSum.Add(dev * dev)
		}
		s2 := devSum.Sum() / float64(r-1)
		fpc := math.Sqrt(float64(m-r) / float64(m-1))
		se = math.Sqrt(s2/float64(r)) * fpc
	}

	est := ApproxEstimate{
		MI:     mathx.Log2(base - mean),
		StdErr: mathx.Log2(se), // nats → bits
		Evals:  r,
	}
	est.CILow = est.MI - 1.96*est.StdErr
	est.CIHigh = est.MI + 1.96*est.StdErr
	return est
}

func (o ApproxOptions) maxDrift() float64 {
	if o.MaxDrift > 0 {
		return o.MaxDrift
	}
	return DefaultMaxDrift
}

// rowCentroid returns the planar centroid of a row under the repo's
// coordinate convention (even positions x, odd positions y — particle
// observers are (x, y) pairs). A trailing unpaired coordinate is
// ignored; the key only steers memory layout, never results.
func rowCentroid(row []float64) (x, y float64) {
	pairs := len(row) / 2
	if pairs == 0 {
		return row[0], 0
	}
	var sx, sy float64
	for i := 0; i < pairs; i++ {
		sx += row[2*i]
		sy += row[2*i+1]
	}
	return sx / float64(pairs), sy / float64(pairs)
}

// ensureApproxLayout makes the approximate tier's joint tree and strips
// cover d's current coordinates: a full Morton permutation + build when
// the dataset shape changed since the last call, a double-buffered
// Refresh (drift-gated, possibly an internal rebuild) when it did not.
// Either way the structures are exact over d afterwards; which path ran
// never affects results, only speed.
func (e *Engine) ensureApproxLayout(d *Dataset, maxDrift float64) {
	ap := &e.approx
	m, n := d.NumSamples(), d.NumVars()
	same := ap.haveLayout && ap.m == m && ap.rowLen == d.rowLen && len(ap.dims) == n
	if same {
		for v := 0; v < n; v++ {
			if ap.dims[v] != d.dims[v] {
				same = false
				break
			}
		}
	}

	if !same {
		// New shape: permutation from this dataset's coordinates, full
		// build. The permutation is then pinned for the lifetime of the
		// layout — later same-shaped datasets reuse it (stable ids make
		// results permutation-invariant, so a stale ordering costs only
		// locality, never correctness).
		ap.perm = ap.ms.MortonOrder(m, func(i int) (float64, float64) {
			return rowCentroid(d.Row(i))
		})
		if cap(ap.rowOf) < m {
			ap.rowOf = make([]int32, m)
		}
		ap.rowOf = ap.rowOf[:m]
		for row, orig := range ap.perm {
			ap.rowOf[orig] = int32(row)
		}
		ap.dims = append(ap.dims[:0], d.dims...)
		ap.offsets = append(ap.offsets[:0], d.offsets...)
		ap.blocks = ap.blocks[:0]
		for v := 0; v < n; v++ {
			ap.blocks = append(ap.blocks, knn.Block{Off: d.offsets[v], Len: d.dims[v]})
		}
		ap.m, ap.rowLen = m, d.rowLen
		for len(ap.marg) < n {
			ap.marg = append(ap.marg, knn.Strip{})
		}
		ap.cur = 0
		e.fillApproxRows(d, 0)
		ap.joint.RebuildWithIDs(ap.rows[0], m, d.rowLen, knn.MaxEuclidean2, ap.blocks, ap.perm)
		ap.haveLayout = true
	} else {
		// Same shape: write the new coordinates into the buffer the
		// joint tree does NOT currently reference (Refresh needs the old
		// coordinates intact to measure drift), then refresh.
		next := 1 - ap.cur
		e.fillApproxRows(d, next)
		ap.joint.Refresh(ap.rows[next], maxDrift)
		ap.cur = next
	}
	// Strips copy their rows and are rebuilt outright: a sort of m keys
	// per variable.
	for v := 0; v < n; v++ {
		ap.marg[v].Rebuild(ap.rows[ap.cur], m, ap.rowLen, ap.offsets[v], ap.dims[v], knn.MaxEuclidean2)
	}
}

// fillApproxRows copies d's rows into buffer b in the cached Morton
// order.
func (e *Engine) fillApproxRows(d *Dataset, b int) {
	ap := &e.approx
	buf := growFloats(ap.rows[b], ap.m*ap.rowLen)
	ap.rows[b] = buf
	for row, orig := range ap.perm {
		copy(buf[row*ap.rowLen:(row+1)*ap.rowLen], d.Row(int(orig)))
	}
}

// approxVarDist2 is varDist2 over the permuted row buffer: squared
// Euclidean distance between variable v of rows a and b, with the same
// summation order as Dataset.varDist2.
func (ap *approxState) approxVarDist2(buf []float64, a, b int32, v int) float64 {
	off, w := ap.offsets[v], ap.dims[v]
	pa := buf[int(a)*ap.rowLen+off : int(a)*ap.rowLen+off+w]
	pb := buf[int(b)*ap.rowLen+off : int(b)*ap.rowLen+off+w]
	var s float64
	for i := 0; i < w; i++ {
		diff := pa[i] - pb[i]
		s += diff * diff
	}
	return s
}

// approxChunk evaluates the per-evaluation-point ψ-sums a_s for draw
// positions [lo, hi) into ap.aVals, using the given worker's scratch.
// It is ksgChunk transplanted onto the permuted rows: same radii, same
// strict/inclusive count rules, same clamps.
func (e *Engine) approxChunk(k int, variant KSGVariant, worker, lo, hi int) {
	ap := &e.approx
	n := len(ap.dims)
	sc := &e.scratch[worker]
	buf := ap.rows[ap.cur]
	for i := lo; i < hi; i++ {
		row := ap.rowOf[ap.drawn[i]]
		q := buf[int(row)*ap.rowLen : (int(row)+1)*ap.rowLen]
		nbs := ap.joint.KNearest(q, k, row, sc.neigh)
		sc.neigh = nbs
		var a float64
		for v := 0; v < n; v++ {
			var radius2 float64
			switch variant {
			case KSGPaper:
				radius2 = ap.approxVarDist2(buf, row, nbs[k-1].Index, v)
			case KSG1:
				dist := sqrt(nbs[k-1].Dist)
				radius2 = dist * dist
			case KSG2:
				for j := 0; j < k; j++ {
					if d2 := ap.approxVarDist2(buf, row, nbs[j].Index, v); d2 > radius2 {
						radius2 = d2
					}
				}
			}
			off := ap.offsets[v]
			c := ap.marg[v].CountWithin(q[off:off+ap.dims[v]], radius2, variant == KSG2, row)
			switch variant {
			case KSG1:
				c++ // ψ(c_v + 1)
			default:
				if c < 1 {
					c = 1 // clamp, see KSGPaper docs
				}
			}
			a += mathx.Digamma(float64(c))
		}
		ap.aVals[i] = a
	}
}
