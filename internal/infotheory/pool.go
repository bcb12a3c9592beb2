package infotheory

import "sync"

// EnginePool recycles estimator engines across pipeline runs. An
// Engine's k-d trees, count strips and scratch stores grow to the
// working-set size of the datasets it estimates and are then reused
// allocation-free; a session that runs many pipelines back to back (a
// sweep, a long-lived service) re-uses the same engines instead of
// re-growing fresh ones per run.
//
// A nil *EnginePool is valid and simply allocates: Get returns a fresh
// engine, Put drops it — so pool support can be threaded through APIs
// without burdening callers that do not hold a session. Engines carry no
// result state, only scratch, so pooling never changes any estimate.
type EnginePool struct {
	p sync.Pool
}

// poolWatermarkBytes bounds the scratch footprint an engine may carry
// into the pool: above it, Put resets the engine to its zero state so a
// session that once estimated a huge-m dataset does not pin that
// working set for its whole lifetime. 8 MiB comfortably covers
// paper-scale runs (m=5000, n=8 retains ≈5 MiB) while capping what one
// pooled engine can hold. A var so the regression test can lower it.
var poolWatermarkBytes = 8 << 20

// NewEnginePool returns an empty pool.
func NewEnginePool() *EnginePool {
	ep := &EnginePool{}
	ep.p.New = func() any { return new(Engine) }
	return ep
}

// Get returns an engine configured for the given within-dataset sample
// parallelism — recycled if one is pooled, fresh otherwise.
func (ep *EnginePool) Get(sampleWorkers int) *Engine {
	if ep == nil {
		return NewEngine(sampleWorkers)
	}
	e := ep.p.Get().(*Engine)
	e.Workers = sampleWorkers
	return e
}

// Put returns an engine to the pool for a later Get. No-op on a nil pool.
//
// Two retention rules apply before pooling. References into
// caller-owned storage are always dropped: the joint and flat trees
// alias the last dataset's row slab (Engine.flatten may serve the
// dataset's own storage), and a pooled engine holding that reference
// would keep an entire ensemble's dataset alive between runs; the count
// strips copy their rows, so they alias nothing. And when
// the engine's own recycled scratch exceeds poolWatermarkBytes, the
// engine is reset to its zero state — recycling exists to amortize
// paper-scale working sets, not to pin a one-off huge-m run's gigabytes
// for the session's lifetime.
func (ep *EnginePool) Put(e *Engine) {
	if e == nil {
		return
	}
	e.joint.Release()
	e.flat.Release()
	if e.retainedBytes() > poolWatermarkBytes {
		*e = Engine{Workers: e.Workers}
	}
	if ep != nil {
		ep.p.Put(e)
	}
}

// retainedBytes reports the engine's recycled storage footprint: every
// scratch slab, tree and strip capacity it would carry into the pool.
// References into caller-owned storage (dataset rows) are not counted —
// Put drops those unconditionally.
func (e *Engine) retainedBytes() int {
	b := e.joint.RetainedBytes() + e.flat.RetainedBytes()
	b += 8 * (cap(e.psi) + cap(e.eps) + cap(e.h) + cap(e.col) + cap(e.flatPts))
	b += 8 * cap(e.allVars)
	b += 16 * cap(e.blocks)
	for i := range e.marg {
		b += e.marg[i].RetainedBytes()
	}
	for i := range e.scratch {
		b += 16*cap(e.scratch[i].neigh) + 8*cap(e.scratch[i].logs)
	}
	ap := &e.approx
	b += ap.joint.RetainedBytes()
	for i := range ap.marg {
		b += ap.marg[i].RetainedBytes()
	}
	for buf := range ap.rows {
		b += 8 * cap(ap.rows[buf])
	}
	b += ap.ms.RetainedBytes()
	b += 8 * (cap(ap.dims) + cap(ap.offsets))
	b += 16 * cap(ap.blocks)
	b += 4 * (cap(ap.rowOf) + cap(ap.sampleIdx))
	b += 8 * cap(ap.aVals)
	return b
}
