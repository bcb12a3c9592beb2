package main

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiment"
	"repro/internal/infotheory"
	"repro/internal/observer"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/workpool"
)

// span is one timed call into a layer. The layer is the name's prefix up
// to the first dot; Parent is the index of the enclosing span, -1 at the
// root. Times are nanoseconds since the tracer started.
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer holds spans in memory until the run ends.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now(), spans: make([]span, 0, 1<<14)} }

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// open starts a span and returns its index and start time.
func (t *tracer) open(name string, parent int) (int, int64) {
	start := t.now()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: start, End: -1})
	t.mu.Unlock()
	return id, start
}

// close ends a span and returns its end time.
func (t *tracer) close(id int) int64 {
	end := t.now()
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
	return end
}

func (t *tracer) get(id int) span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id]
}

// selfByLayer sums, per layer, each span's duration minus the part of its
// interval that its children cover.
func (t *tracer) selfByLayer() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make(map[string]float64)
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for i, s := range t.spans {
		ivs = ivs[:0]
		for _, c := range children[i] {
			lo, hi := max(t.spans[c].Start, s.Start), min(t.spans[c].End, s.End)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		slices.SortFunc(ivs, func(a, b iv) int { return cmp.Compare(a.lo, b.lo) })
		covered, reach := int64(0), s.Start
		for _, v := range ivs {
			if v.hi <= reach {
				continue
			}
			covered += v.hi - max(v.lo, reach)
			reach = v.hi
		}
		layer, _, _ := strings.Cut(s.Name, ".")
		self[layer] += float64(s.End-s.Start-covered) / 1e9
	}
	return self
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// stages re-executes pipelines from the public stages Pipeline.Run is
// built from — sim.StreamSamplesCtx, the observer.Accumulator protocol and
// estimation workers drawing workpool tokens — with a span around every
// call into them, and counts the work each stage does.
type stages struct {
	tr      *tracer
	tok     *workpool.Tokens
	engines *infotheory.EnginePool

	samples, frames, particleSteps atomic.Int64
	steps, estimates               atomic.Int64
	queueNS, estNS, overlapNS      atomic.Int64
	waitNS                         atomic.Int64
}

func newStages(tr *tracer) *stages {
	return &stages{tr: tr, tok: workpool.NewTokens(0), engines: infotheory.NewEnginePool()}
}

// visitor wraps one layer call per streamed frame in a span, inside a
// sim.sample span that runs from a sample's first frame to its last, so
// the sample span's self time is the simulator's own work.
func (x *stages) visitor(stream int, sampleSpan []int, name string, call func(sim.Frame) error) sim.FrameVisitor {
	return func(f sim.Frame) error {
		if f.Index == 0 {
			sampleSpan[f.Sample], _ = x.tr.open("sim.sample", stream)
		}
		id, _ := x.tr.open(name, sampleSpan[f.Sample])
		err := call(f)
		x.tr.close(id)
		if f.Final {
			x.tr.close(sampleSpan[f.Sample])
			x.samples.Add(1)
		}
		return err
	}
}

// pipeline runs p as Pipeline.Run's streamed path does and returns the
// result fields the benchmark digests. It covers the exact-tier streamed
// configurations the workloads use and refuses any other, so that it can
// never measure a different program than the one the timed runs call.
func (x *stages) pipeline(ctx context.Context, p experiment.Pipeline, parent int) (*experiment.Result, error) {
	if !p.Observer.Streamable() || p.RetainEnsemble || p.TrackEntropies ||
		(p.Tier != "" && p.Tier != experiment.TierExact) {
		return nil, fmt.Errorf("traced rebuild covers exact-tier streamed pipelines only; %q is not one", p.Name)
	}
	k := p.K
	if k == 0 {
		k = experiment.DefaultKSGK
	}
	ec, err := p.Ensemble.Normalized()
	if err != nil {
		return nil, err
	}
	ec.Tokens = x.tok
	times := sim.RecordedSteps(ec.Steps, ec.RecordEvery)
	acc, err := observer.NewAccumulator(ec.M, times, ec.Sim.Types, p.Observer)
	if err != nil {
		return nil, err
	}
	completed := make([]int64, len(times))
	ready := make(chan int, len(times)) // one slot per step: completions never block alignment
	acc.OnStepComplete = func(t int) {
		completed[t] = x.tr.now()
		ready <- t
	}
	sampleSpan := make([]int, ec.M)

	ref, _ := x.tr.open("sim.StreamSamplesCtx", parent)
	_, err = sim.StreamSamplesCtx(ctx, ec, 0, 1, x.visitor(ref, sampleSpan, "align.SeedReference", func(f sim.Frame) error {
		return acc.SeedReference(f.Index, f.Pos)
	}))
	x.tr.close(ref)
	if err != nil {
		return nil, err
	}
	fin, _ := x.tr.open("align.FinishReference", parent)
	err = acc.FinishReference()
	x.tr.close(fin)
	if err != nil {
		return nil, err
	}

	res := &experiment.Result{
		Name:   p.Name,
		Times:  append([]int(nil), times...),
		MI:     make([]float64, len(times)),
		Labels: acc.Labels(),
	}
	if p.Decompose {
		res.Decomp = make([]infotheory.Decomposition, len(times))
	}
	datasets := acc.Datasets()
	groups := infotheory.GroupsByLabel(acc.Labels())
	workers := p.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(times))
	stepSpan := make([]int, len(times))
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			eng := x.engines.Get(p.SampleWorkers)
			defer x.engines.Put(eng)
			est, err := experiment.NewEstimator(p.Estimator, k, p.Bins, eng)
			if err != nil {
				errs[w] = err
				return
			}
			counted := func(d *infotheory.Dataset) float64 {
				x.estimates.Add(1)
				return est(d)
			}
			for t := range ready {
				wait, waitStart := x.tr.open("workpool.AcquireCtx", parent)
				err := x.tok.AcquireCtx(ctx)
				x.waitNS.Add(x.tr.close(wait) - waitStart)
				if err != nil {
					errs[w] = err
					return
				}
				id, start := x.tr.open("infotheory.step", parent)
				x.queueNS.Add(start - completed[t])
				res.MI[t] = counted(datasets[t])
				if p.Decompose {
					res.Decomp[t] = infotheory.Decompose(datasets[t], groups, counted)
				}
				x.tr.close(id)
				x.tok.Release()
				stepSpan[t] = id
			}
		}()
	}

	rest, _ := x.tr.open("sim.StreamSamplesCtx", parent)
	_, simErr := sim.StreamSamplesCtx(ctx, ec, 1, ec.M, x.visitor(rest, sampleSpan, "align.Add", func(f sim.Frame) error {
		x.frames.Add(1)
		return acc.Add(f.Sample, f.Index, f.Pos)
	}))
	simEnd := x.tr.close(rest)
	close(ready) // every Add has returned: no completion can follow
	wg.Wait()
	if err := errors.Join(append(errs, simErr)...); err != nil {
		return nil, err
	}
	for _, id := range stepSpan {
		s := x.tr.get(id)
		x.estNS.Add(s.End - s.Start)
		x.overlapNS.Add(max(0, min(s.End, simEnd)-s.Start))
	}
	x.steps.Add(int64(len(times)))
	x.particleSteps.Add(int64(ec.M) * int64(ec.Steps) * int64(ec.Sim.N))
	return res, nil
}

// tracingSweeper is an experiment.Sweeper that runs every spec through the
// traced stages, GOMAXPROCS runs in flight under one shared token budget
// as sweep.Runner schedules them, and keeps the results.
type tracingSweeper struct {
	x       *stages
	parent  int
	results []*experiment.Result
}

func (s *tracingSweeper) Sweep(ctx context.Context, specs []experiment.SweepSpec) ([]*experiment.Result, error) {
	results := make([]*experiment.Result, len(specs))
	err := workpool.RunSharedCtx(ctx, len(specs), runtime.GOMAXPROCS(0), nil, func(_, i int) error {
		run, _ := s.x.tr.open("sweep.run", s.parent)
		res, err := s.x.pipeline(ctx, specs[i].Pipeline, run)
		s.x.tr.close(run)
		if err != nil {
			return fmt.Errorf("run %q: %w", specs[i].ID, err)
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	s.results = results
	return results, nil
}

func (s *tracingSweeper) Do(ctx context.Context, n int, fn func(worker, i int) error) error {
	return workpool.RunSharedCtx(ctx, n, runtime.GOMAXPROCS(0), s.x.tok, fn)
}

// timingStore is a sweep.ResultStore that passes every Load and Save
// through to its inner store unchanged and records what they cost. A run's
// duration is the time from its Load miss to the start of its Save, the
// interval in which sweep.Runner computes it.
type timingStore struct {
	inner sweep.ResultStore

	mu                 sync.Mutex
	loads, hits, saves int
	save               time.Duration
	loaded             map[string]time.Time
	runs               []time.Duration
	lastSaved          *experiment.Result
}

func newTimingStore(inner sweep.ResultStore) *timingStore {
	return &timingStore{inner: inner, loaded: make(map[string]time.Time)}
}

func (s *timingStore) Load(id string, fp uint64) (*experiment.Result, bool) {
	res, ok := s.inner.Load(id, fp)
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.loads++
	if ok {
		s.hits++
	}
	s.loaded[id] = now
	return res, ok
}

func (s *timingStore) Save(id string, fp uint64, res *experiment.Result) error {
	start := time.Now()
	err := s.inner.Save(id, fp, res)
	took := time.Since(start)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.saves++
	s.save += took
	if t, ok := s.loaded[id]; ok {
		s.runs = append(s.runs, start.Sub(t))
	}
	s.lastSaved = res
	return err
}
