package sops

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/experiment"
	"repro/internal/infotheory"
	"repro/internal/rngx"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/sweep"
	"repro/internal/sweep/remote"
	"repro/internal/workpool"
)

// The declarative experiment description: one versioned, JSON-
// round-trippable Spec is what every entry point — library sessions, the
// four CLIs, and any future server — produces and consumes.
type (
	// Spec describes a full experiment: simulation, ensemble, observer,
	// estimator, scale preset, and optional sweep grid or scenario.
	Spec = spec.Spec
	// SpecSim, SpecEnsemble, SpecObserver, SpecEstimator and SpecSweep
	// are the Spec's JSON blocks.
	SpecSim       = spec.Sim
	SpecEnsemble  = spec.Ensemble
	SpecObserver  = spec.Observer
	SpecEstimator = spec.Estimator
	SpecSweep     = spec.Sweep
	// SpecError is one typed validation problem (field path + message);
	// Spec.Validate joins them with errors.Join.
	SpecError = spec.SpecError
	// SpecOption configures a Spec under construction (see NewSpec).
	SpecOption = spec.Option
	// UnknownEstimatorError reports an estimator kind outside
	// ValidEstimators.
	UnknownEstimatorError = experiment.UnknownEstimatorError
	// DivergedError reports a sample whose simulation blew up to
	// non-finite (or overflowing) positions, with its sample and step.
	DivergedError = sim.DivergedError
	// ProgressEvent is one unit of observable progress (sample simulated,
	// step estimated, run checkpointed/done) delivered to Session
	// subscribers.
	ProgressEvent = experiment.ProgressEvent
	// ProgressKind classifies a ProgressEvent.
	ProgressKind = experiment.ProgressKind
)

// SpecVersion is the current spec schema version.
const SpecVersion = spec.Version

// Progress event kinds.
const (
	ProgressSampleSimulated = experiment.ProgressSampleSimulated
	ProgressStepEstimated   = experiment.ProgressStepEstimated
	ProgressRunCheckpointed = experiment.ProgressRunCheckpointed
	ProgressRunDone         = experiment.ProgressRunDone
)

// Spec constructors and option funcs.
var (
	// NewSpec builds and validates a spec from options; MustSpec panics
	// on error (for static, known-good specs).
	NewSpec  = spec.New
	MustSpec = spec.MustNew
	// LoadSpec reads and validates a spec JSON file; ParseSpec decodes
	// bytes.
	LoadSpec  = spec.Load
	ParseSpec = spec.Parse
	// SpecFromPipeline captures an experiment pipeline as a fully
	// explicit single-run spec.
	SpecFromPipeline = spec.FromPipeline
	// Option funcs for NewSpec.
	WithScenario        = spec.WithScenario
	WithScale           = spec.WithScale
	WithSeed            = spec.WithSeed
	WithSim             = spec.WithSim
	WithEnsemble        = spec.WithEnsemble
	WithRetainEnsemble  = spec.WithRetainEnsemble
	WithObserver        = spec.WithObserver
	WithEstimator       = spec.WithEstimator
	WithDecomposition   = spec.WithDecomposition
	WithEntropyTracking = spec.WithEntropyTracking
	WithGrid            = spec.WithGrid
	WithGridForce       = spec.WithGridForce
	WithGridN           = spec.WithGridN
	WithRepeats         = spec.WithRepeats
	// ValidEstimators lists every estimator kind a Spec accepts.
	ValidEstimators = experiment.ValidEstimators
)

// Session is the long-lived execution handle of the API: it owns the
// shared worker budget every stage draws from, the estimator-engine pool
// recycled across runs, and the checkpoint directory sweeps resume from.
// Every method takes a context and stops within one token-grant when it
// is cancelled (map SIGINT to context cancellation in a CLI — the four
// bundled commands do); a cancelled Sweep keeps the checkpoints of the
// runs that finished, so re-issuing it resumes rather than restarts.
//
// A Session is safe for concurrent use; concurrent calls share the one
// budget, so the machine is never oversubscribed no matter how many
// experiments are in flight. The zero value is not usable — construct
// with NewSession.
type Session struct {
	budget      *workpool.Tokens
	concurrency int
	ckptDir     string
	engines     *infotheory.EnginePool
	store       sweep.ResultStore
	cacheBytes  int
	distProcs   int
	distSpawn   remote.SpawnFunc

	mu      sync.Mutex
	subs    map[int]func(ProgressEvent)
	nextSub int
}

// SessionOption configures NewSession.
type SessionOption func(*Session)

// WithWorkerBudget bounds the machine-wide active work of everything the
// session runs to n concurrently held tokens (0 = GOMAXPROCS): one token
// per simulated sample and per estimated step, across all in-flight runs.
func WithWorkerBudget(n int) SessionOption {
	return func(s *Session) { s.budget = workpool.NewTokens(n) }
}

// WithRunConcurrency bounds the number of in-flight pipeline runs of a
// Sweep (0 = GOMAXPROCS). It is a memory bound — each in-flight run holds
// its observer datasets — not a CPU bound; CPU is governed by the worker
// budget.
func WithRunConcurrency(n int) SessionOption {
	return func(s *Session) { s.concurrency = n }
}

// WithCheckpointDir enables sweep checkpointing: one versioned file per
// completed run, keyed by the spec fingerprint; runs whose file is
// already present are restored instead of executed.
func WithCheckpointDir(dir string) SessionOption {
	return func(s *Session) { s.ckptDir = dir }
}

// WithResultStore replaces the session's checkpoint store with a custom
// ResultStore implementation; it wins over WithCheckpointDir. Note that
// distributed workers (WithWorkerProcs) are separate processes reaching
// the store through the checkpoint directory — a custom in-process store
// is not visible to them, only to this session's pre-dispatch resume.
func WithResultStore(st ResultStore) SessionOption {
	return func(s *Session) { s.store = st }
}

// WithResultCache fronts the session's checkpoint store with an
// in-memory LRU of at most maxBytes of result payload: repeat resumes
// (regenerating figures over one grid) are served from memory without
// touching disk.
func WithResultCache(maxBytes int) SessionOption {
	return func(s *Session) { s.cacheBytes = maxBytes }
}

// WithWorkerProcs shards every session sweep across n worker processes
// (n <= 1 disables distribution): the session acts as coordinator,
// divides its worker budget among the children, streams their progress
// into the session's subscribers as one merged stream, and requeues the
// runs of any worker that dies. spawn starts worker i — use
// CommandSpawner with a binary exposing a worker mode (sopsweep
// -worker), or GoSpawner for an in-process harness. Combine with
// WithCheckpointDir so workers share the durable store; results are
// bit-identical to the local path either way.
func WithWorkerProcs(n int, spawn SweepSpawnFunc) SessionOption {
	return func(s *Session) {
		s.distProcs = n
		s.distSpawn = spawn
	}
}

// NewSession creates a session. With no options it budgets GOMAXPROCS
// workers, runs sweeps at GOMAXPROCS in-flight runs, and does not
// checkpoint.
func NewSession(opts ...SessionOption) *Session {
	s := &Session{
		engines: infotheory.NewEnginePool(),
		subs:    make(map[int]func(ProgressEvent)),
	}
	for _, opt := range opts {
		opt(s)
	}
	if s.budget == nil {
		s.budget = workpool.NewTokens(0)
	}
	if s.ckptDir != "" {
		// A process killed mid-checkpoint-write leaves .tmp-run-* files
		// behind (the rename never happened). They can never be mistaken
		// for checkpoints, so sweeping them is pure hygiene — best
		// effort: a scan failure here surfaces properly at sweep time,
		// when the store opens the directory for real. Distributed
		// workers run the same sweep on their own startup.
		_, _ = sweep.RemoveStaleTemps(s.ckptDir)
	}
	if s.store == nil && s.ckptDir != "" {
		s.store = sweep.DirStore{Dir: s.ckptDir}
	}
	if s.store != nil && s.cacheBytes > 0 {
		s.store = sweep.NewCacheStore(s.store, s.cacheBytes)
	}
	return s
}

// Budget returns the session's shared worker budget, for composing
// session work with externally managed pipelines.
func (s *Session) Budget() *WorkerBudget { return s.budget }

// Subscribe registers a progress listener and returns its cancel
// function. Listeners may be invoked concurrently from worker goroutines
// and must be cheap and non-blocking; events carry positions, not
// payloads.
func (s *Session) Subscribe(fn func(ProgressEvent)) (cancel func()) {
	s.mu.Lock()
	id := s.nextSub
	s.nextSub++
	s.subs[id] = fn
	s.mu.Unlock()
	return func() {
		s.mu.Lock()
		delete(s.subs, id)
		s.mu.Unlock()
	}
}

// dispatch fans one event out to the current subscribers.
func (s *Session) dispatch(ev ProgressEvent) {
	s.mu.Lock()
	fns := make([]func(ProgressEvent), 0, len(s.subs))
	for _, fn := range s.subs {
		fns = append(fns, fn)
	}
	s.mu.Unlock()
	for _, fn := range fns {
		fn(ev)
	}
}

// pipeline materialises a single-run spec bound to the session's budget,
// engine pool and progress listeners.
func (s *Session) pipeline(sp Spec) (experiment.Pipeline, error) {
	p, err := sp.Pipeline()
	if err != nil {
		return p, err
	}
	p.Tokens = s.budget
	p.Engines = s.engines
	p.OnProgress = s.dispatch
	return p, nil
}

// Run executes a single-run spec — the full simulate→align→estimate
// pipeline — under the session's budget and returns its result.
// Equivalent to MeasureSelfOrganization of the spec's pipeline, with
// cancellation, budget sharing and progress events added; the numbers are
// bit-identical.
func (s *Session) Run(ctx context.Context, sp Spec) (*Result, error) {
	p, err := s.pipeline(sp)
	if err != nil {
		return nil, err
	}
	return p.RunCtx(ctx)
}

// Sweep executes a batch of single-run specs concurrently under the
// session's budget and returns the results in spec order. Every spec
// needs a unique non-empty Name — it keys progress events and checkpoint
// files. With a checkpoint directory configured, completed runs persist
// and a re-issued Sweep resumes from them; results then carry only the
// persisted curve-level fields. Cancelling the context stops the sweep
// within one token-grant and returns the context's error (errors.Is
// context.Canceled); finished runs keep their checkpoints.
func (s *Session) Sweep(ctx context.Context, specs ...Spec) ([]*Result, error) {
	runs := make([]experiment.SweepSpec, len(specs))
	for i, sp := range specs {
		if sp.Name == "" {
			return nil, fmt.Errorf("sops: sweep spec %d needs a Name (it keys checkpoints and progress)", i)
		}
		p, err := s.pipeline(sp)
		if err != nil {
			return nil, fmt.Errorf("sops: sweep spec %q: %w", sp.Name, err)
		}
		runs[i] = experiment.SweepSpec{ID: sp.Name, Pipeline: p}
	}
	return s.sweeper().Sweep(ctx, runs)
}

// Figure executes any spec — a named scenario, a custom sweep grid, or a
// single run — and reduces it to its figure. This is the method behind
// `sopsweep`/`sopfigures -spec`.
func (s *Session) Figure(ctx context.Context, sp Spec) (*FigureData, error) {
	return sweep.RunSpec(ctx, s.sweeper(), sp)
}

// Ensemble runs only the simulation stage of a single-run spec and
// returns the fully retained ensemble (for trajectory-level analyses:
// transfer entropy, symbolic complexity, snapshots).
func (s *Session) Ensemble(ctx context.Context, sp Spec) (*Ensemble, error) {
	p, err := s.pipeline(sp)
	if err != nil {
		return nil, err
	}
	ec := p.Ensemble
	// RunCtx would thread the budget in; this path bypasses it, so the
	// session's contract — all concurrent calls share one budget — must
	// be wired explicitly.
	ec.Tokens = s.budget
	col, err := NewEnsembleCollector(ec)
	if err != nil {
		return nil, err
	}
	_, err = sim.StreamEnsembleCtx(ctx, ec, func(f Frame) error {
		if err := col.Visit(f); err != nil {
			return err
		}
		if f.Final {
			s.dispatch(ProgressEvent{Kind: ProgressSampleSimulated, Run: sp.Name, Index: f.Sample})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return col.Ensemble(), nil
}

// System builds a single validated simulation from the spec's sim block,
// seeded from the spec's master seed — the interactive counterpart of Run
// for exploring configurations step by step (sopsim uses it). The spec
// needs no ensemble block.
func (s *Session) System(sp Spec) (*System, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	if sp.Kind() != spec.KindRun || sp.Sim == nil {
		return nil, fmt.Errorf("sops: System needs a spec with a sim block")
	}
	cfg, err := sp.Sim.Config()
	if err != nil {
		return nil, err
	}
	return sim.New(cfg, rngx.Split(sp.Seed, 1))
}

// runner materialises the session's local sweep executor.
func (s *Session) runner() *SweepRunner {
	return &sweep.Runner{
		Concurrency: s.concurrency,
		Tokens:      s.budget,
		Store:       s.store,
		Engines:     s.engines,
		OnProgress:  s.dispatch,
	}
}

// sweeper selects the session's sweep executor: a distributed
// coordinator when worker processes are configured, the in-process
// runner otherwise. Either way the results are bit-identical — that is
// the distribution contract — so drivers never know which they got.
func (s *Session) sweeper() Sweeper {
	if s.distProcs > 1 && s.distSpawn != nil {
		return &remote.Coordinator{
			Procs:      s.distProcs,
			Budget:     s.budget.Cap(),
			Spawn:      s.distSpawn,
			Store:      s.store,
			OnProgress: s.dispatch,
		}
	}
	return s.runner()
}
