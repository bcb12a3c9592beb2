package spec

import (
	"fmt"

	"repro/internal/sim"
)

// Option configures a Spec under construction.
type Option func(*Spec) error

// New builds a spec from options and validates it — the programmatic
// counterpart of loading a JSON file.
func New(name string, opts ...Option) (Spec, error) {
	sp := Spec{Version: Version, Name: name}
	for _, opt := range opts {
		if err := opt(&sp); err != nil {
			return Spec{}, err
		}
	}
	if err := sp.Validate(); err != nil {
		return Spec{}, err
	}
	return sp, nil
}

// MustNew is New for static, known-good specs; it panics on error.
func MustNew(name string, opts ...Option) Spec {
	sp, err := New(name, opts...)
	if err != nil {
		panic(fmt.Sprintf("spec: %v", err))
	}
	return sp
}

// WithScenario selects a named sweep family from the registry.
func WithScenario(name string) Option {
	return func(sp *Spec) error { sp.Scenario = name; return nil }
}

// WithScale applies an ensemble-size preset ("quick", "paper", "test").
func WithScale(preset string) Option {
	return func(sp *Spec) error { sp.Scale = preset; return nil }
}

// WithSeed sets the master seed.
func WithSeed(seed uint64) Option {
	return func(sp *Spec) error { sp.Seed = seed; return nil }
}

// WithSim captures a simulation configuration (the force must be one of
// the serialisable built-in families).
func WithSim(cfg sim.Config) Option {
	return func(sp *Spec) error {
		s, err := SimFromConfig(cfg)
		if err != nil {
			return err
		}
		sp.Sim = s
		return nil
	}
}

// WithEnsemble sets the explicit ensemble grid (overriding any scale
// preset field by field).
func WithEnsemble(m, steps, recordEvery int) Option {
	return func(sp *Spec) error {
		e := sp.ensureEnsemble()
		e.M, e.Steps, e.RecordEvery = m, steps, recordEvery
		return nil
	}
}

// WithRetainEnsemble keeps the raw trajectories in the result.
func WithRetainEnsemble() Option {
	return func(sp *Spec) error { sp.ensureEnsemble().Retain = true; return nil }
}

// WithObserver sets the observer block.
func WithObserver(o Observer) Option {
	return func(sp *Spec) error { sp.Observer = &o; return nil }
}

// WithEstimator selects the estimator kind and its k-NN parameter
// (0 = the paper's default).
func WithEstimator(kind string, k int) Option {
	return func(sp *Spec) error {
		e := sp.ensureEstimator()
		e.Kind, e.K = kind, k
		return nil
	}
}

// WithDecomposition additionally records the per-type Eq. (5)
// decomposition at every recorded step.
func WithDecomposition() Option {
	return func(sp *Spec) error { sp.ensureEstimator().Decompose = true; return nil }
}

// WithEntropyTracking additionally records the per-step entropy profile.
func WithEntropyTracking() Option {
	return func(sp *Spec) error { sp.ensureEstimator().TrackEntropies = true; return nil }
}

// WithGrid declares a custom sweep grid over type counts × cut-off radii
// (entries ≤ 0 mean rc = ∞) with random draws from the given force
// family ("f1" or "f2").
func WithGrid(typeCounts []int, cutoffs []float64, family string) Option {
	return func(sp *Spec) error {
		sp.ensureSweep().TypeCounts = append([]int(nil), typeCounts...)
		sp.Sweep.Cutoffs = append([]float64(nil), cutoffs...)
		sp.Sweep.Force = &GridForce{Family: family}
		return nil
	}
}

// WithGridForce replaces the sweep grid's force family description
// wholesale (for non-default draw ranges).
func WithGridForce(f GridForce) Option {
	return func(sp *Spec) error { sp.ensureSweep().Force = &f; return nil }
}

// WithRepeats sets the per-cell repeat draws of a sweep (overriding the
// scale preset).
func WithRepeats(n int) Option {
	return func(sp *Spec) error { sp.ensureSweep().Repeats = n; return nil }
}

// WithGridN sets the particle count of every grid cell.
func WithGridN(n int) Option {
	return func(sp *Spec) error {
		if sp.Sim == nil {
			sp.Sim = &Sim{}
		}
		sp.Sim.N = n
		return nil
	}
}

func (sp *Spec) ensureEnsemble() *Ensemble {
	if sp.Ensemble == nil {
		sp.Ensemble = &Ensemble{}
	}
	return sp.Ensemble
}

func (sp *Spec) ensureEstimator() *Estimator {
	if sp.Estimator == nil {
		sp.Estimator = &Estimator{}
	}
	return sp.Estimator
}

func (sp *Spec) ensureSweep() *Sweep {
	if sp.Sweep == nil {
		sp.Sweep = &Sweep{}
	}
	return sp.Sweep
}
