package sim

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"repro/internal/forces"
	"repro/internal/vec"
)

// ensembleFile is the on-disk representation of an Ensemble. The force is
// stored as its serialisable spec; everything else maps one-to-one. A
// version field guards future format evolution.
type ensembleFile struct {
	Version int

	// Simulation parameters.
	N                    int
	Types                []int
	Force                forces.Spec
	Cutoff               float64
	Dt                   float64
	NoiseVariance        float64
	InitRadius           float64
	EquilibriumThreshold float64
	EquilibriumWindow    int

	// Ensemble parameters.
	M           int
	Steps       int
	RecordEvery int
	Seed        uint64

	// Payload.
	Trajs        []Trajectory
	Equilibrated []bool
}

const ensembleFileVersion = 1

// Encode serialises the ensemble with encoding/gob. Infinite cut-off radii
// survive the round trip (gob encodes ±Inf).
func (e *Ensemble) Encode(w io.Writer) error {
	spec, err := forces.ToSpec(e.Cfg.Sim.Force)
	if err != nil {
		return fmt.Errorf("sim: persist ensemble: %w", err)
	}
	f := ensembleFile{
		Version:              ensembleFileVersion,
		N:                    e.Cfg.Sim.N,
		Types:                e.Types,
		Force:                spec,
		Cutoff:               e.Cfg.Sim.Cutoff,
		Dt:                   e.Cfg.Sim.Dt,
		NoiseVariance:        e.Cfg.Sim.NoiseVariance,
		InitRadius:           e.Cfg.Sim.InitRadius,
		EquilibriumThreshold: e.Cfg.Sim.EquilibriumThreshold,
		EquilibriumWindow:    e.Cfg.Sim.EquilibriumWindow,
		M:                    e.Cfg.M,
		Steps:                e.Cfg.Steps,
		RecordEvery:          e.Cfg.RecordEvery,
		Seed:                 e.Cfg.Seed,
		Trajs:                e.Trajs,
		Equilibrated:         e.Equilibrated,
	}
	return gob.NewEncoder(w).Encode(f)
}

// EnsembleFileError reports a decoded ensemble file whose shape is
// inconsistent: the particle count, the type list, the sample count and
// the recorded frames do not fit together, so its frames could not be
// read safely.
type EnsembleFileError struct {
	// Problem names the first inconsistency found.
	Problem string
}

func (e *EnsembleFileError) Error() string { return "sim: read ensemble: " + e.Problem }

// ReadEnsemble deserialises an ensemble written by Encode and rebuilds its
// force function from the stored spec. A file whose shape is
// inconsistent is rejected with an *EnsembleFileError, so every frame of
// an accepted ensemble holds N positions and FramesAt is safe for every
// recorded step.
func ReadEnsemble(r io.Reader) (*Ensemble, error) {
	var f ensembleFile
	if err := gob.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("sim: read ensemble: %w", err)
	}
	if f.Version != ensembleFileVersion {
		return nil, fmt.Errorf("sim: unsupported ensemble file version %d", f.Version)
	}
	force, err := f.Force.Build()
	if err != nil {
		return nil, fmt.Errorf("sim: read ensemble: %w", err)
	}
	if err := f.checkShape(force.Types()); err != nil {
		return nil, err
	}
	ens := &Ensemble{
		Cfg: EnsembleConfig{
			Sim: Config{
				N:                    f.N,
				Types:                f.Types,
				Force:                force,
				Cutoff:               f.Cutoff,
				Dt:                   f.Dt,
				NoiseVariance:        f.NoiseVariance,
				InitRadius:           f.InitRadius,
				EquilibriumThreshold: f.EquilibriumThreshold,
				EquilibriumWindow:    f.EquilibriumWindow,
			},
			M:           f.M,
			Steps:       f.Steps,
			RecordEvery: f.RecordEvery,
			Seed:        f.Seed,
		},
		Types:        f.Types,
		Trajs:        f.Trajs,
		Equilibrated: f.Equilibrated,
	}
	return ens, nil
}

// checkShape reports the first inconsistency between the file's
// particle count, types, sample count and recorded frames, given the
// stored force's number of types.
func (f *ensembleFile) checkShape(forceTypes int) error {
	bad := func(format string, args ...any) error {
		return &EnsembleFileError{Problem: fmt.Sprintf(format, args...)}
	}
	if f.N < 1 {
		return bad("N=%d, want at least 1", f.N)
	}
	if len(f.Types) != f.N {
		return bad("%d types for N=%d particles", len(f.Types), f.N)
	}
	for i, t := range f.Types {
		if t < 0 || t >= forceTypes {
			return bad("particle %d has type %d, want [0,%d)", i, t, forceTypes)
		}
	}
	if len(f.Trajs) != f.M || len(f.Equilibrated) != f.M {
		return bad("%d trajectories and %d equilibrium flags for M=%d samples", len(f.Trajs), len(f.Equilibrated), f.M)
	}
	for s, tr := range f.Trajs {
		if len(tr.Times) != len(tr.Frames) {
			return bad("sample %d has %d times for %d frames", s, len(tr.Times), len(tr.Frames))
		}
		if len(tr.Times) != len(f.Trajs[0].Times) {
			return bad("sample %d has %d frames, sample 0 has %d", s, len(tr.Times), len(f.Trajs[0].Times))
		}
		for t, frame := range tr.Frames {
			if len(frame) != f.N {
				return bad("sample %d frame %d holds %d positions for N=%d", s, t, len(frame), f.N)
			}
		}
	}
	return nil
}

// SaveEnsemble writes the ensemble to a file.
func SaveEnsemble(path string, e *Ensemble) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := e.Encode(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadEnsemble reads an ensemble from a file.
func LoadEnsemble(path string) (*Ensemble, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadEnsemble(f)
}

// The gob payload contains only concrete exported types; register the leaf
// value type once so stream headers stay compact and stable.
func init() {
	gob.Register(vec.Vec2{})
}
