package experiment

import (
	"errors"
	"testing"

	"repro/internal/align"
	"repro/internal/forces"
	"repro/internal/sim"
)

// TestDivergedSpecReturnsTypedError: the Fig. 4 system with every
// attraction strength at 1e200 blows up in its first step, to coordinates
// near 1e199 — still finite, but their squares are not. Both the streamed pipeline and the batch one (the medoid
// reference) must stop with a *sim.DivergedError naming the sample and the
// first non-finite recorded step, instead of panicking in the alignment or
// returning a curve.
func TestDivergedSpecReturnsTypedError(t *testing.T) {
	cfg := Fig4Params()
	cfg.Force = forces.MustF1(forces.ConstantMatrix(3, 1e200), cfg.Force.(*forces.F1).R)
	for _, ref := range []align.Reference{align.RefFirst, align.RefMedoid} {
		p := Pipeline{
			Name:     "diverged",
			Ensemble: sim.EnsembleConfig{Sim: cfg, M: 8, Steps: 20, RecordEvery: 10, Seed: 1},
		}
		p.Observer.Align.Reference = ref
		res, err := p.Run()
		var d *sim.DivergedError
		if !errors.As(err, &d) {
			t.Fatalf("reference %d: got result %v, error %v; want a *sim.DivergedError", ref, res, err)
		}
		if d.Sample < 0 || d.Sample >= p.Ensemble.M || d.Step != 10 {
			t.Fatalf("reference %d: diverged at sample %d, step %d; want a sample in [0, %d) at step 10",
				ref, d.Sample, d.Step, p.Ensemble.M)
		}
	}
}
