package sim

import (
	"math"
	"testing"

	"repro/internal/forces"
	"repro/internal/rngx"
	"repro/internal/vec"
)

func TestMaxStableDt(t *testing.T) {
	if got := MaxStableDt(4, 35); math.Abs(got-0.5/140) > 1e-15 {
		t.Fatalf("MaxStableDt(4,35) = %v", got)
	}
	if got := MaxStableDt(0, 10); got != DefaultDt {
		t.Fatalf("degenerate input should return the default, got %v", got)
	}
	if got := MaxStableDt(2, 0); got != DefaultDt {
		t.Fatalf("degenerate input should return the default, got %v", got)
	}
}

// TestStiffSystemStableAtSuggestedDt demonstrates the stability boundary
// that motivated MaxStableDt: a dense strongly-adhesive collective stays
// bounded at the suggested step and explodes (or disperses far beyond its
// initial extent) at a 20× larger one.
func TestStiffSystemStableAtSuggestedDt(t *testing.T) {
	build := func(dt float64) *System {
		cfg := Config{
			N:     30,
			Types: TypesRoundRobin(30, 2),
			Force: forces.MustF1(forces.ConstantMatrix(2, 4),
				forces.MustMatrix([][]float64{{1.0, 2.0}, {2.0, 2.6}})),
			Cutoff:        6,
			InitRadius:    2.5,
			Dt:            dt,
			NoiseVariance: -1,
		}
		sys, err := New(cfg, rngx.New(5))
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	good := build(MaxStableDt(4, 30))
	good.Run(2000)
	if r := radius(good.Positions()); r > 12 {
		t.Fatalf("stable step dispersed the collective to radius %v", r)
	}
	bad := build(MaxStableDt(4, 30) * 40)
	bad.Run(1000)
	if r := radius(bad.Positions()); r < 12 {
		t.Fatalf("expected the oversized step to destabilise the collective, radius %v", r)
	}
}

// radius returns the largest distance of any point from the origin.
func radius(points []vec.Vec2) float64 {
	var r float64
	for _, p := range points {
		r = math.Max(r, p.Norm())
	}
	return r
}

// TestDtHalvingConsistency checks integrator convergence: a noise-free
// trajectory advanced with dt and with dt/2 over the same physical time
// must agree closely (the Euler scheme is first order; halving the step
// roughly halves the error).
func TestDtHalvingConsistency(t *testing.T) {
	run := func(dt float64, steps int) []vec.Vec2 {
		cfg := Config{
			N:             8,
			Force:         forces.MustF1(forces.ConstantMatrix(1, 1), forces.ConstantMatrix(1, 2)),
			Cutoff:        10,
			Dt:            dt,
			NoiseVariance: -1,
		}
		rng := rngx.New(31)
		pos := make([]vec.Vec2, cfg.N)
		for i := range pos {
			x, y := rng.UniformDisc(3)
			pos[i] = vec.Vec2{X: x, Y: y}
		}
		sys, err := NewFromPositions(cfg, pos, rngx.New(0))
		if err != nil {
			t.Fatal(err)
		}
		sys.Run(steps)
		return sys.Positions()
	}
	coarse := run(0.05, 200) // T = 10
	fine := run(0.025, 400)  // same T
	finer := run(0.0125, 800)
	errCoarse, errFine := 0.0, 0.0
	for i := range coarse {
		errCoarse += coarse[i].Dist(finer[i])
		errFine += fine[i].Dist(finer[i])
	}
	if errFine >= errCoarse {
		t.Fatalf("halving dt did not reduce the discretisation error: %v vs %v", errFine, errCoarse)
	}
	if errCoarse/float64(len(coarse)) > 0.05 {
		t.Fatalf("coarse-step trajectory error per particle %v too large; dynamics not step-size robust",
			errCoarse/float64(len(coarse)))
	}
}
