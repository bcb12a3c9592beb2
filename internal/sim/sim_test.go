package sim

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/forces"
	"repro/internal/rngx"
	"repro/internal/vec"
)

func pairConfig(k, r, rc float64) Config {
	return Config{
		N:             2,
		Force:         forces.MustF1(forces.ConstantMatrix(1, k), forces.ConstantMatrix(1, r)),
		Cutoff:        rc,
		NoiseVariance: -1, // noise-free
	}
}

func TestWithDefaults(t *testing.T) {
	c := Config{N: 10, Force: forces.MustF1(forces.ConstantMatrix(2, 1), forces.ConstantMatrix(2, 1))}
	c = c.WithDefaults()
	if !math.IsInf(c.Cutoff, 1) {
		t.Error("zero Cutoff should default to +Inf")
	}
	if c.Dt != DefaultDt || c.NoiseVariance != DefaultNoiseVariance {
		t.Error("numeric defaults not applied")
	}
	if len(c.Types) != 10 {
		t.Error("Types not defaulted")
	}
	if c.Types[0] != 0 || c.Types[1] != 1 || c.Types[2] != 0 {
		t.Error("default Types not round-robin")
	}
	if c.EquilibriumThreshold != DefaultEquilibriumThresholdPerParticle*10 {
		t.Error("equilibrium threshold should scale with N")
	}
}

func TestNegativeNoiseVarianceMeansZero(t *testing.T) {
	c := Config{N: 2, Force: forces.MustF1(forces.ConstantMatrix(1, 1), forces.ConstantMatrix(1, 1)), NoiseVariance: -1}
	if got := c.WithDefaults().NoiseVariance; got != 0 {
		t.Fatalf("NoiseVariance = %v, want 0", got)
	}
}

func TestValidateErrors(t *testing.T) {
	f := forces.MustF1(forces.ConstantMatrix(2, 1), forces.ConstantMatrix(2, 1))
	cases := []Config{
		{N: 0, Force: f},
		{N: 3, Force: nil},
		{N: 3, Force: f, Types: []int{0, 1}},           // wrong length
		{N: 2, Force: f, Types: []int{0, 5}},           // type out of range
		{N: 2, Force: f, Types: []int{0, -1}},          // negative type
		{N: 2, Force: f, Types: []int{0, 1}, Dt: -0.1}, // bad dt
	}
	for i, c := range cases {
		cc := c
		if cc.Dt == 0 {
			cc = cc.WithDefaults()
			cc.Types = c.Types // preserve the intentionally bad Types
			if c.Types == nil && c.N != 3 {
				cc.Types = nil
			}
		}
		if err := cc.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, cc)
		}
	}
}

func TestTypesRoundRobin(t *testing.T) {
	got := TypesRoundRobin(7, 3)
	want := []int{0, 1, 2, 0, 1, 2, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("TypesRoundRobin = %v", got)
		}
	}
}

func TestTypesBlocks(t *testing.T) {
	got := TypesBlocks(7, 3)
	want := []int{0, 0, 0, 1, 1, 2, 2} // 7 = 3+2+2
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("TypesBlocks = %v", got)
		}
	}
}

func TestPairRelaxesToPreferredDistance(t *testing.T) {
	// Noise-free F1 pair: Eq. (6) is a linear spring toward r.
	r := 2.5
	cfg := pairConfig(1, r, math.Inf(1))
	sys, err := NewFromPositions(cfg, []vec.Vec2{v2(0, 0), v2(6, 0)}, rngx.New(1))
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(500)
	pos := sys.Positions()
	if d := pos[0].Dist(pos[1]); math.Abs(d-r) > 1e-6 {
		t.Fatalf("pair distance = %v, want %v", d, r)
	}
}

func TestPairBeyondCutoffDoesNotInteract(t *testing.T) {
	cfg := pairConfig(1, 2, 3)
	start := []vec.Vec2{v2(0, 0), v2(10, 0)}
	sys, err := NewFromPositions(cfg, start, rngx.New(1))
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(100)
	pos := sys.Positions()
	if pos[0] != start[0] || pos[1] != start[1] {
		t.Fatal("particles beyond rc moved without noise")
	}
}

func TestF2PairRepels(t *testing.T) {
	f := forces.MustF2(forces.ConstantMatrix(1, 2), forces.ConstantMatrix(1, 1), forces.ConstantMatrix(1, 5))
	cfg := Config{N: 2, Force: f, Cutoff: 10, NoiseVariance: -1}
	sys, err := NewFromPositions(cfg, []vec.Vec2{v2(0, 0), v2(1, 0)}, rngx.New(1))
	if err != nil {
		t.Fatal(err)
	}
	d0 := 1.0
	sys.Run(50)
	pos := sys.Positions()
	if d := pos[0].Dist(pos[1]); d <= d0 {
		t.Fatalf("F2 (paper regime) pair should repel: %v -> %v", d0, d)
	}
}

func TestCentroidConservedWithoutNoise(t *testing.T) {
	// Symmetric interactions ⇒ Σ forces = 0 ⇒ the centroid is a motion
	// invariant of the noise-free dynamics.
	cfg := Config{
		N:             12,
		Force:         forces.MustF1(forces.ConstantMatrix(3, 1.5), forces.RandomMatrix(3, 1, 4, rngx.New(5))),
		Cutoff:        8,
		NoiseVariance: -1,
	}
	sys, err := New(cfg, rngx.New(2))
	if err != nil {
		t.Fatal(err)
	}
	before := vec.Centroid(sys.Positions())
	sys.Run(200)
	after := vec.Centroid(sys.Positions())
	if before.Dist(after) > 1e-9 {
		t.Fatalf("centroid drifted by %v", before.Dist(after))
	}
}

func TestGridAndBruteForcesAgree(t *testing.T) {
	// The strategy switch must be invisible: identical forces from both
	// paths on a spread-out configuration with small cut-off.
	cfg := Config{
		N:      64,
		Force:  forces.MustF1(forces.ConstantMatrix(2, 1), forces.ConstantMatrix(2, 1.5)),
		Cutoff: 2,
	}.WithDefaults()
	rng := rngx.New(3)
	pos := make([]vec.Vec2, cfg.N)
	for i := range pos {
		x, y := rng.UniformDisc(20) // spread ≫ 3·rc selects the grid path
		pos[i] = vec.Vec2{X: x, Y: y}
	}
	sys, err := NewFromPositions(cfg, pos, rngx.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := sys.gridBox(); !ok {
		t.Fatal("test setup: expected the grid path to be selected")
	}
	sys.computeForces() // grid path
	fromGrid := append([]vec.Vec2(nil), sys.force...)
	for i := range sys.force {
		sys.force[i] = vec.Vec2{}
	}
	sys.forcesBrute()
	for i := range sys.force {
		if sys.force[i].Dist(fromGrid[i]) > 1e-9 {
			t.Fatalf("particle %d: grid force %v, brute force %v", i, fromGrid[i], sys.force[i])
		}
	}
}

// Steady-state Step on the grid path must not allocate: the grid and the
// neighbour scratch buffer are recycled. The spread-out collective needs
// far more cut-off cells than it has particles, so its grid wraps.
func TestStepSteadyStateAllocationFree(t *testing.T) {
	for _, spread := range []float64{40, 1e5} {
		t.Run(fmt.Sprintf("spread=%g", spread), func(t *testing.T) {
			cfg := Config{
				N:      128,
				Force:  forces.MustF1(forces.ConstantMatrix(3, 1), forces.ConstantMatrix(3, 2)),
				Cutoff: 2,
			}.WithDefaults()
			rng := rngx.New(8)
			pos := make([]vec.Vec2, cfg.N)
			for i := range pos {
				x, y := rng.UniformDisc(spread)
				pos[i] = vec.Vec2{X: x, Y: y}
			}
			sys, err := NewFromPositions(cfg, pos, rngx.New(9))
			if err != nil {
				t.Fatal(err)
			}
			if _, _, ok := sys.gridBox(); !ok {
				t.Fatal("test setup: expected the grid path")
			}
			sys.Run(3) // warm up grid and scratch buffers
			if allocs := testing.AllocsPerRun(30, sys.Step); allocs != 0 {
				t.Fatalf("steady-state Step allocated %.1f times per run, want 0", allocs)
			}
		})
	}
}

func TestDeterminism(t *testing.T) {
	cfg := Config{
		N:      20,
		Force:  forces.MustF1(forces.ConstantMatrix(2, 1), forces.ConstantMatrix(2, 2)),
		Cutoff: 5,
	}
	run := func() []vec.Vec2 {
		sys, err := New(cfg, rngx.New(77))
		if err != nil {
			t.Fatal(err)
		}
		sys.Run(100)
		return sys.Positions()
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different trajectories")
		}
	}
}

func TestCoincidentParticlesNoNaN(t *testing.T) {
	cfg := pairConfig(1, 2, math.Inf(1))
	sys, err := NewFromPositions(cfg, []vec.Vec2{v2(1, 1), v2(1, 1)}, rngx.New(1))
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(10)
	for _, p := range sys.Positions() {
		if !p.IsFinite() {
			t.Fatal("coincident particles produced non-finite positions")
		}
	}
}

func TestEquilibriumDetection(t *testing.T) {
	cfg := pairConfig(1, 2, math.Inf(1))
	cfg.EquilibriumThreshold = 1e-6
	cfg.EquilibriumWindow = 5
	sys, err := NewFromPositions(cfg, []vec.Vec2{v2(0, 0), v2(5, 0)}, rngx.New(1))
	if err != nil {
		t.Fatal(err)
	}
	steps, eq := sys.RunUntilEquilibrium(5000)
	if !eq {
		t.Fatalf("noise-free pair did not equilibrate in %d steps (net force %v)", steps, sys.NetForce())
	}
	if !sys.InEquilibrium() {
		t.Error("InEquilibrium false after RunUntilEquilibrium success")
	}
	if steps >= 5000 {
		t.Error("equilibrium reported only at the step bound")
	}
}

func TestNetForceTracked(t *testing.T) {
	cfg := pairConfig(1, 2, math.Inf(1))
	sys, err := NewFromPositions(cfg, []vec.Vec2{v2(0, 0), v2(6, 0)}, rngx.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(sys.NetForce()) {
		t.Error("NetForce before first step should be NaN")
	}
	sys.Step()
	// Both particles feel k·|x−r| = 1·4 = 4 at distance 6.
	if math.Abs(sys.NetForce()-8) > 1e-9 {
		t.Errorf("NetForce = %v, want 8", sys.NetForce())
	}
}

func TestTimeAdvances(t *testing.T) {
	cfg := pairConfig(1, 2, math.Inf(1))
	sys, _ := NewFromPositions(cfg, []vec.Vec2{v2(0, 0), v2(3, 0)}, rngx.New(1))
	if sys.Time() != 0 {
		t.Error("fresh system time != 0")
	}
	sys.Run(7)
	if sys.Time() != 7 {
		t.Errorf("Time = %d, want 7", sys.Time())
	}
}

// --- Eq. (10): invariance of the dynamics under F = ISO⁺(2) × S*_n -------

// recordedNoise pre-draws a noise table so the same randomness can be
// replayed under a transformation.
func recordedNoise(steps, n int, amp float64, seed uint64) [][]vec.Vec2 {
	rng := rngx.New(seed)
	out := make([][]vec.Vec2, steps)
	for s := range out {
		out[s] = make([]vec.Vec2, n)
		for i := range out[s] {
			out[s][i] = vec.Vec2{X: rng.NormFloat64() * amp, Y: rng.NormFloat64() * amp}
		}
	}
	return out
}

func invarianceConfig() Config {
	return Config{
		N:      15,
		Types:  TypesRoundRobin(15, 3),
		Force:  forces.MustF1(forces.ConstantMatrix(3, 1), forces.RandomMatrix(3, 1, 4, rngx.New(8))),
		Cutoff: 5,
	}
}

func runWithNoise(t *testing.T, cfg Config, start []vec.Vec2, noise [][]vec.Vec2, steps int) []vec.Vec2 {
	t.Helper()
	sys, err := NewFromPositions(cfg, start, rngx.New(0))
	if err != nil {
		t.Fatal(err)
	}
	sys.SetNoiseFunc(func(step, i int) vec.Vec2 { return noise[step][i] })
	sys.Run(steps)
	return sys.Positions()
}

func TestDynamicsRotationEquivariant(t *testing.T) {
	cfg := invarianceConfig()
	steps := 60
	noise := recordedNoise(steps, cfg.N, 0.07, 9)
	rng := rngx.New(10)
	start := make([]vec.Vec2, cfg.N)
	for i := range start {
		x, y := rng.UniformDisc(4)
		start[i] = vec.Vec2{X: x, Y: y}
	}
	theta := 1.1
	rotStart := make([]vec.Vec2, cfg.N)
	for i := range start {
		rotStart[i] = start[i].Rotate(theta)
	}
	rotNoise := make([][]vec.Vec2, steps)
	for s := range noise {
		rotNoise[s] = make([]vec.Vec2, cfg.N)
		for i := range noise[s] {
			rotNoise[s][i] = noise[s][i].Rotate(theta)
		}
	}
	plain := runWithNoise(t, cfg, start, noise, steps)
	rotated := runWithNoise(t, cfg, rotStart, rotNoise, steps)
	for i := range plain {
		if plain[i].Rotate(theta).Dist(rotated[i]) > 1e-6 {
			t.Fatalf("particle %d: R(z) = %v, z' = %v", i, plain[i].Rotate(theta), rotated[i])
		}
	}
}

func TestDynamicsTranslationEquivariant(t *testing.T) {
	cfg := invarianceConfig()
	steps := 60
	noise := recordedNoise(steps, cfg.N, 0.07, 11)
	rng := rngx.New(12)
	start := make([]vec.Vec2, cfg.N)
	for i := range start {
		x, y := rng.UniformDisc(4)
		start[i] = vec.Vec2{X: x, Y: y}
	}
	shift := vec.Vec2{X: 13.5, Y: -4.2}
	shifted := make([]vec.Vec2, cfg.N)
	for i := range start {
		shifted[i] = start[i].Add(shift)
	}
	plain := runWithNoise(t, cfg, start, noise, steps)
	moved := runWithNoise(t, cfg, shifted, noise, steps)
	for i := range plain {
		if plain[i].Add(shift).Dist(moved[i]) > 1e-6 {
			t.Fatalf("particle %d: translation equivariance broken", i)
		}
	}
}

func TestDynamicsPermutationEquivariant(t *testing.T) {
	// Swapping two particles of the same type (and their noise streams)
	// must swap their trajectories and leave everyone else untouched.
	cfg := invarianceConfig()
	steps := 60
	noise := recordedNoise(steps, cfg.N, 0.07, 13)
	rng := rngx.New(14)
	start := make([]vec.Vec2, cfg.N)
	for i := range start {
		x, y := rng.UniformDisc(4)
		start[i] = vec.Vec2{X: x, Y: y}
	}
	// Particles 0 and 3 share type 0 under round-robin with l=3.
	a, b := 0, 3
	if cfg.Types[a] != cfg.Types[b] {
		t.Fatal("test setup: particles must share a type")
	}
	permStart := append([]vec.Vec2(nil), start...)
	permStart[a], permStart[b] = permStart[b], permStart[a]
	permNoise := make([][]vec.Vec2, steps)
	for s := range noise {
		permNoise[s] = append([]vec.Vec2(nil), noise[s]...)
		permNoise[s][a], permNoise[s][b] = permNoise[s][b], permNoise[s][a]
	}
	plain := runWithNoise(t, cfg, start, noise, steps)
	perm := runWithNoise(t, cfg, permStart, permNoise, steps)
	for i := range plain {
		j := i
		if i == a {
			j = b
		} else if i == b {
			j = a
		}
		if plain[i].Dist(perm[j]) > 1e-9 {
			t.Fatalf("permutation equivariance broken at particle %d", i)
		}
	}
}
