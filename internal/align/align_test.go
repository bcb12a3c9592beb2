package align

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/vec"
)

func randomCloud(r *rand.Rand, n int, extent float64) []vec.Vec2 {
	pts := make([]vec.Vec2, n)
	for i := range pts {
		pts[i] = vec.Vec2{X: (r.Float64() - 0.5) * extent, Y: (r.Float64() - 0.5) * extent}
	}
	return pts
}

func normalizeAngle(a float64) float64 {
	for a > math.Pi {
		a -= 2 * math.Pi
	}
	for a < -math.Pi {
		a += 2 * math.Pi
	}
	return a
}

func TestRigidApplyComposeInverse(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 200; trial++ {
		g := Rigid{Theta: r.Float64() * 2 * math.Pi, T: vec.Vec2{X: r.Float64() * 10, Y: r.Float64() * 10}}
		h := Rigid{Theta: r.Float64() * 2 * math.Pi, T: vec.Vec2{X: r.Float64() * 10, Y: r.Float64() * 10}}
		p := vec.Vec2{X: r.Float64()*4 - 2, Y: r.Float64()*4 - 2}
		// Compose: (g then h)(p) == h(g(p)).
		if g.Compose(h).Apply(p).Dist(h.Apply(g.Apply(p))) > 1e-9 {
			t.Fatal("Compose broken")
		}
		// Inverse: g⁻¹(g(p)) == p.
		if g.Inverse().Apply(g.Apply(p)).Dist(p) > 1e-9 {
			t.Fatal("Inverse broken")
		}
	}
}

func TestRigidApplyAll(t *testing.T) {
	g := Rigid{Theta: math.Pi / 2, T: vec.Vec2{X: 1}}
	out := g.ApplyAll([]vec.Vec2{v2(1, 0), v2(0, 1)})
	if out[0].Dist(vec.Vec2{X: 1, Y: 1}) > 1e-12 {
		t.Fatalf("ApplyAll[0] = %v", out[0])
	}
	if out[1].Dist(vec.Vec2{X: 0, Y: 0}) > 1e-12 {
		t.Fatalf("ApplyAll[1] = %v", out[1])
	}
}

// Property: Procrustes recovers a planted rigid motion exactly when the
// correspondence is known.
func TestProcrustesRecoversPlantedTransform(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 4))
	for trial := 0; trial < 100; trial++ {
		src := randomCloud(r, 3+r.IntN(40), 10)
		g := Rigid{
			Theta: r.Float64()*2*math.Pi - math.Pi,
			T:     vec.Vec2{X: r.Float64()*20 - 10, Y: r.Float64()*20 - 10},
		}
		dst := g.ApplyAll(src)
		got := Procrustes2D(src, dst)
		if math.Abs(normalizeAngle(got.Theta-g.Theta)) > 1e-9 {
			t.Fatalf("theta = %v, want %v", got.Theta, g.Theta)
		}
		for i := range src {
			if got.Apply(src[i]).Dist(dst[i]) > 1e-9 {
				t.Fatal("recovered transform does not map src onto dst")
			}
		}
	}
}

func TestProcrustesLeastSquaresUnderNoise(t *testing.T) {
	// With noisy correspondences the recovered rotation should still be
	// close, and the residual must be no worse than the planted one.
	r := rand.New(rand.NewPCG(5, 6))
	src := randomCloud(r, 60, 10)
	g := Rigid{Theta: 0.7, T: vec.Vec2{X: 2, Y: -1}}
	dst := g.ApplyAll(src)
	for i := range dst {
		dst[i] = dst[i].Add(vec.Vec2{X: r.NormFloat64() * 0.01, Y: r.NormFloat64() * 0.01})
	}
	got := Procrustes2D(src, dst)
	if math.Abs(normalizeAngle(got.Theta-0.7)) > 0.01 {
		t.Fatalf("theta = %v, want ≈ 0.7", got.Theta)
	}
	if RMSD(got.ApplyAll(src), dst) > 0.02 {
		t.Fatal("residual too large")
	}
}

func TestProcrustesDegenerate(t *testing.T) {
	// All points coincident: pure translation.
	src := []vec.Vec2{v2(1, 1), v2(1, 1)}
	dst := []vec.Vec2{v2(4, 5), v2(4, 5)}
	g := Procrustes2D(src, dst)
	if g.Theta != 0 {
		t.Fatalf("degenerate rotation = %v", g.Theta)
	}
	if g.Apply(src[0]).Dist(dst[0]) > 1e-12 {
		t.Fatal("degenerate translation wrong")
	}
	// Empty input.
	if g := Procrustes2D(nil, nil); g.Theta != 0 || g.T != (vec.Vec2{}) {
		t.Fatal("empty Procrustes should be identity")
	}
}

func TestProcrustesMismatchedLengthsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("length mismatch should panic")
		}
	}()
	Procrustes2D(make([]vec.Vec2, 2), make([]vec.Vec2, 3))
}

func TestRMSD(t *testing.T) {
	a := []vec.Vec2{v2(0, 0), v2(1, 0)}
	b := []vec.Vec2{v2(0, 1), v2(1, 1)}
	if got := RMSD(a, b); math.Abs(got-1) > 1e-12 {
		t.Fatalf("RMSD = %v, want 1", got)
	}
	if RMSD(nil, nil) != 0 {
		t.Fatal("empty RMSD should be 0")
	}
}

// --- ICP ------------------------------------------------------------------

// Property: ICP undoes a planted element of F = ISO⁺(2) × S*_n — the core
// guarantee the Sec. 5.2 preprocessing needs.
func TestICPRecoversPlantedSymmetry(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 8))
	for trial := 0; trial < 20; trial++ {
		n := 10 + r.IntN(30)
		types := make([]int, n)
		for i := range types {
			types[i] = r.IntN(3)
		}
		ref := randomCloud(r, n, 8)
		g := Rigid{
			Theta: r.Float64()*2*math.Pi - math.Pi,
			T:     vec.Vec2{X: r.Float64()*30 - 15, Y: r.Float64()*30 - 15},
		}
		// Apply the rigid motion, then a same-type permutation.
		moving := make([]vec.Vec2, n)
		perm := sameTypePermutation(r, types)
		movTypes := make([]int, n)
		for i := range ref {
			moving[perm[i]] = g.Apply(ref[i])
			movTypes[perm[i]] = types[i]
		}
		res, err := ICP(moving, ref, movTypes)
		if err != nil {
			t.Fatal(err)
		}
		if res.RMS > 1e-6 {
			t.Fatalf("trial %d: residual %v after aligning a planted transform", trial, res.RMS)
		}
		// The reordered output must match the reference point-for-point.
		re := res.Reordered()
		for j := range ref {
			want := ref[j].Sub(vec.Centroid(ref))
			if re[j].Dist(want) > 1e-6 {
				t.Fatalf("trial %d: reordered[%d] = %v, want %v", trial, j, re[j], want)
			}
		}
	}
}

// sameTypePermutation returns a permutation that only moves indices within
// the same type class (an element of S*_n).
func sameTypePermutation(r *rand.Rand, types []int) []int {
	byType := map[int][]int{}
	for i, ty := range types {
		byType[ty] = append(byType[ty], i)
	}
	perm := make([]int, len(types))
	for _, idx := range byType {
		shuffled := append([]int(nil), idx...)
		r.Shuffle(len(shuffled), func(a, b int) { shuffled[a], shuffled[b] = shuffled[b], shuffled[a] })
		for k, i := range idx {
			perm[i] = shuffled[k]
		}
	}
	return perm
}

func TestICPPermIsTypeRespectingBijection(t *testing.T) {
	r := rand.New(rand.NewPCG(9, 10))
	n := 24
	types := make([]int, n)
	for i := range types {
		types[i] = i % 4
	}
	ref := randomCloud(r, n, 6)
	moving := Rigid{Theta: 0.4, T: vec.Vec2{X: 3}}.ApplyAll(ref)
	res, err := ICP(moving, ref, types)
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]bool, n)
	for j, i := range res.Perm {
		if seen[i] {
			t.Fatal("Perm is not a bijection")
		}
		seen[i] = true
		if types[i] != types[j] {
			t.Fatalf("Perm crosses types: ref slot %d (type %d) ← moving %d (type %d)",
				j, types[j], i, types[i])
		}
	}
}

func TestICPNoisyAlignment(t *testing.T) {
	// Small perturbations: residual should be of the noise order, far
	// below the cloud extent.
	r := rand.New(rand.NewPCG(11, 12))
	n := 30
	types := make([]int, n) // single type
	ref := randomCloud(r, n, 10)
	g := Rigid{Theta: 2.0, T: vec.Vec2{X: -4, Y: 9}}
	moving := g.ApplyAll(ref)
	for i := range moving {
		moving[i] = moving[i].Add(vec.Vec2{X: r.NormFloat64() * 0.02, Y: r.NormFloat64() * 0.02})
	}
	res, err := ICP(moving, ref, types)
	if err != nil {
		t.Fatal(err)
	}
	if res.RMS > 0.1 {
		t.Fatalf("noisy residual = %v", res.RMS)
	}
}

// pinnedCloud builds a deterministic ICP input: n particles of l types
// (particle i has type i%l), a reference cloud, and a moving copy under a
// random rigid motion plus Gaussian jitter of the given size, shuffled
// within each type. With dup, every other block of l particles copies the
// block before it, so same-type reference points coincide and
// nearest-neighbour distances tie exactly.
func pinnedCloud(seed uint64, n, l int, noise float64, dup bool) (moving, ref []vec.Vec2, types []int) {
	r := rand.New(rand.NewPCG(seed, seed+1))
	types = make([]int, n)
	for i := range types {
		types[i] = i % l
	}
	ref = randomCloud(r, n, 8)
	if dup {
		for i := l; i < n; i += 2 * l {
			for k := i; k < i+l && k < n; k++ {
				ref[k] = ref[k-l]
			}
		}
	}
	g := Rigid{Theta: r.Float64()*2*math.Pi - math.Pi, T: vec.Vec2{X: r.Float64()*20 - 10, Y: r.Float64()*20 - 10}}
	moved := g.ApplyAll(ref)
	for i := range moved {
		moved[i] = moved[i].Add(vec.Vec2{X: r.NormFloat64() * noise, Y: r.NormFloat64() * noise})
	}
	// Shuffle within each type: type t's members are t, t+l, t+2l, ...
	moving = make([]vec.Vec2, n)
	for t := 0; t < l; t++ {
		var idx []int
		for i := t; i < n; i += l {
			idx = append(idx, i)
		}
		p := r.Perm(len(idx))
		for k, i := range idx {
			moving[idx[p[k]]] = moved[i]
		}
	}
	return moving, ref, types
}

// TestICPPinnedOutputBits pins the exact output of ICP — the bits of the
// recovered angle and RMS, the permutation and the iteration count — on
// fixed clouds, as produced by the type-lifted k-d tree search the
// per-type scan replaced. Any change to the correspondence search, its
// tie-breaks or the accumulation order shows up here.
func TestICPPinnedOutputBits(t *testing.T) {
	cases := []struct {
		name               string
		seed               uint64
		n, l               int
		noise              float64
		dup                bool
		thetaBits, rmsBits uint64
		iters              int
		perm               []int
	}{
		{"l1-n20", 21, 20, 1, 0.05, false, 0x400f2b4e6e90ab7a, 0x3fb1caac503dbcb0, 38,
			[]int{19, 1, 8, 3, 14, 12, 18, 17, 16, 4, 9, 0, 6, 7, 13, 10, 11, 2, 15, 5}},
		{"l3-n50", 22, 50, 3, 0.05, false, 0x4005af1d2b1d3ca1, 0x3fb0979f1cb29f97, 62,
			[]int{9, 22, 5, 30, 13, 11, 18, 46, 32, 3, 19, 17, 48, 43, 23, 27, 31, 20, 39, 7, 47, 6, 4, 14, 33,
				37, 41, 24, 28, 29, 12, 16, 2, 0, 1, 38, 15, 34, 44, 45, 40, 26, 36, 10, 8, 42, 25, 35, 21, 49}},
		{"l10-n20", 23, 20, 10, 0.05, false, 0xbfb51855080b1804, 0x3fadcaac074c2195, 42,
			[]int{0, 1, 2, 13, 4, 15, 16, 17, 18, 9, 10, 11, 12, 3, 14, 5, 6, 7, 8, 19}},
		{"l2-n16-duplicates", 24, 16, 2, 0, true, 0x40070b2bf0b2da78, 0x3cc0fc3bd16daedf, 32,
			[]int{8, 3, 14, 11, 0, 5, 10, 9, 2, 1, 4, 15, 6, 7, 12, 13}},
	}
	for _, c := range cases {
		moving, ref, types := pinnedCloud(c.seed, c.n, c.l, c.noise, c.dup)
		res, err := ICP(moving, ref, types)
		if err != nil {
			t.Fatal(err)
		}
		if got := math.Float64bits(res.Transform.Theta); got != c.thetaBits {
			t.Errorf("%s: theta bits %#016x, want %#016x", c.name, got, c.thetaBits)
		}
		if got := math.Float64bits(res.RMS); got != c.rmsBits {
			t.Errorf("%s: RMS bits %#016x, want %#016x", c.name, got, c.rmsBits)
		}
		if res.Iterations != c.iters {
			t.Errorf("%s: %d iterations, want %d", c.name, res.Iterations, c.iters)
		}
		if !slices.Equal(res.Perm, c.perm) {
			t.Errorf("%s: perm %v, want %v", c.name, res.Perm, c.perm)
		}
	}
}

// Property: the per-type scan returns exactly what the paper's type-lifted
// search returns — the (squared distance, index)-smallest reference point
// in R³ with the type, scaled by ten diameters, as third coordinate — so
// it never crosses types even when another type's point is closer in the
// plane.
func TestNearestMatchesTypeLiftedSearch(t *testing.T) {
	r := rand.New(rand.NewPCG(17, 18))
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.IntN(60)
		l := 1 + r.IntN(5)
		moving, ref, types := pinnedCloud(uint64(100+trial), n, l, 0.5, trial%2 == 0)
		var a Aligner
		a.mov = append(a.mov[:0], moving...)
		a.ref = append(a.ref[:0], ref...)
		vec.Center(a.mov)
		vec.Center(a.ref)
		a.groupByType(a.ref, types)
		var radius float64
		for _, p := range append(slices.Clone(a.mov), a.ref...) {
			radius = math.Max(radius, p.Norm())
		}
		scale := 10 * 2 * radius
		for i, p := range a.mov {
			theta := r.Float64() * 2 * math.Pi
			p = p.Rotate(theta)
			want, wantD2 := -1, math.Inf(1)
			for j, q := range a.ref {
				dz := float64(types[i])*scale - float64(types[j])*scale
				dx, dy := p.X-q.X, p.Y-q.Y
				if d2 := dx*dx + dy*dy + dz*dz; d2 < wantD2 {
					want, wantD2 = j, d2
				}
			}
			got, gotD2 := a.nearest(i, p, theta)
			if got != want || gotD2 != wantD2 {
				t.Fatalf("trial %d, particle %d: scan (%d, %v), lifted search (%d, %v)", trial, i, got, gotD2, want, wantD2)
			}
			if types[got] != types[i] {
				t.Fatalf("trial %d: nearest crossed types", trial)
			}
		}
	}
}

func TestICPInputValidation(t *testing.T) {
	if _, err := ICP(make([]vec.Vec2, 2), make([]vec.Vec2, 3), []int{0, 0}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := ICP(make([]vec.Vec2, 2), make([]vec.Vec2, 2), []int{0}); err == nil {
		t.Error("types length mismatch accepted")
	}
	if _, err := ICP(nil, nil, nil); err == nil {
		t.Error("empty configuration accepted")
	}
	if _, err := ICP(make([]vec.Vec2, 1), make([]vec.Vec2, 1), []int{-1}); err == nil {
		t.Error("negative type accepted")
	}
}

func TestICPTransformMapsOriginalOntoReference(t *testing.T) {
	r := rand.New(rand.NewPCG(15, 16))
	n := 15
	types := make([]int, n)
	ref := randomCloud(r, n, 6)
	g := Rigid{Theta: -0.9, T: vec.Vec2{X: 7, Y: -2}}
	moving := g.ApplyAll(ref)
	res, err := ICP(moving, ref, types)
	if err != nil {
		t.Fatal(err)
	}
	// Transform maps original moving coordinates onto the *centred*
	// reference frame plus the reference centroid — i.e. onto the
	// original reference coordinates.
	for i := range moving {
		mapped := res.Transform.Apply(moving[i])
		if mapped.Dist(ref[i]) > 1e-6 {
			t.Fatalf("Transform maps point %d to %v, want %v", i, mapped, ref[i])
		}
	}
}

// --- AlignFrame -----------------------------------------------------------

func TestAlignFrameCollapsesTransformedCopies(t *testing.T) {
	// All samples are rigid motions + same-type permutations of one
	// shape; after alignment every sample must coincide with the centred
	// reference.
	r := rand.New(rand.NewPCG(17, 18))
	n := 18
	types := make([]int, n)
	for i := range types {
		types[i] = i % 3
	}
	base := randomCloud(r, n, 7)
	m := 12
	frames := make([][]vec.Vec2, m)
	for s := range frames {
		g := Rigid{
			Theta: r.Float64() * 2 * math.Pi,
			T:     vec.Vec2{X: r.Float64() * 40, Y: r.Float64() * 40},
		}
		perm := sameTypePermutation(r, types)
		f := make([]vec.Vec2, n)
		for i := range base {
			f[perm[i]] = g.Apply(base[i])
		}
		// Types must follow the permutation; with round-robin i%3 and
		// same-type permutation the type of slot perm[i] equals
		// types[i] only if the permutation respects classes — it does,
		// but slot types must still line up with the shared `types`.
		for i := range base {
			if types[perm[i]] != types[i] {
				t.Fatal("test setup: permutation crossed types")
			}
		}
		frames[s] = f
	}
	aligned, err := AlignFrame(frames, types, FrameOptions{})
	if err != nil {
		t.Fatal(err)
	}
	centred := append([]vec.Vec2(nil), frames[0]...)
	vec.Center(centred)
	for s := range aligned {
		for j := range centred {
			if aligned[s][j].Dist(centred[j]) > 1e-5 {
				t.Fatalf("sample %d slot %d: %v, want %v", s, j, aligned[s][j], centred[j])
			}
		}
	}
}

func TestAlignFrameCentroids(t *testing.T) {
	r := rand.New(rand.NewPCG(19, 20))
	frames := [][]vec.Vec2{randomCloud(r, 10, 5), randomCloud(r, 10, 5)}
	types := make([]int, 10)
	aligned, err := AlignFrame(frames, types, FrameOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for s := range aligned {
		if c := vec.Centroid(aligned[s]); c.Norm() > 1e-9 {
			t.Fatalf("sample %d centroid = %v, want origin", s, c)
		}
	}
}

func TestAlignFrameMedoidReference(t *testing.T) {
	r := rand.New(rand.NewPCG(21, 22))
	frames := make([][]vec.Vec2, 5)
	for s := range frames {
		frames[s] = randomCloud(r, 8, 5)
	}
	types := make([]int, 8)
	a, err := AlignFrame(frames, types, FrameOptions{Reference: RefMedoid})
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 5 {
		t.Fatal("wrong sample count")
	}
}

func TestAlignFrameValidation(t *testing.T) {
	if _, err := AlignFrame(nil, nil, FrameOptions{}); err == nil {
		t.Error("empty frame set accepted")
	}
	frames := [][]vec.Vec2{make([]vec.Vec2, 3), make([]vec.Vec2, 4)}
	if _, err := AlignFrame(frames, []int{0, 0, 0}, FrameOptions{}); err == nil {
		t.Error("ragged frames accepted")
	}
}

func TestMedoidIndexPicksCentralSample(t *testing.T) {
	// Two clusters of similar frames plus one clearly central frame.
	base := []vec.Vec2{v2(0, 0), v2(1, 0), v2(0, 1)}
	off1 := []vec.Vec2{v2(5, 0), v2(6, 0), v2(5, 1)} // same shape, far centroid (centred away)
	off2 := []vec.Vec2{v2(0, 0), v2(3, 0), v2(0, 3)} // stretched shape
	off3 := []vec.Vec2{v2(0, 0), v2(2, 0), v2(0, 2)} // mildly stretched: central
	frames := [][]vec.Vec2{base, off1, off2, off3}
	idx := medoidIndex(frames)
	if idx < 0 || idx >= len(frames) {
		t.Fatalf("medoid index out of range: %d", idx)
	}
	// base and off1 are identical after centring; the medoid must be one
	// of the two shapes with minimal summed distance. Just assert it is
	// not the most extreme shape (off2).
	if idx == 2 {
		t.Fatal("medoid picked the most extreme sample")
	}
}
