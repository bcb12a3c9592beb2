package align

import (
	"cmp"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/vec"
)

// kernelCase is a correspondence-kernel fixture: a moving and a reference
// cloud (not centred; the kernel does not need it) with their types.
type kernelCase struct {
	mov, ref []vec.Vec2
	types    []int
	theta0   float64 // the angle the near-ties are built at
}

// newKernelCase builds a random fixture that mixes the inputs the
// correspondence certificate must not be fooled by: duplicate reference
// points (exact ties), reference pairs built to tie within 1e-14 for a
// query rotated by theta0, a one-member type, and a moving particle at the
// origin, which no rotation moves.
func newKernelCase(r *rand.Rand) kernelCase {
	n := 2 + r.IntN(50)
	l := 1 + r.IntN(4)
	kc := kernelCase{
		mov:    randomCloud(r, n, 8),
		ref:    randomCloud(r, n, 8),
		types:  make([]int, n),
		theta0: r.Float64() * 2 * math.Pi,
	}
	for i := range kc.types {
		kc.types[i] = r.IntN(l)
	}
	kc.types[n-1] = l // a one-member type
	kc.mov[0] = vec.Vec2{}
	// byType lists the members of each type in increasing index order.
	byType := make([][]int, l+1)
	for i, t := range kc.types {
		byType[t] = append(byType[t], i)
	}
	for _, idx := range byType {
		for k := 1; k < len(idx); k++ {
			switch r.IntN(4) {
			case 0: // duplicate an earlier member: an exact tie
				kc.ref[idx[k]] = kc.ref[idx[r.IntN(k)]]
			case 1: // mirror an earlier member through a query: a near-tie
				q := kc.ref[idx[r.IntN(k)]]
				p := kc.mov[idx[r.IntN(len(idx))]].Rotate(kc.theta0)
				f := 1 + (r.Float64()*2-1)*1e-14
				kc.ref[idx[k]] = p.Add(p.Sub(q).Scale(f))
			}
		}
	}
	return kc
}

// fullScan is the correspondence query without certificates: the
// (d², index)-smallest same-type reference point.
func fullScan(kc kernelCase, i int, p vec.Vec2) (int, float64) {
	best, bestD2 := -1, 0.0
	for j, q := range kc.ref {
		if kc.types[j] != kc.types[i] {
			continue
		}
		if d2 := p.Dist2(q); best < 0 || d2 < bestD2 {
			best, bestD2 = j, d2
		}
	}
	return best, bestD2
}

// nextTheta steps an angle sequence: large jumps, drifts from 1e-15 to
// 0.1 radians, and returns to the near-tie angle.
func nextTheta(r *rand.Rand, theta, theta0 float64) float64 {
	switch r.IntN(5) {
	case 0:
		return r.Float64() * 2 * math.Pi
	case 1:
		return theta0 + (r.Float64()*2-1)*1e-14
	default:
		step := math.Pow(10, -float64(1+r.IntN(15)))
		if r.IntN(2) == 0 {
			step = -step
		}
		return theta + step
	}
}

// Property: certified correspondence reuse is exact — over random clouds
// and angle sequences, nearest returns the same index and the same
// squared-distance bits as a plain full scan, and the certificate path is
// actually taken.
func TestCertifiedNearestMatchesFullScan(t *testing.T) {
	r := rand.New(rand.NewPCG(31, 32))
	var queries, reused int
	for trial := 0; trial < 200; trial++ {
		kc := newKernelCase(r)
		var a Aligner
		a.groupByType(kc.ref, kc.types)
		theta := kc.theta0
		for step := 0; step < 60; step++ {
			s, c := math.Sincos(theta)
			for i, m := range kc.mov {
				p := rotate(m, s, c)
				if math.Abs(theta-a.certs[i].theta) <= a.certs[i].reach {
					reused++
				}
				queries++
				got, gotD2 := a.nearest(i, p, theta)
				want, wantD2 := fullScan(kc, i, p)
				if got != want || math.Float64bits(gotD2) != math.Float64bits(wantD2) {
					t.Fatalf("trial %d, step %d, particle %d at θ=%v: certified (%d, %v), full scan (%d, %v)",
						trial, step, i, theta, got, gotD2, want, wantD2)
				}
			}
			theta = nextTheta(r, theta, kc.theta0)
		}
	}
	if reused == 0 || reused == queries {
		t.Fatalf("%d of %d queries reused a certificate; the test must exercise both paths", reused, queries)
	}
}

// sortedGreedy is the matching matchByType replaced: within each type,
// sort every (d², i, j) pair and accept a pair when both ends are free.
func sortedGreedy(moving, ref []vec.Vec2, types []int) []int {
	type pair struct {
		d2   float64
		i, j int
	}
	perm := make([]int, len(moving))
	usedI := make([]bool, len(moving))
	usedJ := make([]bool, len(moving))
	var pairs []pair
	for i := range moving {
		for j := range ref {
			if types[i] == types[j] {
				pairs = append(pairs, pair{moving[i].Dist2(ref[j]), i, j})
			}
		}
	}
	slices.SortFunc(pairs, func(x, y pair) int {
		return cmp.Or(cmp.Compare(x.d2, y.d2), cmp.Compare(x.i, y.i), cmp.Compare(x.j, y.j))
	})
	for _, p := range pairs {
		if usedI[p.i] || usedJ[p.j] {
			continue
		}
		usedI[p.i], usedJ[p.j] = true, true
		perm[p.j] = p.i
	}
	return perm
}

// Property: the row-minimum greedy matching accepts the same pairs as
// sorting all pairs, so the permutation is identical — including on
// duplicate points, where distances tie exactly and the index order
// decides.
func TestMatchByTypeMatchesSortedGreedy(t *testing.T) {
	r := rand.New(rand.NewPCG(33, 34))
	for trial := 0; trial < 300; trial++ {
		kc := newKernelCase(r)
		if trial%3 == 0 {
			// Duplicate moving points too, so whole rows tie.
			for i := 1; i < len(kc.mov); i += 2 {
				kc.mov[i] = kc.mov[i-1]
			}
		}
		var a Aligner
		a.groupByType(kc.ref, kc.types)
		a.matchByType(kc.mov)
		if want := sortedGreedy(kc.mov, kc.ref, kc.types); !slices.Equal(a.perm, want) {
			t.Fatalf("trial %d: row-min perm %v, sorted greedy %v", trial, a.perm, want)
		}
	}
}

// TestAlignReorderedIntoSteadyStateAllocations: after one warm-up call,
// aligning same-sized frames allocates nothing — the grouping, the
// certificates and the matching all live in the Aligner's scratch.
func TestAlignReorderedIntoSteadyStateAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; counts are only meaningful without -race")
	}
	moving, ref, types := pinnedCloud(41, 60, 3, 0.05, true)
	dst := make([]vec.Vec2, len(ref))
	var a Aligner
	if err := a.AlignReorderedInto(dst, moving, ref, types); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := a.AlignReorderedInto(dst, moving, ref, types); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("AlignReorderedInto allocates %v times per call after warm-up, want 0", allocs)
	}
}
