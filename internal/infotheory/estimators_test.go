package infotheory

import (
	"math"
	"math/rand/v2"
	"reflect"
	"testing"
)

// --- kernel estimator -------------------------------------------------------

func TestKernelIndependentNearZero(t *testing.T) {
	d := independentDataset(300, 3, 1, 41)
	got := MultiInfoKernel(d)
	if math.Abs(got) > 0.4 {
		t.Errorf("kernel MI on independent data = %v, want ≈ 0", got)
	}
}

func TestKernelBivariateGaussian(t *testing.T) {
	rho := 0.8
	want := gaussianPairTrueMI(rho)
	var sum float64
	reps := 3
	for r := 0; r < reps; r++ {
		sum += MultiInfoKernel(gaussianPair(400, rho, uint64(300+r)))
	}
	got := sum / float64(reps)
	if math.Abs(got-want) > 0.35 {
		t.Errorf("kernel MI = %v, want %v", got, want)
	}
}

func TestKernelMonotoneInCorrelation(t *testing.T) {
	lo := MultiInfoKernel(gaussianPair(400, 0.2, 61))
	hi := MultiInfoKernel(gaussianPair(400, 0.9, 62))
	if hi <= lo {
		t.Errorf("kernel MI not increasing in rho: %v vs %v", lo, hi)
	}
}

func TestKernelSingleVariableZero(t *testing.T) {
	if got := MultiInfoKernel(independentDataset(50, 1, 2, 63)); got != 0 {
		t.Errorf("single variable = %v", got)
	}
}

func TestKernelConstantDimensionDoesNotExplode(t *testing.T) {
	// A zero-variance dimension must not produce NaN/Inf (bandwidth is
	// floored).
	d := NewDataset(50, []int{1, 1})
	r := rand.New(rand.NewPCG(1, 1))
	for s := 0; s < 50; s++ {
		d.SetVar(s, 0, 3.0) // constant
		d.SetVar(s, 1, r.NormFloat64())
	}
	got := MultiInfoKernel(d)
	if math.IsNaN(got) || math.IsInf(got, 0) {
		t.Fatalf("kernel MI = %v on constant dimension", got)
	}
}

func TestLogSumExp(t *testing.T) {
	xs := []float64{math.Log(1), math.Log(2), math.Log(3)}
	if got := logSumExp(xs); math.Abs(got-math.Log(6)) > 1e-12 {
		t.Fatalf("logSumExp = %v, want ln 6", got)
	}
	// Extreme values must not overflow.
	if got := logSumExp([]float64{-1e308, -1e308}); math.IsNaN(got) {
		t.Fatal("logSumExp NaN on extreme input")
	}
	if got := logSumExp(nil); !math.IsInf(got, -1) {
		t.Fatalf("logSumExp(nil) = %v, want -Inf", got)
	}
	big := []float64{1000, 1000}
	if got := logSumExp(big); math.Abs(got-(1000+math.Ln2)) > 1e-9 {
		t.Fatalf("logSumExp overflow handling broken: %v", got)
	}
}

// --- binned estimator -------------------------------------------------------

func TestBinnedIndependentLowDim(t *testing.T) {
	// In low dimension with plenty of samples, both binned variants
	// should report small MI for independent variables.
	d := independentDataset(2000, 2, 1, 71)
	js := MultiInfoBinned(d, BinnedOptions{})
	ml := MultiInfoBinned(d, BinnedOptions{PlainML: true})
	if math.Abs(js) > 0.35 {
		t.Errorf("binned-js on independent = %v", js)
	}
	if math.Abs(ml) > 0.35 {
		t.Errorf("binned-ml on independent = %v", ml)
	}
}

// TestBinnedDeterministicAcrossCalls pins the determinism fix: the cell
// sums used to follow Go's randomised map iteration order, so repeated
// estimates on the same data differed at rounding level — which broke
// the sweep suite's bit-identical contract for the comparison table.
func TestBinnedDeterministicAcrossCalls(t *testing.T) {
	d := independentDataset(500, 4, 1, 17)
	for _, opt := range []BinnedOptions{{}, {PlainML: true}} {
		first := MultiInfoBinned(d, opt)
		for i := 0; i < 5; i++ {
			if got := MultiInfoBinned(d, opt); math.Float64bits(got) != math.Float64bits(first) {
				t.Fatalf("opt %+v: call %d = %v, first = %v (not bit-identical)", opt, i, got, first)
			}
		}
	}
}

func TestBinnedDetectsStrongDependence(t *testing.T) {
	d := gaussianPair(2000, 0.95, 73)
	got := MultiInfoBinned(d, BinnedOptions{PlainML: true})
	if got < 0.5 {
		t.Errorf("binned MI on rho=0.95 pair = %v, want clearly positive", got)
	}
}

func TestBinnedMLOverestimatesInHighDimension(t *testing.T) {
	// The paper's reported failure mode: in high dimension the sparse
	// joint histogram drives the ML multi-information far above truth
	// (here: truth = 0 for independent data).
	d := independentDataset(200, 8, 1, 79)
	got := MultiInfoBinned(d, BinnedOptions{PlainML: true})
	if got < 2 {
		t.Errorf("binned-ml on independent 8-dim data = %v, expected gross overestimate", got)
	}
}

func TestBinnedSingleVariableZero(t *testing.T) {
	if got := MultiInfoBinned(independentDataset(50, 1, 1, 81), BinnedOptions{}); got != 0 {
		t.Errorf("single variable = %v", got)
	}
}

func TestBinnedConstantData(t *testing.T) {
	d := NewDataset(20, []int{1, 1})
	for s := 0; s < 20; s++ {
		d.SetVar(s, 0, 1)
		d.SetVar(s, 1, 2)
	}
	got := MultiInfoBinned(d, BinnedOptions{})
	if math.IsNaN(got) || math.Abs(got) > 1e-9 {
		t.Fatalf("constant data MI = %v, want 0", got)
	}
}

func TestShrinkageEntropyUniformLimit(t *testing.T) {
	// With counts exactly uniform over the full alphabet the shrinkage
	// estimate equals the ML estimate equals log2 K.
	h := shrinkageEntropy([]int{5, 5, 5, 5}, 20, 4)
	if math.Abs(h-2) > 1e-9 {
		t.Fatalf("uniform shrinkage entropy = %v, want 2", h)
	}
}

func TestShrinkageEntropyPullsTowardUniform(t *testing.T) {
	// Shrinkage must raise the entropy estimate of a skewed empirical
	// distribution toward the uniform maximum.
	ml := EntropyFromCounts([]int{9, 1})
	js := shrinkageEntropy([]int{9, 1}, 10, 2)
	if js <= ml {
		t.Fatalf("shrinkage entropy %v not above ML %v", js, ml)
	}
	if js > 1 {
		t.Fatalf("shrinkage entropy %v exceeds log2 K", js)
	}
}

func TestShrinkageEntropySmallSampleFallback(t *testing.T) {
	if h := shrinkageEntropy([]int{1}, 1, 4); h != 0 {
		t.Fatalf("m=1 fallback entropy = %v", h)
	}
}

// --- decomposition ----------------------------------------------------------

func TestDecompositionNormalized(t *testing.T) {
	dec := Decomposition{Between: 2, Within: []float64{1, 1}}
	n := dec.Normalized()
	if math.Abs(n.Total()-1) > 1e-12 {
		t.Fatalf("normalized total = %v", n.Total())
	}
	if math.Abs(n.Between-0.5) > 1e-12 {
		t.Fatalf("normalized between = %v", n.Between)
	}
	zero := Decomposition{Within: []float64{0}}
	if z := zero.Normalized(); z.Between != 0 {
		t.Fatal("zero-total normalization changed values")
	}
}

func TestDecomposeSingletonGroupsAreZero(t *testing.T) {
	d := gaussianPair(200, 0.8, 91)
	dec := Decompose(d, [][]int{{0}, {1}}, KSGEstimator(4))
	if dec.Within[0] != 0 || dec.Within[1] != 0 {
		t.Fatal("singleton groups must have zero within-group MI")
	}
	// Between singleton groups the decomposition degenerates to the
	// total multi-information.
	total := MultiInfoKSGVariant(d, 4, KSG2)
	if math.Abs(dec.Between-total) > 1e-9 {
		t.Fatalf("between = %v, total = %v", dec.Between, total)
	}
}

func TestGroupsByLabel(t *testing.T) {
	groups := GroupsByLabel([]int{2, 0, 0, 2, 1})
	want := [][]int{{1, 2}, {4}, {0, 3}}
	if len(groups) != len(want) {
		t.Fatalf("groups = %v", groups)
	}
	for g := range want {
		if len(groups[g]) != len(want[g]) {
			t.Fatalf("groups = %v", groups)
		}
		for i := range want[g] {
			if groups[g][i] != want[g][i] {
				t.Fatalf("groups = %v", groups)
			}
		}
	}
}

// groupsByLabelDense is the original GroupsByLabel, which indexed a
// slice by label value: the reference GroupsByLabel must match on every
// non-negative input.
func groupsByLabelDense(labels []int) [][]int {
	maxLabel := -1
	for _, t := range labels {
		if t > maxLabel {
			maxLabel = t
		}
	}
	byLabel := make([][]int, maxLabel+1)
	for v, t := range labels {
		byLabel[t] = append(byLabel[t], v)
	}
	var out [][]int
	for _, g := range byLabel {
		if len(g) > 0 {
			out = append(out, g)
		}
	}
	return out
}

func TestGroupsByLabelMatchesDense(t *testing.T) {
	cases := [][]int{nil, {}, {0}, {5}, {2, 0, 0, 2, 1}, {0, 3}, {7, 7, 7}, {3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}}
	rng := rand.New(rand.NewPCG(1, 2))
	for range 200 {
		labels := make([]int, rng.IntN(17))
		maxLabel := 1 + rng.IntN(40)
		for i := range labels {
			labels[i] = rng.IntN(maxLabel)
		}
		cases = append(cases, labels)
	}
	for _, labels := range cases {
		if got, want := GroupsByLabel(labels), groupsByLabelDense(labels); !reflect.DeepEqual(got, want) {
			t.Fatalf("GroupsByLabel(%v) = %v, want %v", labels, got, want)
		}
	}
}

func TestGroupsByLabelLargeLabel(t *testing.T) {
	groups := GroupsByLabel([]int{1_000_000_000, 0, 1_000_000_000})
	if want := [][]int{{1}, {0, 2}}; !reflect.DeepEqual(groups, want) {
		t.Fatalf("groups = %v, want %v", groups, want)
	}
}

func TestGroupsByLabelSkipsEmptyLabels(t *testing.T) {
	groups := GroupsByLabel([]int{0, 3}) // labels 1, 2 unused
	if len(groups) != 2 {
		t.Fatalf("groups = %v", groups)
	}
}
