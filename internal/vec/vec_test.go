package vec

import (
	"math"
	"math/rand/v2"
	"testing"
)

const eps = 1e-12

func approx(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Max(math.Abs(a), math.Abs(b)))
}

func vecApprox(a, b Vec2, tol float64) bool {
	return approx(a.X, b.X, tol) && approx(a.Y, b.Y, tol)
}

// smallVec generates bounded random vectors for property tests (quick's
// default generator produces astronomically large floats that defeat
// floating-point tolerance reasoning).
func smallVec(r *rand.Rand) Vec2 {
	return Vec2{r.Float64()*20 - 10, r.Float64()*20 - 10}
}

func TestAddSubInverse(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 500; i++ {
		a, b := smallVec(r), smallVec(r)
		if got := a.Add(b).Sub(b); !vecApprox(got, a, eps) {
			t.Fatalf("(%v+%v)-%v = %v, want %v", a, b, b, got, a)
		}
	}
}

func TestScaleDistributesOverAdd(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 4))
	for i := 0; i < 500; i++ {
		a, b := smallVec(r), smallVec(r)
		s := r.Float64()*4 - 2
		lhs := a.Add(b).Scale(s)
		rhs := a.Scale(s).Add(b.Scale(s))
		if !vecApprox(lhs, rhs, 1e-10) {
			t.Fatalf("s(a+b)=%v != sa+sb=%v", lhs, rhs)
		}
	}
}

func TestDotSymmetric(t *testing.T) {
	r := rand.New(rand.NewPCG(5, 6))
	for i := 0; i < 500; i++ {
		a, b := smallVec(r), smallVec(r)
		if !approx(a.Dot(b), b.Dot(a), eps) {
			t.Fatalf("dot not symmetric: %v vs %v", a.Dot(b), b.Dot(a))
		}
	}
}

func TestCrossAntisymmetric(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 8))
	for i := 0; i < 500; i++ {
		a, b := smallVec(r), smallVec(r)
		if !approx(a.Cross(b), -b.Cross(a), eps) {
			t.Fatalf("cross not antisymmetric")
		}
	}
}

func TestNormMatchesDot(t *testing.T) {
	r := rand.New(rand.NewPCG(9, 10))
	for i := 0; i < 500; i++ {
		a := smallVec(r)
		if !approx(a.Norm2(), a.Dot(a), eps) {
			t.Fatalf("Norm2 != Dot self")
		}
		if !approx(a.Norm()*a.Norm(), a.Norm2(), 1e-10) {
			t.Fatalf("Norm^2 != Norm2")
		}
	}
}

func TestRotatePreservesNorm(t *testing.T) {
	r := rand.New(rand.NewPCG(11, 12))
	for i := 0; i < 500; i++ {
		a := smallVec(r)
		theta := r.Float64() * 2 * math.Pi
		if !approx(a.Rotate(theta).Norm(), a.Norm(), 1e-10) {
			t.Fatalf("rotation changed norm")
		}
	}
}

func TestRotatePreservesInnerProduct(t *testing.T) {
	r := rand.New(rand.NewPCG(13, 14))
	for i := 0; i < 500; i++ {
		a, b := smallVec(r), smallVec(r)
		theta := r.Float64() * 2 * math.Pi
		lhs := a.Rotate(theta).Dot(b.Rotate(theta))
		if !approx(lhs, a.Dot(b), 1e-9) {
			t.Fatalf("rotation changed inner product: %v vs %v", lhs, a.Dot(b))
		}
	}
}

func TestRotateComposes(t *testing.T) {
	r := rand.New(rand.NewPCG(15, 16))
	for i := 0; i < 500; i++ {
		a := smallVec(r)
		t1 := r.Float64() * math.Pi
		t2 := r.Float64() * math.Pi
		if !vecApprox(a.Rotate(t1).Rotate(t2), a.Rotate(t1+t2), 1e-9) {
			t.Fatalf("rotations do not compose")
		}
	}
}

func TestRotateQuarterTurn(t *testing.T) {
	got := Vec2{1, 0}.Rotate(math.Pi / 2)
	if !vecApprox(got, Vec2{0, 1}, 1e-12) {
		t.Fatalf("quarter turn of e_x = %v, want (0,1)", got)
	}
}

func TestNormalize(t *testing.T) {
	if got := (Vec2{3, 4}).Normalize(); !vecApprox(got, Vec2{0.6, 0.8}, eps) {
		t.Fatalf("Normalize(3,4) = %v", got)
	}
	if got := (Vec2{}).Normalize(); got != (Vec2{}) {
		t.Fatalf("Normalize(0) = %v, want zero vector", got)
	}
}

func TestLerpEndpoints(t *testing.T) {
	a, b := Vec2{1, 2}, Vec2{-3, 5}
	if got := a.Lerp(b, 0); got != a {
		t.Fatalf("Lerp(0) = %v", got)
	}
	if got := a.Lerp(b, 1); !vecApprox(got, b, eps) {
		t.Fatalf("Lerp(1) = %v", got)
	}
	mid := a.Lerp(b, 0.5)
	if !vecApprox(mid, Vec2{-1, 3.5}, eps) {
		t.Fatalf("Lerp(0.5) = %v", mid)
	}
}

func TestAngle(t *testing.T) {
	cases := []struct {
		v    Vec2
		want float64
	}{
		{Vec2{1, 0}, 0},
		{Vec2{0, 1}, math.Pi / 2},
		{Vec2{-1, 0}, math.Pi},
		{Vec2{0, -1}, -math.Pi / 2},
	}
	for _, c := range cases {
		if got := c.v.Angle(); !approx(got, c.want, 1e-12) && !(c.want == math.Pi && approx(math.Abs(got), math.Pi, 1e-12)) {
			t.Errorf("Angle(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestIsFinite(t *testing.T) {
	if !(Vec2{1, 2}).IsFinite() {
		t.Error("finite vector reported non-finite")
	}
	if (Vec2{math.NaN(), 0}).IsFinite() {
		t.Error("NaN vector reported finite")
	}
	if (Vec2{0, math.Inf(1)}).IsFinite() {
		t.Error("Inf vector reported finite")
	}
}

func TestCentroidAndCenter(t *testing.T) {
	pts := []Vec2{{0, 0}, {2, 0}, {0, 2}, {2, 2}}
	c := Centroid(pts)
	if !vecApprox(c, Vec2{1, 1}, eps) {
		t.Fatalf("centroid = %v, want (1,1)", c)
	}
	removed := Center(pts)
	if !vecApprox(removed, Vec2{1, 1}, eps) {
		t.Fatalf("Center returned %v", removed)
	}
	if got := Centroid(pts); !vecApprox(got, Vec2{}, eps) {
		t.Fatalf("centroid after centering = %v", got)
	}
}

func TestCentroidEmpty(t *testing.T) {
	if got := Centroid(nil); got != (Vec2{}) {
		t.Fatalf("Centroid(nil) = %v", got)
	}
}

func TestCenterIsIdempotent(t *testing.T) {
	r := rand.New(rand.NewPCG(17, 18))
	pts := make([]Vec2, 20)
	for i := range pts {
		pts[i] = smallVec(r)
	}
	Center(pts)
	second := Center(pts)
	if second.Norm() > 1e-10 {
		t.Fatalf("second centering removed %v, want ~0", second)
	}
}

func TestBoundingBox(t *testing.T) {
	pts := []Vec2{{1, 5}, {-2, 3}, {4, -1}}
	min, max := BoundingBox(pts)
	if min != (Vec2{-2, -1}) || max != (Vec2{4, 5}) {
		t.Fatalf("bbox = %v %v", min, max)
	}
}

func TestTriangleInequality(t *testing.T) {
	r := rand.New(rand.NewPCG(19, 20))
	for i := 0; i < 500; i++ {
		a, b, c := smallVec(r), smallVec(r), smallVec(r)
		if a.Dist(c) > a.Dist(b)+b.Dist(c)+1e-12 {
			t.Fatalf("triangle inequality violated")
		}
	}
}
