package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"repro/internal/forces"
	"repro/internal/rngx"
	"repro/internal/vec"
)

// clusteredPositions places n particles in clusters of about 25 whose
// centres are uniform on a square of side spread; each cluster is a disc
// of radius 4, so particles inside a cluster interact at rc = 2 while the
// collective's bounding box spans many cut-off lengths.
func clusteredPositions(n int, spread float64, rng rngx.Source) []vec.Vec2 {
	k := max(2, n/25)
	centres := make([]vec.Vec2, k)
	for c := range centres {
		centres[c] = vec.Vec2{X: rng.UniformIn(-spread/2, spread/2), Y: rng.UniformIn(-spread/2, spread/2)}
	}
	pos := make([]vec.Vec2, n)
	for i := range pos {
		x, y := rng.UniformDisc(4)
		pos[i] = centres[i%k].Add(vec.Vec2{X: x, Y: y})
	}
	return pos
}

func positionsDigest(pos []vec.Vec2) string {
	h := sha256.New()
	var buf [16]byte
	for _, p := range pos {
		binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(p.X))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(p.Y))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// The spread-out regime: clustered collectives whose bounding box would
// need far more cut-off cells than there are particles. The digests pin
// the final positions after 60 steps bit for bit; they were computed
// with the map-backed cell list that served this regime before the one
// wrap-around grid replaced it.
func TestSparseRegimeGoldenDigests(t *testing.T) {
	want := map[string]string{
		"n=50/spread=1e+03":   "3490943d2f2bd92bb60c5d94d5b4041807c9c82bdf5a52f77797ce2e03679905",
		"n=50/spread=1e+05":   "98f0dc6257ae4bfbe4a4c9c730efbf5acfc29cf3451b6dc77600d39e2bf6191b",
		"n=50/spread=1e+07":   "2630adf0731b5229a0fbee20222e1c729139a8273bc08dd1076534f6972427a3",
		"n=200/spread=1e+03":  "70423778f5158234987b039f11268ca4d03ab7ff4fead882d4fed0e87a380370",
		"n=200/spread=1e+05":  "b41a6c31e3423b1441757dda1ac140b7643aa05d90dd0a82a3b33bfe27ca4959",
		"n=200/spread=1e+07":  "9d42ae98d8cc014dbb2ab368ea0ffaf2b0b3c8b1bda75764be40f4b1db867ed0",
		"n=1000/spread=1e+03": "ba806caa32a84e0e849b5060e355173ef9cc3f1af1f35707ba24352795b31bd0",
		"n=1000/spread=1e+05": "b2317b6d663947ae8989af2cdd05d5b84075286480c1a57a73672dff7418037e",
		"n=1000/spread=1e+07": "60bd3fcc9b381786b66b191d55fe9637ee972c1735e674d51d49006b1c741242",
	}
	for _, n := range []int{50, 200, 1000} {
		for _, spread := range []float64{1e3, 1e5, 1e7} {
			name := fmt.Sprintf("n=%d/spread=%.0e", n, spread)
			t.Run(name, func(t *testing.T) {
				cfg := Config{
					N: n,
					Force: forces.MustF1(
						forces.MustMatrix([][]float64{{1, 2, 0.5}, {2, 1.5, 1}, {0.5, 1, 3}}),
						forces.MustMatrix([][]float64{{1, 1.5, 1.2}, {1.5, 1, 1.8}, {1.2, 1.8, 1.4}})),
					Cutoff: 2,
				}
				pos := clusteredPositions(n, spread, rngx.New(uint64(n)))
				sys, err := NewFromPositions(cfg, pos, rngx.New(uint64(n)+1))
				if err != nil {
					t.Fatal(err)
				}
				sys.Run(60)
				if got := positionsDigest(sys.Positions()); got != want[name] {
					t.Errorf("final-position digest %s, want %s", got, want[name])
				}
			})
		}
	}
}

// Step must not panic when a particle sits at a non-finite or huge
// coordinate: the grid's cell indices stay in range for every float.
func TestStepNonFiniteCoordinateNoPanic(t *testing.T) {
	cfg := Config{
		N:      64,
		Force:  forces.MustF1(forces.ConstantMatrix(2, 1), forces.ConstantMatrix(2, 1.5)),
		Cutoff: 2,
	}
	for _, spread := range []float64{20, 1e5} {
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e300, -1e300} {
			for _, at := range []struct {
				name string
				set  func(pos []vec.Vec2)
			}{
				{"first.X", func(pos []vec.Vec2) { pos[0].X = bad }},
				{"middle.Y", func(pos []vec.Vec2) { pos[len(pos)/2].Y = bad }},
			} {
				t.Run(fmt.Sprintf("spread=%g/%g/%s", spread, bad, at.name), func(t *testing.T) {
					rng := rngx.New(5)
					pos := make([]vec.Vec2, cfg.N)
					for i := range pos {
						x, y := rng.UniformDisc(spread)
						pos[i] = vec.Vec2{X: x, Y: y}
					}
					at.set(pos)
					sys, err := NewFromPositions(cfg, pos, rngx.New(6))
					if err != nil {
						t.Fatal(err)
					}
					sys.Run(5)
				})
			}
		}
	}
}
