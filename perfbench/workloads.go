package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"

	sops "repro"
	"repro/internal/experiment"
)

// workload is one named benchmark input: the spec the program receives
// for a master seed, and the ensemble work one call performs.
type workload struct {
	name string
	// scale is the ensemble size one call runs at.
	scale experiment.Scale
	// figure selects Session.Figure (a scenario sweep, digested as its
	// figure) over Session.Run (a single run, digested as its Result).
	figure bool
	// build returns the spec for a scale and master seed, validated.
	build func(sc experiment.Scale, seed uint64) (sops.Spec, error)
}

// fig8Types is the type-count range l = 1..10 of the fig8 scenario.
const fig8Types = 10

// samples is the number of ensemble samples one call simulates, aligns
// and estimates, over all its runs.
func (w workload) samples() int {
	if w.figure {
		return fig8Types * w.scale.Repeats * w.scale.M
	}
	return w.scale.M
}

// workloads are chosen so that each layer dominates one of them and is a
// minority on another: alignment on fig4-dense (51 recorded frames per
// sample), simulation on fig8-sweep (two recorded frames per sample, many
// small runs in flight through the sweep runner and its store), and
// estimation on fig11-decomp (large M, few recorded steps, the Eq. (5)
// decomposition on top of every joint estimate).
var workloads = []workload{
	{
		name:  "fig4-dense",
		scale: experiment.Scale{M: 128, Steps: 250, RecordEvery: 5},
		build: func(sc experiment.Scale, seed uint64) (sops.Spec, error) {
			return validated(sops.SpecFromPipeline(experiment.Fig4PipelineOf(sc, seed)))
		},
	},
	{
		name:   "fig8-sweep",
		scale:  experiment.Scale{M: 128, Steps: 250, Repeats: 4},
		figure: true,
		build: func(sc experiment.Scale, seed uint64) (sops.Spec, error) {
			return sops.NewSpec("fig8",
				sops.WithScenario("fig8"),
				sops.WithScale("test"),
				sops.WithSeed(seed),
				sops.WithEnsemble(sc.M, sc.Steps, 0),
				sops.WithRepeats(sc.Repeats))
		},
	},
	{
		name:  "fig11-decomp",
		scale: experiment.Scale{M: 1000, Steps: 100, RecordEvery: 50},
		build: func(sc experiment.Scale, seed uint64) (sops.Spec, error) {
			return validated(sops.SpecFromPipeline(experiment.Fig11PipelineOf(sc, seed)))
		},
	},
}

func validated(sp sops.Spec, err error) (sops.Spec, error) {
	if err != nil {
		return sp, err
	}
	return sp, sp.Validate()
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// digest is the SHA-256 of the bytes a workload's correctness rests on.
type digest struct {
	h      [sha256.Size]byte
	finite bool
}

func (d digest) String() string { return hex.EncodeToString(d.h[:]) }

// digester hashes integers and float bit patterns in a fixed order and
// notes whether every float is finite.
type digester struct {
	buf    []byte
	finite bool
}

func newDigester() *digester { return &digester{finite: true} }

func (g *digester) int(v int) { g.buf = binary.LittleEndian.AppendUint64(g.buf, uint64(int64(v))) }

func (g *digester) str(s string) {
	g.int(len(s))
	g.buf = append(g.buf, s...)
}

func (g *digester) floats(xs []float64) {
	g.int(len(xs))
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			g.finite = false
		}
		g.buf = binary.LittleEndian.AppendUint64(g.buf, math.Float64bits(x))
	}
}

func (g *digester) sum() digest { return digest{h: sha256.Sum256(g.buf), finite: g.finite} }

// resultDigest hashes the result bytes of a single run: its time grid, its
// multi-information curve and, when present, its decomposition.
func resultDigest(r *sops.Result) digest {
	g := newDigester()
	g.int(len(r.Times))
	for _, t := range r.Times {
		g.int(t)
	}
	g.floats(r.MI)
	g.int(len(r.Decomp))
	for _, d := range r.Decomp {
		g.floats([]float64{d.Between})
		g.floats(d.Within)
	}
	return g.sum()
}

// figureDigest hashes the series of a figure.
func figureDigest(fd *sops.FigureData) digest {
	g := newDigester()
	g.str(fd.ID)
	g.int(len(fd.Series))
	for _, s := range fd.Series {
		g.str(s.Name)
		g.floats(s.X)
		g.floats(s.Y)
	}
	return g.sum()
}

// checker decides whether a call's output is correct. At a spec seed with
// a recorded reference the digest must equal it; at any other seed every
// value must be finite and every call must reproduce the first digest of
// its seed, since the program is deterministic.
type checker struct {
	refs  map[string]string // spec seed → recorded reference digest
	first map[uint64]string
}

func newChecker(workload string) *checker {
	return &checker{refs: references[workload], first: make(map[uint64]string)}
}

func (c *checker) check(seed uint64, d digest) error {
	if !d.finite {
		return fmt.Errorf("seed %d: non-finite value in output (digest %s)", seed, d)
	}
	got := d.String()
	if want, ok := c.refs[fmt.Sprint(seed)]; ok && got != want {
		return fmt.Errorf("seed %d: digest %s, reference %s", seed, got, want)
	}
	if first, ok := c.first[seed]; !ok {
		c.first[seed] = got
	} else if got != first {
		return fmt.Errorf("seed %d: digest %s differs from the first call's %s", seed, got, first)
	}
	return nil
}
