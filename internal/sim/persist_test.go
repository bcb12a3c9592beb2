package sim

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"path/filepath"
	"testing"

	"repro/internal/forces"
	"repro/internal/vec"
)

func roundTripEnsemble(t *testing.T, ec EnsembleConfig) (*Ensemble, *Ensemble) {
	t.Helper()
	orig, err := RunEnsemble(ec)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadEnsemble(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return orig, back
}

func TestEnsembleRoundTripF1(t *testing.T) {
	orig, back := roundTripEnsemble(t, ensembleConfig(4, 20, 10, 0))
	if back.Cfg.M != orig.Cfg.M || back.Cfg.Seed != orig.Cfg.Seed {
		t.Fatal("ensemble parameters lost")
	}
	for s := range orig.Trajs {
		for f := range orig.Trajs[s].Frames {
			if orig.Trajs[s].Times[f] != back.Trajs[s].Times[f] {
				t.Fatal("times lost")
			}
			for i := range orig.Trajs[s].Frames[f] {
				if orig.Trajs[s].Frames[f][i] != back.Trajs[s].Frames[f][i] {
					t.Fatal("frames lost")
				}
			}
		}
	}
	// The rebuilt force must evaluate identically.
	for _, x := range []float64{0.5, 1, 3} {
		if orig.Cfg.Sim.Force.Eval(0, 1, x) != back.Cfg.Sim.Force.Eval(0, 1, x) {
			t.Fatal("force lost through serialisation")
		}
	}
}

func TestEnsembleRoundTripF2AndInfiniteCutoff(t *testing.T) {
	ec := ensembleConfig(2, 10, 5, 0)
	ec.Sim.Force = forces.MustF2(
		forces.ConstantMatrix(2, 3),
		forces.ConstantMatrix(2, 1),
		forces.MustMatrix([][]float64{{2, 4}, {4, 6}}),
	)
	ec.Sim.Cutoff = math.Inf(1)
	orig, back := roundTripEnsemble(t, ec)
	if !math.IsInf(back.Cfg.Sim.Cutoff, 1) {
		t.Fatal("infinite cut-off lost")
	}
	if back.Cfg.Sim.Force.Name() != "F2" {
		t.Fatal("force family lost")
	}
	if orig.Cfg.Sim.Force.Eval(0, 1, 2.5) != back.Cfg.Sim.Force.Eval(0, 1, 2.5) {
		t.Fatal("F2 parameters lost")
	}
}

func TestEnsembleSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ens.gob")
	orig, err := RunEnsemble(ensembleConfig(3, 10, 5, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveEnsemble(path, orig); err != nil {
		t.Fatal(err)
	}
	back, err := LoadEnsemble(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Trajs) != len(orig.Trajs) {
		t.Fatal("trajectories lost")
	}
	// A loaded ensemble must be usable by downstream consumers.
	if frames := back.FramesAt(0); len(frames) != 3 {
		t.Fatal("FramesAt broken after load")
	}
}

func TestReadEnsembleRejectsGarbage(t *testing.T) {
	if _, err := ReadEnsemble(bytes.NewReader([]byte("not a gob stream"))); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestForceSpecRoundTrip(t *testing.T) {
	f1 := forces.MustF1(forces.ConstantMatrix(3, 2), forces.MustMatrix([][]float64{
		{1, 2, 3}, {2, 4, 5}, {3, 5, 6},
	}))
	spec, err := forces.ToSpec(f1)
	if err != nil {
		t.Fatal(err)
	}
	back, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < 3; a++ {
		for b := 0; b < 3; b++ {
			if f1.Eval(a, b, 1.7) != back.Eval(a, b, 1.7) {
				t.Fatal("spec round trip changed F1")
			}
		}
	}
	if _, err := (forces.Spec{Family: "F9"}).Build(); err == nil {
		t.Error("unknown family accepted")
	}
	if _, err := (forces.Spec{Family: "F1", K: [][]float64{{1, 2}, {3, 4}}}).Build(); err == nil {
		t.Error("asymmetric spec accepted")
	}
}

// smallEnsembleFile returns a consistent file: N=3 particles of two
// types, M=2 samples of two recorded frames each.
func smallEnsembleFile(t testing.TB) ensembleFile {
	t.Helper()
	spec, err := forces.ToSpec(forces.MustF1(forces.ConstantMatrix(2, 1), forces.ConstantMatrix(2, 2)))
	if err != nil {
		t.Fatal(err)
	}
	frame := func(x float64) []vec.Vec2 { return []vec.Vec2{{X: x}, {X: x + 1}, {Y: x}} }
	traj := func(x float64) Trajectory {
		return Trajectory{Times: []int{0, 5}, Frames: [][]vec.Vec2{frame(x), frame(x + 2)}}
	}
	return ensembleFile{
		Version: ensembleFileVersion,
		N:       3,
		Types:   []int{0, 1, 0},
		Force:   spec,
		Cutoff:  5,
		Dt:      0.01,
		M:       2,
		Steps:   5,
		Trajs:   []Trajectory{traj(0), traj(10)},

		Equilibrated: []bool{true, false},
	}
}

func encodeEnsembleFile(t testing.TB, f ensembleFile) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(f); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReadEnsembleRejectsBadShapes: every shape inconsistency the frame
// readers would trip over is rejected with an *EnsembleFileError.
func TestReadEnsembleRejectsBadShapes(t *testing.T) {
	if _, err := ReadEnsemble(bytes.NewReader(encodeEnsembleFile(t, smallEnsembleFile(t)))); err != nil {
		t.Fatalf("consistent file rejected: %v", err)
	}
	for name, breakIt := range map[string]func(f *ensembleFile){
		"zero N":            func(f *ensembleFile) { f.N, f.Types = 0, nil },
		"negative N":        func(f *ensembleFile) { f.N = -1 },
		"types short":       func(f *ensembleFile) { f.Types = f.Types[:2] },
		"type out of range": func(f *ensembleFile) { f.Types[1] = 2 },
		"M above trajs":     func(f *ensembleFile) { f.M = 3 },
		"flags short":       func(f *ensembleFile) { f.Equilibrated = f.Equilibrated[:1] },
		"times short":       func(f *ensembleFile) { f.Trajs[1].Times = f.Trajs[1].Times[:1] },
		"ragged samples": func(f *ensembleFile) {
			f.Trajs[1].Times, f.Trajs[1].Frames = f.Trajs[1].Times[:1], f.Trajs[1].Frames[:1]
		},
		"short frame":         func(f *ensembleFile) { f.Trajs[1].Frames[1] = f.Trajs[1].Frames[1][:2] },
		"long frame":          func(f *ensembleFile) { f.Trajs[0].Frames[0] = append(f.Trajs[0].Frames[0], vec.Vec2{}) },
		"no frames in sample": func(f *ensembleFile) { f.Trajs[0] = Trajectory{} },
	} {
		f := smallEnsembleFile(t)
		breakIt(&f)
		_, err := ReadEnsemble(bytes.NewReader(encodeEnsembleFile(t, f)))
		var fe *EnsembleFileError
		if !errors.As(err, &fe) {
			t.Errorf("%s: got %v, want an *EnsembleFileError", name, err)
		}
	}
}

// FuzzReadEnsemble: any bytes give an error or an ensemble whose every
// recorded step can be collected with FramesAt, each frame holding N
// positions.
func FuzzReadEnsemble(f *testing.F) {
	good := smallEnsembleFile(f)
	f.Add(encodeEnsembleFile(f, good))
	short := smallEnsembleFile(f)
	short.Trajs[1].Frames[1] = short.Trajs[1].Frames[1][:1]
	f.Add(encodeEnsembleFile(f, short))
	ragged := smallEnsembleFile(f)
	ragged.Trajs[0].Times = ragged.Trajs[0].Times[:1]
	ragged.Trajs[0].Frames = ragged.Trajs[0].Frames[:1]
	f.Add(encodeEnsembleFile(f, ragged))
	f.Add([]byte("not a gob stream"))
	f.Fuzz(func(t *testing.T, data []byte) {
		ens, err := ReadEnsemble(bytes.NewReader(data))
		if err != nil {
			return
		}
		n := ens.Cfg.Sim.N
		if len(ens.Types) != n {
			t.Fatalf("accepted %d types for N=%d", len(ens.Types), n)
		}
		for step := range ens.Times() {
			for s, frame := range ens.FramesAt(step) {
				if len(frame) != n {
					t.Fatalf("step %d sample %d: %d positions for N=%d", step, s, len(frame), n)
				}
			}
		}
	})
}
