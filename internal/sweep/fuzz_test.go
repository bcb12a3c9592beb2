package sweep

import (
	"bytes"
	"encoding/gob"
	"math"
	"os"
	"testing"

	"repro/internal/experiment"
	"repro/internal/infotheory"
)

// FuzzReadRunFile drives the checkpoint decoder with arbitrary bytes as
// the run file, seeded from a real writeRunFile output. readRunFile must
// never panic, must hit exactly when the bytes decode to a record of the
// current version with the looked-up ID and fingerprint, and a hit must
// survive being written back byte for byte.
func FuzzReadRunFile(f *testing.F) {
	const id, fp = "fuzz-run", uint64(0x5eed)
	res := &experiment.Result{
		Name:                 "fuzz",
		Times:                []int{0, 10, 20},
		MI:                   []float64{0.5, 1.25, math.Inf(1)},
		MIStdErr:             []float64{0.01, 0.02, 0.03},
		Decomp:               []infotheory.Decomposition{{Between: 0.25, Within: []float64{0.1, 0.2}}},
		Entropies:            []infotheory.EntropyProfile{{Joint: -3, MarginalSum: 2}},
		Labels:               []int{0, 1, 1, 0},
		EquilibratedFraction: 0.75,
	}
	dir := f.TempDir()
	if err := writeRunFile(dir, id, fp, res); err != nil {
		f.Fatal(err)
	}
	seed, err := os.ReadFile(runFilePath(dir, id, fp))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(runFilePath(dir, id, fp), data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, ok := readRunFile(dir, id, fp)
		var rec runFile
		match := gob.NewDecoder(bytes.NewReader(data)).Decode(&rec) == nil &&
			rec.Version == runFileVersion && rec.ID == id && rec.Fingerprint == fp
		if ok != match {
			t.Fatalf("readRunFile hit = %v, want %v for a record %+v", ok, match, rec)
		}
		if !ok {
			if got != nil {
				t.Fatal("a miss returned a result")
			}
			return
		}
		// A hit is a result a checkpoint can hold: writing it back and
		// reading it again reproduces the same file.
		if err := writeRunFile(dir, id, fp, got); err != nil {
			t.Fatal(err)
		}
		first, err := os.ReadFile(runFilePath(dir, id, fp))
		if err != nil {
			t.Fatal(err)
		}
		back, ok := readRunFile(dir, id, fp)
		if !ok {
			t.Fatal("a rewritten hit no longer reads back")
		}
		if err := writeRunFile(dir, id, fp, back); err != nil {
			t.Fatal(err)
		}
		second, err := os.ReadFile(runFilePath(dir, id, fp))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatal("a hit does not survive a write/read round trip")
		}
	})
}
