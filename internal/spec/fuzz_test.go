package spec

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzParse drives the spec decoder with arbitrary bytes, seeded from the
// golden specs. Parse must never panic, and every spec it accepts must
// survive MarshalIndent → Parse with the same fingerprint: the
// -dump-spec output of an accepted spec names the same experiment.
func FuzzParse(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := Parse(data, "fuzz")
		if err != nil {
			return
		}
		b, err := sp.MarshalIndent()
		if err != nil {
			t.Fatalf("accepted spec does not marshal: %v", err)
		}
		back, err := Parse(b, "round-trip")
		if err != nil {
			t.Fatalf("accepted spec does not parse back: %v\n%s", err, b)
		}
		fp, err := sp.Fingerprint()
		fpBack, errBack := back.Fingerprint()
		if (err == nil) != (errBack == nil) || fp != fpBack {
			t.Fatalf("fingerprint changed over the round trip: %016x (%v) → %016x (%v)\n%s", fp, err, fpBack, errBack, b)
		}
	})
}
