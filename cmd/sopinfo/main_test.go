package main

import (
	"repro/internal/experiment"

	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

func writeTemp(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "data.csv")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestReadNumericCSVSkipsHeader(t *testing.T) {
	path := writeTemp(t, "x,y\n1,2\n3,4\n")
	rows, err := readNumericCSV(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0][0] != 1 || rows[1][1] != 4 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestReadNumericCSVNoHeader(t *testing.T) {
	path := writeTemp(t, "1,2\n3,4\n")
	rows, err := readNumericCSV(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestReadNumericCSVRejectsMidFileGarbage(t *testing.T) {
	path := writeTemp(t, "1,2\nfoo,4\n")
	if _, err := readNumericCSV(path); err == nil {
		t.Fatal("garbage row accepted")
	}
}

func TestReadNumericCSVMissingFile(t *testing.T) {
	if _, err := readNumericCSV(filepath.Join(t.TempDir(), "nope.csv")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestBuildDatasetDefaultDims(t *testing.T) {
	rows := [][]float64{{1, 2, 3}, {4, 5, 6}}
	ds, err := buildDataset(rows, "")
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumVars() != 3 || ds.NumSamples() != 2 || ds.Dim(0) != 1 {
		t.Fatalf("dataset shape wrong: vars=%d samples=%d", ds.NumVars(), ds.NumSamples())
	}
	if ds.Var(1, 2)[0] != 6 {
		t.Fatal("values misplaced")
	}
}

func TestBuildDatasetExplicitDims(t *testing.T) {
	rows := [][]float64{{1, 2, 3, 4}, {5, 6, 7, 8}}
	ds, err := buildDataset(rows, "2,2")
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumVars() != 2 || ds.Dim(0) != 2 {
		t.Fatal("dims not applied")
	}
	v := ds.Var(0, 1)
	if v[0] != 3 || v[1] != 4 {
		t.Fatalf("Var(0,1) = %v", v)
	}
}

func TestBuildDatasetDimsMismatch(t *testing.T) {
	rows := [][]float64{{1, 2, 3}}
	if _, err := buildDataset(rows, "2,2"); err == nil {
		t.Fatal("dims/columns mismatch accepted")
	}
}

func TestBuildDatasetRaggedRows(t *testing.T) {
	rows := [][]float64{{1, 2}, {3}}
	if _, err := buildDataset(rows, ""); err == nil {
		t.Fatal("ragged rows accepted")
	}
}

func TestParseInts(t *testing.T) {
	got, err := parseInts("1, 2,3")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("parseInts = %v", got)
	}
	if _, err := parseInts("1,x"); err == nil {
		t.Fatal("bad integer accepted")
	}
}

// TestValidateKSGKTinyCSV is the regression test for the -k panic: a CSV
// with fewer data rows than k used to crash inside the estimator
// ("infotheory: KSG needs 1 <= k < m", ksg.go); it must be a clean error
// covering the headline estimate and the decomposition (same m rows).
func TestValidateKSGKTinyCSV(t *testing.T) {
	path := writeTemp(t, "x,y\n1,2\n3,4\n5,6\n")
	rows, err := readNumericCSV(path)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := buildDataset(rows, "")
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumSamples() != 3 {
		t.Fatalf("samples = %d", ds.NumSamples())
	}
	for _, est := range []experiment.EstimatorKind{experiment.EstKSG2, experiment.EstKSG1, experiment.EstKSGPaper} {
		if err := validateKSGK(est, 4, ds.NumSamples()); err == nil {
			t.Fatalf("%s: default k=4 on 3 samples accepted", est)
		}
		if err := validateKSGK(est, 3, ds.NumSamples()); err == nil {
			t.Fatalf("%s: k == samples accepted", est)
		}
		if err := validateKSGK(est, 0, ds.NumSamples()); err == nil {
			t.Fatalf("%s: k=0 accepted", est)
		}
		if err := validateKSGK(est, 2, ds.NumSamples()); err != nil {
			t.Fatalf("%s: valid k rejected: %v", est, err)
		}
	}
	// The non-kNN estimators ignore k entirely.
	for _, est := range []experiment.EstimatorKind{experiment.EstKernel, experiment.EstBinned} {
		if err := validateKSGK(est, 99, ds.NumSamples()); err != nil {
			t.Fatalf("%s: k should be ignored: %v", est, err)
		}
	}
}

func TestEndToEndEstimateOnGeneratedData(t *testing.T) {
	// Strongly dependent pair through the full CSV path.
	content := "x,y\n"
	for i := 0; i < 300; i++ {
		x := math.Sin(float64(i) * 12.9898)
		x = x - math.Floor(x) // crude deterministic pseudo-noise in [0,1)
		content += formatRow(x, x*2+0.001*float64(i%7))
	}
	path := writeTemp(t, content)
	rows, err := readNumericCSV(path)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := buildDataset(rows, "")
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumSamples() != 300 || ds.NumVars() != 2 {
		t.Fatal("dataset shape wrong")
	}
}

func formatRow(x, y float64) string {
	return strconv.FormatFloat(x, 'g', -1, 64) + "," + strconv.FormatFloat(y, 'g', -1, 64) + "\n"
}

// sixByTwo is a 6-row, 2-column CSV: two 1-D variables.
const sixByTwo = "x,y\n1,2\n3,1\n2,5\n4,4\n6,3\n5,6\n"

// TestBuildDatasetRejectsNonPositiveDims is the regression test for the
// -dims panic: a zero or negative dimension whose sum still matched the
// column count used to crash in infotheory.NewDataset.
func TestBuildDatasetRejectsNonPositiveDims(t *testing.T) {
	rows, err := readNumericCSV(writeTemp(t, sixByTwo))
	if err != nil {
		t.Fatal(err)
	}
	for _, dims := range []string{"0,2", "-1,3", "3,-1"} {
		if _, err := buildDataset(rows, dims); err == nil || !strings.Contains(err.Error(), "dimension") {
			t.Errorf("-dims %s: err = %v, want a dimension error", dims, err)
		}
	}
}

// TestParseGroups pins the -groups checks: a negative label used to
// index out of range in GroupsByLabel, and a huge one used to allocate
// a slice as long as the label.
func TestParseGroups(t *testing.T) {
	if _, err := parseGroups("-1,0", 2); err == nil || !strings.Contains(err.Error(), "negative") {
		t.Errorf("-groups -1,0: err = %v, want a negative-label error", err)
	}
	if _, err := parseGroups("0,0,1", 2); err == nil {
		t.Error("3 labels for 2 variables accepted")
	}
	gs, err := parseGroups("1000000000,0", 2)
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]int{{1}, {0}}; !reflect.DeepEqual(gs, want) {
		t.Errorf("-groups 1000000000,0 = %v, want %v", gs, want)
	}
}

// TestReadNumericCSVRejectsNonFinite: NaN and ±Inf cells used to be
// accepted, and the estimators then printed plausible numbers or NaN.
func TestReadNumericCSVRejectsNonFinite(t *testing.T) {
	for _, cell := range []string{"NaN", "Inf", "-inf", "+Infinity"} {
		_, err := readNumericCSV(writeTemp(t, "x,y\n1,2\n3,"+cell+"\n"))
		if err == nil || !strings.Contains(err.Error(), "row 3, column 2") {
			t.Errorf("cell %s: err = %v, want a non-finite error naming row 3, column 2", cell, err)
		}
	}
}
