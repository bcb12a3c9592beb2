package main

import (
	"bytes"
	"math"
	"testing"
)

// FuzzReadNumericCSV drives the CSV reader and the dataset builder with
// arbitrary bytes and -dims strings, as the CLI does: neither may panic,
// and every value the reader accepts must be finite.
func FuzzReadNumericCSV(f *testing.F) {
	f.Add([]byte(sixByTwo), "")
	f.Add([]byte(sixByTwo), "0,2")
	f.Add([]byte(sixByTwo), "-1,3")
	f.Add([]byte("1,2,3,4\n5,6,7,8\n"), "2,2")
	f.Add([]byte("x,y\n1,NaN\n"), "")
	f.Add([]byte("1,\"2\n3\"\n"), "1,1")
	f.Add([]byte{}, "")

	f.Fuzz(func(t *testing.T, data []byte, dims string) {
		rows, err := parseNumericCSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		for ri, row := range rows {
			for ci, v := range row {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("accepted non-finite value %v at row %d, column %d", v, ri, ci)
				}
			}
		}
		if len(rows) == 0 {
			return // the CLI reports "no data rows" before building
		}
		ds, err := buildDataset(rows, dims)
		if err != nil {
			return
		}
		if ds.NumSamples() != len(rows) || ds.TotalDim() != len(rows[0]) {
			t.Fatalf("dataset %d×%d from %d rows of %d columns", ds.NumSamples(), ds.TotalDim(), len(rows), len(rows[0]))
		}
	})
}
