// Command sopinfo estimates multi-information from a CSV dataset, making
// the repository's estimators usable on external data (any discrete-time
// system with vector observer variables, per Sec. 7 of the paper).
//
// Input format: one sample per row; columns are grouped into variables with
// -dims, e.g. -dims 2,2,2 reads three 2-dimensional variables from six
// columns. A header row is skipped automatically if non-numeric; NaN and
// Inf cells are rejected.
//
// Usage:
//
//	sopinfo [-est ksg2|ksg1|ksg-paper|kernel|binned] [-k 4] [-bins 8]
//	        [-tier exact|approx] [-subsample r] [-seed 1]
//	        [-dims 1,1,...] [-workers 1] file.csv
//
// With -groups the per-group decomposition (Eq. 5) is printed as well,
// e.g. -groups 0,0,1,1 assigns the first two variables to group 0.
//
// -tier approx evaluates the KSG sum at -subsample deterministically
// drawn rows (neighbour counts still over all rows) and prints the
// estimate with its 95% confidence interval; -seed keys the draw.
//
// Estimation runs on the shared tree engine; -workers partitions the
// samples of each estimate across that many goroutines (useful for large
// CSVs — the result is bit-identical for every setting).
//
// The estimation stage is declarative: `-spec file.json` reads the
// estimator block (kind, k, bins, workers) of a sops.Spec — the same spec
// the other commands produce — and `-dump-spec` prints the resolved block
// as a spec file, so an estimator configuration travels between the
// simulation CLIs and external-data analysis unchanged.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	sops "repro"
	"repro/internal/experiment"
	"repro/internal/infotheory"
)

func main() {
	var (
		est       = flag.String("est", "ksg2", "estimator: ksg2, ksg1, ksg-paper, kernel, binned")
		k         = flag.Int("k", 4, "k-NN parameter for the KSG estimators")
		bins      = flag.Int("bins", 8, "bins per dimension for the binned estimator")
		tier      = flag.String("tier", "", "estimator tier: exact (default) or approx (subsampled KSG with error bars)")
		subsample = flag.Int("subsample", 0, "approximate tier's evaluation budget r (1 <= r <= samples)")
		seed      = flag.Uint64("seed", 1, "seed of the approximate tier's deterministic subsample draw")
		dims      = flag.String("dims", "", "comma-separated variable dimensions (default: every column is a 1-D variable)")
		groups    = flag.String("groups", "", "comma-separated group label per variable; prints the Eq. (5) decomposition")
		workers   = flag.Int("workers", 1, "sample-parallel goroutines per estimate (results are identical for every setting)")
		specFile  = flag.String("spec", "", "read the estimator block (kind/k/bins/workers) from a spec JSON file")
		dumpSpec  = flag.Bool("dump-spec", false, "print the resolved estimator spec JSON and exit")
	)
	flag.Parse()

	esp := &sops.SpecEstimator{Kind: *est, K: *k, Bins: *bins, Tier: *tier, Subsample: *subsample, SampleWorkers: *workers}
	if *specFile != "" {
		sp, err := sops.LoadSpec(*specFile)
		if err != nil {
			fatal(err)
		}
		if sp.Estimator == nil {
			fatal(fmt.Errorf("spec %s has no estimator block", *specFile))
		}
		// Same resolution policy as the sibling CLIs: the file is
		// authoritative, the flags fill what it leaves open — never
		// silently ignored.
		esp = sp.Estimator
		if esp.Kind == "" {
			esp.Kind = *est
		}
		if esp.K == 0 {
			esp.K = *k
		}
		if esp.Bins == 0 {
			esp.Bins = *bins
		}
		if esp.Tier == "" {
			esp.Tier = *tier
		}
		if esp.Subsample == 0 {
			esp.Subsample = *subsample
		}
		if esp.SampleWorkers == 0 {
			esp.SampleWorkers = *workers
		}
	}
	if *dumpSpec {
		sp := sops.Spec{Version: sops.SpecVersion, Name: "sopinfo", Estimator: esp}
		if err := sp.Validate(); err != nil {
			fatal(err)
		}
		b, err := sp.MarshalIndent()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(b)
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: sopinfo [flags] file.csv")
		flag.PrintDefaults()
		os.Exit(2)
	}
	rows, err := readNumericCSV(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	if len(rows) == 0 {
		fatal(fmt.Errorf("no data rows in %s", flag.Arg(0)))
	}
	ds, err := buildDataset(rows, *dims)
	if err != nil {
		fatal(err)
	}
	var gs [][]int
	if *groups != "" {
		if gs, err = parseGroups(*groups, ds.NumVars()); err != nil {
			fatal(err)
		}
	}
	kind := experiment.EstimatorKind(esp.Kind)
	if err := validateKSGK(kind, esp.K, ds.NumSamples()); err != nil {
		fatal(err)
	}

	// One engine serves the whole run (the headline estimate, and every
	// term of the decomposition below): its k-d trees and scratch stores
	// are recycled call to call. An unknown kind surfaces as the typed
	// experiment.UnknownEstimatorError, which lists the valid kinds.
	engine := infotheory.NewEngine(esp.SampleWorkers)
	estimator, err := experiment.NewEstimator(kind, esp.K, esp.Bins, engine)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("samples: %d, variables: %d (total dimension %d)\n",
		ds.NumSamples(), ds.NumVars(), ds.TotalDim())
	switch sops.EstimatorTier(esp.Tier) {
	case "", sops.TierExact:
		if esp.Subsample != 0 {
			fatal(fmt.Errorf("-subsample needs -tier approx"))
		}
		fmt.Printf("multi-information (%s): %.4f bits\n", esp.Kind, estimator(ds))
	case sops.TierApprox:
		variant, ok := kind.KSGVariant()
		if !ok {
			fatal(fmt.Errorf("-tier approx requires a KSG estimator, have %q", esp.Kind))
		}
		if esp.Subsample < 1 || esp.Subsample > ds.NumSamples() {
			fatal(fmt.Errorf("-subsample %d needs 1 <= r <= samples (%d)", esp.Subsample, ds.NumSamples()))
		}
		opts := sops.ApproxOptions{Subsample: esp.Subsample, Seed: *seed}
		ae := engine.MultiInfoKSGApprox(ds, esp.K, variant, opts)
		fmt.Printf("multi-information (%s, approx r=%d): %.4f ± %.4f bits (95%% CI [%.4f, %.4f])\n",
			esp.Kind, ae.Evals, ae.MI, 1.96*ae.StdErr, ae.CILow, ae.CIHigh)
		// The decomposition below reuses the same draw, so the group
		// terms' subsampling noise cancels in the Eq. (5) subtraction.
		estimator = func(d *infotheory.Dataset) float64 {
			return engine.MultiInfoKSGApprox(d, esp.K, variant, opts).MI
		}
	default:
		fatal(fmt.Errorf("unknown -tier %q (want exact or approx)", esp.Tier))
	}

	if gs != nil {
		dec := infotheory.Decompose(ds, gs, estimator)
		fmt.Printf("decomposition: between-groups %.4f bits\n", dec.Between)
		for g, w := range dec.Within {
			fmt.Printf("  within group %d (vars %v): %.4f bits\n", g, gs[g], w)
		}
		fmt.Printf("  reconstructed total: %.4f bits\n", dec.Total())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sopinfo:", err)
	os.Exit(1)
}

// validateKSGK checks the k-NN parameter against the CSV's sample count
// before any estimate runs, turning what used to be a panic deep in the
// estimator (infotheory: "KSG needs 1 <= k < m") into a clean CLI error.
// One check covers the headline estimate and every decomposition term:
// the Eq. (5) decomposition selects variable subsets, never sample
// subsets, so each group estimate sees the same m rows.
func validateKSGK(est experiment.EstimatorKind, k, samples int) error {
	if est.UsesKNN() {
		if k < 1 || k >= samples {
			return fmt.Errorf("-k %d needs 1 <= k < samples, but the CSV has %d data rows; "+
				"pass a smaller -k or provide at least k+1 samples", k, samples)
		}
	}
	return nil
}

// parseGroups parses the -groups labels, one non-negative label per
// variable, into the variable groups of the Eq. (5) decomposition.
func parseGroups(spec string, nVars int) ([][]int, error) {
	labels, err := parseInts(spec)
	if err != nil {
		return nil, err
	}
	if len(labels) != nVars {
		return nil, fmt.Errorf("%d group labels for %d variables", len(labels), nVars)
	}
	for v, l := range labels {
		if l < 0 {
			return nil, fmt.Errorf("group label %d of variable %d is negative", l, v)
		}
	}
	return infotheory.GroupsByLabel(labels), nil
}

func readNumericCSV(path string) ([][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parseNumericCSV(f)
}

// parseNumericCSV reads one sample per row, skipping a non-numeric
// header row. Every accepted cell is finite: NaN and ±Inf are errors.
func parseNumericCSV(r io.Reader) ([][]float64, error) {
	records, err := csv.NewReader(r).ReadAll()
	if err != nil {
		return nil, err
	}
	var rows [][]float64
	for ri, rec := range records {
		row := make([]float64, len(rec))
		ok := true
		for ci, cell := range rec {
			v, err := strconv.ParseFloat(strings.TrimSpace(cell), 64)
			if err != nil {
				ok = false
				break
			}
			row[ci] = v
		}
		if !ok {
			if ri == 0 {
				continue // header
			}
			return nil, fmt.Errorf("non-numeric cell in row %d", ri+1)
		}
		for ci, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("non-finite cell %v in row %d, column %d", v, ri+1, ci+1)
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func buildDataset(rows [][]float64, dimsSpec string) (*infotheory.Dataset, error) {
	nCols := len(rows[0])
	for ri, row := range rows {
		if len(row) != nCols {
			return nil, fmt.Errorf("row %d has %d columns, want %d", ri+1, len(row), nCols)
		}
	}
	var dims []int
	if dimsSpec == "" {
		dims = make([]int, nCols)
		for i := range dims {
			dims[i] = 1
		}
	} else {
		var err error
		dims, err = parseInts(dimsSpec)
		if err != nil {
			return nil, err
		}
		total := 0
		for v, d := range dims {
			if d < 1 || d > nCols {
				return nil, fmt.Errorf("variable %d has dimension %d, want 1..%d (the CSV's columns)", v, d, nCols)
			}
			total += d
		}
		if total != nCols {
			return nil, fmt.Errorf("dims sum to %d but the CSV has %d columns", total, nCols)
		}
	}
	ds := infotheory.NewDataset(len(rows), dims)
	for s, row := range rows {
		col := 0
		for v, d := range dims {
			ds.SetVar(s, v, row[col:col+d]...)
			col += d
		}
	}
	return ds, nil
}

func parseInts(spec string) ([]int, error) {
	parts := strings.Split(spec, ",")
	out := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", p)
		}
		out[i] = v
	}
	return out, nil
}
