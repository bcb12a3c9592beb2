package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"

	sops "repro"
	"repro/internal/experiment"
	"repro/internal/sweep"
)

// small returns the workload at a scale that runs in well under a second,
// keeping the shape that decides which path it takes.
func small(t *testing.T, name string) workload {
	t.Helper()
	w, ok := lookupWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	switch {
	case w.figure:
		w.scale = experiment.Scale{M: 16, Steps: 20, Repeats: 1}
	default:
		w.scale = experiment.Scale{M: 24, Steps: 20, RecordEvery: 10}
	}
	return w
}

// newBench benches a reduced workload; the reference digests, recorded at
// the full scale, do not apply to it.
func newBench(t *testing.T, w workload, seed uint64) *bench {
	return &bench{w: w, seed: seed, workdir: t.TempDir(), check: &checker{first: map[uint64]string{}}, log: io.Discard}
}

// declared reads the metric catalogue of BENCHMARK.json.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// TestMetricsMatchCatalogue checks that both modes print exactly the
// metrics BENCHMARK.json declares for them, each with its declared unit
// and a name made of [A-Za-z0-9_.-], and that the result line is valid.
func TestMetricsMatchCatalogue(t *testing.T) {
	endToEnd, perLayer := declared(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, w := range workloads {
		b := newBench(t, small(t, w.name), 7)
		for mode, want := range map[string]map[string]string{"timed": endToEnd, "traced": perLayer} {
			rep := b.measure(0)
			if mode == "traced" {
				rep = b.traced(0)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Fatalf("%s %s: correct=%v attempted=%d failed=%d", w.name, mode, rep.Correct, rep.Attempted, rep.Failed)
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s %s: %d metrics, BENCHMARK.json declares %d", w.name, mode, len(rep.Metrics), len(want))
			}
			for n, m := range rep.Metrics {
				if !name.MatchString(n) {
					t.Errorf("%s %s: bad metric name %q", w.name, mode, n)
				}
				if unit, ok := want[n]; !ok || unit != m.Unit {
					t.Errorf("%s %s: metric %q has unit %q, BENCHMARK.json declares %q", w.name, mode, n, m.Unit, unit)
				}
			}
			line, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			var back map[string]json.RawMessage
			if err := json.Unmarshal(line, &back); err != nil || len(back) != 4 {
				t.Errorf("%s %s: result line %s", w.name, mode, line)
			}
		}
	}
}

// TestWrongReferenceFails checks that a call whose digest differs from the
// reference is counted as failed.
func TestWrongReferenceFails(t *testing.T) {
	b := newBench(t, small(t, "fig4-dense"), 7)
	b.check.refs = map[string]string{fmt.Sprint(b.specSeed(0)): strings.Repeat("0", 64)}
	rep := b.measure(0)
	if rep.Correct || rep.Attempted != 1 || rep.Failed != 1 {
		t.Fatalf("correct=%v attempted=%d failed=%d, want one failed call", rep.Correct, rep.Attempted, rep.Failed)
	}
	if err := b.check.check(1, digest{finite: false}); err == nil {
		t.Error("a non-finite output passed the check")
	}
}

// TestSeedReachesSpec checks that the specs the program receives carry
// the seeds generated from the master seed, and that another master seed
// changes the output.
func TestSeedReachesSpec(t *testing.T) {
	for _, w := range workloads {
		for _, master := range []uint64{3, defaultSeed} {
			b := newBench(t, w, master)
			for i := range specSeeds {
				e, err := b.setup(i)
				if err != nil {
					t.Fatal(err)
				}
				e.cleanup()
				if want := master*specSeeds + uint64(i); e.spec.Seed != want {
					t.Errorf("%s: call %d of master seed %d got spec seed %d, want %d", w.name, i, master, e.spec.Seed, want)
				}
				if w.figure {
					continue
				}
				p, err := e.spec.Pipeline()
				if err != nil {
					t.Fatal(err)
				}
				if p.Ensemble.Seed != e.spec.Seed {
					t.Errorf("%s: ensemble seed %d, spec seed %d", w.name, p.Ensemble.Seed, e.spec.Seed)
				}
			}
		}
		var got [2]digest
		for i, master := range []uint64{3, 4} {
			_, d, err := newBench(t, small(t, w.name), master).call(context.Background(), 0)
			if err != nil {
				t.Fatal(err)
			}
			got[i] = d
		}
		if got[0] == got[1] {
			t.Errorf("%s: master seeds 3 and 4 gave the same output %s", w.name, got[0])
		}
	}
}

// TestTracedRunFailsOnDrift checks that the traced re-execution reports a
// digest that differs from the untraced call's, and refuses pipeline
// configurations it does not rebuild.
func TestTracedRunFailsOnDrift(t *testing.T) {
	b := newBench(t, small(t, "fig11-decomp"), 7)
	if _, err := b.stagePass(context.Background(), 0, digest{}, func(string, string, float64) {}); err == nil {
		t.Error("stage pass accepted a digest that differs from its own")
	}
	p := experiment.Fig4PipelineOf(experiment.TestScale(), 1)
	p.TrackEntropies = true
	x := newStages(newTracer())
	if _, err := x.pipeline(context.Background(), p, -1); err == nil {
		t.Error("traced rebuild accepted a pipeline with entropy tracking")
	}
}

// TestTimingStoreDelegates runs the fig8 workload cold through the timing
// store and resumes it through a second one on the same directory: every
// run is saved once, then restored, and the figure is unchanged.
func TestTimingStoreDelegates(t *testing.T) {
	w, _ := lookupWorkload("fig8-sweep")
	seed := uint64(defaultSeed * specSeeds)
	sp, err := w.build(w.scale, seed)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	runs := fig8Types * w.scale.Repeats
	var digests []digest
	for pass, want := range []struct{ hits, saves int }{{0, runs}, {runs, 0}} {
		store := newTimingStore(sweep.DirStore{Dir: dir})
		fd, err := sops.NewSession(sops.WithResultStore(store)).Figure(context.Background(), sp)
		if err != nil {
			t.Fatal(err)
		}
		if store.loads != runs || store.hits != want.hits || store.saves != want.saves {
			t.Errorf("pass %d: %d loads, %d hits, %d saves; want %d, %d, %d",
				pass, store.loads, store.hits, store.saves, runs, want.hits, want.saves)
		}
		digests = append(digests, figureDigest(fd))
	}
	if digests[0] != digests[1] {
		t.Errorf("resumed figure %s, cold figure %s", digests[1], digests[0])
	}
	if ref := references[w.name][fmt.Sprint(seed)]; ref != "" && digests[0].String() != ref {
		t.Errorf("figure through the timing store %s, reference %s", digests[0], ref)
	}
}

// TestSelfTime checks the self-time rule: a span's duration minus the
// union of its children's intervals, clipped to the span.
func TestSelfTime(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "sim.sample", Parent: -1, Start: 0, End: 100},
		{Name: "align.Add", Parent: 0, Start: 10, End: 30},
		{Name: "align.Add", Parent: 0, Start: 20, End: 40},
		{Name: "align.Add", Parent: 0, Start: 90, End: 120},
	}}
	self := tr.selfByLayer()
	if got, want := self["sim"], 60e-9; !near(got, want) {
		t.Errorf("sim self %g, want %g", got, want)
	}
	if got, want := self["align"], 70e-9; !near(got, want) {
		t.Errorf("align self %g, want %g", got, want)
	}
}

func near(a, b float64) bool { return a-b < 1e-15 && b-a < 1e-15 }
