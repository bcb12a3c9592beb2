// Command perfbench is the repository benchmark. It runs one named
// workload through the public sops.Session + Spec path in a closed loop
// with a single caller, checks every output against its reference digest,
// and prints one JSON result as the last line of standard output. The
// specs it generates come from the master seed --seed alone:
//
//	perfbench --workload fig4-dense --seed 2012 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of the timed calls.
// With --trace 1 it reports the per-layer metrics of a separate traced
// run, which re-executes the same spec through the public stages of each
// layer with a span around every call, and checks that it produces the
// same bytes as the untraced program. run.sh builds it from source.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync/atomic"
	"syscall"
	"time"

	sops "repro"
	"repro/internal/sweep"
)

// defaultSeed is the master seed the reference digests were first
// recorded at; it is the sopfigures default.
const defaultSeed = 2012

// specSeeds is how many specs a master seed generates. Call i of a run
// receives the spec of seed master·specSeeds + i mod specSeeds, so a run's
// median spans several ensembles: how hard an ensemble is to align depends
// on its reference sample, and one ensemble alone can cost 60% more than
// its neighbours.
const specSeeds = 5

// workdir holds checkpoint directories and span files, relative to the
// checkout the benchmark runs from; run.sh builds into the same directory.
const workdir = ".bench_build"

// setupReps is how many extra set-ups a run times before each call. Set-up
// takes microseconds, so a run reports the median of many set-ups spread
// over its whole length rather than the time of the few it needs.
const setupReps = 20

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Uint64("seed", defaultSeed, "master seed the specs are generated from")
	seconds := flag.Int("seconds", 10, "how long to keep making calls")
	trace := flag.Int("trace", 0, "0: end-to-end metrics of timed calls; 1: per-layer metrics of a traced run")
	record := flag.Bool("record", false, "print the output digests of the specs --seed generates and exit")
	flag.Parse()

	w, ok := lookupWorkload(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --trace 0|1 and --seconds >= 1\n", workloadNames())
		os.Exit(2)
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b := &bench{w: w, seed: *seed, workdir: workdir, check: newChecker(w.name), log: os.Stderr}
	if *record {
		for i := range specSeeds {
			_, d, err := b.call(context.Background(), i)
			if err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
				os.Exit(1)
			}
			fmt.Printf("{%q: {\"%d\": %q}}\n", w.name, b.specSeed(i), d)
		}
		return
	}
	deadline := time.Duration(*seconds) * time.Second
	var rep *report
	if *trace == 0 {
		rep = b.measure(deadline)
	} else {
		rep = b.traced(deadline)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return fmt.Sprint(names)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// attempt counts one call and its outcome.
func (r *report) attempt(err error, log io.Writer) {
	r.Attempted++
	if err != nil {
		r.Failed++
		fmt.Fprintln(log, "perfbench: failed:", err)
	}
	r.Correct = r.Failed == 0
}

func newReport() *report { return &report{Metrics: make(map[string]metric)} }

func (r *report) set(name, unit string, v float64) { r.Metrics[name] = metric{Value: v, Unit: unit} }

type bench struct {
	w       workload
	seed    uint64 // master seed
	workdir string
	check   *checker
	log     io.Writer
}

// specSeed is the seed of the spec call i receives.
func (b *bench) specSeed(i int) uint64 { return b.seed*specSeeds + uint64(i%specSeeds) }

// env is one set-up workload: the spec and the session it runs in.
type env struct {
	spec    sops.Spec
	session *sops.Session
	dir     string // checkpoint directory; empty for single runs
}

func (e *env) cleanup() {
	if e.dir != "" {
		os.RemoveAll(e.dir)
	}
}

// setup builds and validates the spec of call i, creates the checkpoint
// directory of a sweep, and creates the session.
func (b *bench) setup(i int) (*env, error) {
	sp, err := b.w.build(b.w.scale, b.specSeed(i))
	if err != nil {
		return nil, err
	}
	e := &env{spec: sp}
	if !b.w.figure {
		e.session = sops.NewSession()
		return e, nil
	}
	if e.dir, err = os.MkdirTemp(b.workdir, "ckpt-"); err != nil {
		return nil, err
	}
	e.session = sops.NewSession(sops.WithCheckpointDir(e.dir))
	return e, nil
}

// run makes the workload's Session call and digests its output.
func (b *bench) run(ctx context.Context, e *env) (digest, error) {
	if b.w.figure {
		fd, err := e.session.Figure(ctx, e.spec)
		if err != nil {
			return digest{}, err
		}
		return figureDigest(fd), nil
	}
	res, err := e.session.Run(ctx, e.spec)
	if err != nil {
		return digest{}, err
	}
	return resultDigest(res), nil
}

// costs are what one timed call cost.
type costs struct {
	setup, wall, cpu time.Duration
	alloc            uint64
}

// call sets call i up and makes it, timed. A panic is reported as the
// call's error.
func (b *bench) call(ctx context.Context, i int) (c costs, d digest, err error) {
	defer recovered(&err)
	start := time.Now()
	e, err := b.setup(i)
	c.setup = time.Since(start)
	if err != nil {
		return c, d, err
	}
	defer e.cleanup()
	runtime.GC()
	cpu0, alloc0 := cpuTime(), heapAllocs()
	start = time.Now()
	d, err = b.run(ctx, e)
	c.wall = time.Since(start)
	c.cpu, c.alloc = cpuTime()-cpu0, heapAllocs()-alloc0
	return c, d, err
}

// setupTimes sets call i up setupReps times and appends each time.
func (b *bench) setupTimes(out []float64, i int) ([]float64, error) {
	for range setupReps {
		start := time.Now()
		e, err := b.setup(i)
		took := time.Since(start)
		if err != nil {
			return out, err
		}
		e.cleanup()
		out = append(out, took.Seconds())
	}
	return out, nil
}

// measure makes timed calls until the run length is used up and reports
// the median of each end-to-end metric.
func (b *bench) measure(length time.Duration) *report {
	rep := newReport()
	var setups, wall, cpu, alloc, rate []float64
	var rss float64
	ctx := context.Background()
	for start := time.Now(); rep.Attempted == 0 || time.Since(start) < length; {
		i := rep.Attempted
		var err error
		if setups, err = b.setupTimes(setups, i); err != nil {
			rep.attempt(err, b.log)
			continue
		}
		c, d, err := b.call(ctx, i)
		if err == nil {
			err = b.check.check(b.specSeed(i), d)
		}
		rep.attempt(err, b.log)
		if err != nil {
			continue
		}
		if len(wall) == 0 {
			// Later calls can only raise the process's peak, by however
			// much garbage earlier calls left; the first call's peak is
			// what a single caller sees.
			rss = peakRSS()
		}
		setups = append(setups, c.setup.Seconds())
		wall = append(wall, c.wall.Seconds())
		cpu = append(cpu, c.cpu.Seconds())
		alloc = append(alloc, float64(c.alloc)/(1<<20))
		rate = append(rate, float64(b.w.samples())/c.wall.Seconds())
		fmt.Fprintf(b.log, "perfbench: %s seed %d call %d: wall %.3fs cpu %.3fs alloc %.1fMiB digest %s\n",
			b.w.name, b.specSeed(i), rep.Attempted, c.wall.Seconds(), c.cpu.Seconds(), float64(c.alloc)/(1<<20), d)
	}
	if len(wall) == 0 {
		return rep
	}
	rep.set("wall_s", "s", median(wall))
	rep.set("cpu_s", "s", median(cpu))
	rep.set("samples_per_s", "1/s", median(rate))
	rep.set("setup_s", "s", median(setups))
	rep.set("peak_rss_mb", "MiB", rss)
	rep.set("alloc_mb", "MiB", median(alloc))
	return rep
}

// traced reports the per-layer metrics. Each pass makes one untraced call
// (the reference for the overhead and the digest), one call through the
// sweep layer with a timing store and a progress listener, and one traced
// re-execution through the layers' public stages; both of the latter must
// reproduce the untraced digest. Passes repeat until the run length is
// used up, and each metric reports its median over them.
func (b *bench) traced(length time.Duration) *report {
	rep := newReport()
	vals := make(map[string][]float64)
	units := make(map[string]string)
	add := func(name, unit string, v float64) {
		vals[name] = append(vals[name], v)
		units[name] = unit
	}
	ctx := context.Background()
	for start, pass := time.Now(), 0; pass == 0 || time.Since(start) < length; pass++ {
		c, want, err := b.call(ctx, pass)
		if err == nil {
			err = b.check.check(b.specSeed(pass), want)
		}
		rep.attempt(err, b.log)
		if err != nil {
			continue
		}
		err = b.sweepPass(ctx, pass, want, add)
		rep.attempt(err, b.log)
		if err != nil {
			continue
		}
		wall, err := b.stagePass(ctx, pass, want, add)
		rep.attempt(err, b.log)
		if err != nil {
			continue
		}
		add("trace.overhead_frac", "ratio", wall.Seconds()/c.wall.Seconds()-1)
	}
	for name, v := range vals {
		rep.set(name, units[name], median(v))
	}
	return rep
}

// sweepPass runs the spec through Session.Figure with a timing store in
// front of a fresh checkpoint directory and a progress listener, the path
// of sopsweep; a single-run spec is then a sweep of one run.
func (b *bench) sweepPass(ctx context.Context, i int, want digest, add func(name, unit string, v float64)) (err error) {
	defer recovered(&err)
	sp, err := b.w.build(b.w.scale, b.specSeed(i))
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(b.workdir, "ckpt-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store := newTimingStore(sweep.DirStore{Dir: dir})
	session := sops.NewSession(sops.WithResultStore(store))
	var runs atomic.Int64
	stop := session.Subscribe(func(ev sops.ProgressEvent) {
		if ev.Kind == sops.ProgressRunDone {
			runs.Add(1)
		}
	})
	runtime.GC()
	cpu0, start := cpuTime(), time.Now()
	fd, err := session.Figure(ctx, sp)
	wall, cpu := time.Since(start), cpuTime()-cpu0
	stop()
	if err != nil {
		return err
	}
	got := figureDigest(fd)
	if !b.w.figure {
		if store.lastSaved == nil {
			return fmt.Errorf("sweep pass saved no result")
		}
		got = resultDigest(store.lastSaved)
	}
	if got != want {
		return fmt.Errorf("sweep pass digest %s, untraced call %s", got, want)
	}
	var bytes int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, de := range entries {
		if fi, err := de.Info(); err == nil {
			bytes += fi.Size()
		}
	}
	if len(store.runs) == 0 {
		return fmt.Errorf("sweep pass computed no run")
	}
	runSecs := make([]float64, len(store.runs))
	for i, r := range store.runs {
		runSecs[i] = r.Seconds()
	}
	add("sweep.runs", "count", float64(runs.Load()))
	add("sweep.run_p50_s", "s", median(runSecs))
	add("sweep.run_max_s", "s", slices.Max(runSecs))
	add("sweep.core_util", "ratio", cpu.Seconds()/(wall.Seconds()*float64(runtime.GOMAXPROCS(0))))
	add("sweep.store_loads", "count", float64(store.loads))
	add("sweep.store_hits", "count", float64(store.hits))
	add("sweep.store_saves", "count", float64(store.saves))
	add("sweep.store_save_ms", "ms", store.save.Seconds()*1e3)
	add("sweep.store_bytes", "bytes", float64(bytes))
	return nil
}

// stagePass re-executes the spec through the traced stages, reduced to
// its figure by the program's own dispatcher, and returns its wall time.
func (b *bench) stagePass(ctx context.Context, i int, want digest, add func(name, unit string, v float64)) (wall time.Duration, err error) {
	defer recovered(&err)
	sp, err := b.w.build(b.w.scale, b.specSeed(i))
	if err != nil {
		return 0, err
	}
	tr := newTracer()
	x := newStages(tr)
	root, _ := tr.open("bench.call", -1)
	sw := &tracingSweeper{x: x, parent: root}
	runtime.GC()
	start := time.Now()
	fd, err := sweep.RunSpec(ctx, sw, sp)
	wall = time.Since(start)
	tr.close(root)
	if err != nil {
		return 0, err
	}
	got := figureDigest(fd)
	if !b.w.figure {
		got = resultDigest(sw.results[0])
	}
	if got != want {
		return 0, fmt.Errorf("traced digest %s, untraced call %s", got, want)
	}
	self := tr.selfByLayer()
	frames, steps := float64(x.frames.Load()), float64(x.steps.Load())
	add("align.frames", "count", frames)
	add("align.self_s", "s", self["align"])
	add("align.us_per_frame", "us", self["align"]/frames*1e6)
	add("infotheory.steps", "count", steps)
	add("infotheory.estimates", "count", float64(x.estimates.Load()))
	add("infotheory.self_s", "s", self["infotheory"])
	add("infotheory.ms_per_step", "ms", self["infotheory"]/steps*1e3)
	add("infotheory.queue_s", "s", float64(x.queueNS.Load())/1e9)
	add("infotheory.overlap_frac", "ratio", float64(x.overlapNS.Load())/float64(x.estNS.Load()))
	add("sim.samples", "count", float64(x.samples.Load()))
	add("sim.particle_steps", "count", float64(x.particleSteps.Load()))
	add("sim.self_s", "s", self["sim"])
	add("sim.ns_per_particle_step", "ns", self["sim"]/float64(x.particleSteps.Load())*1e9)
	add("workpool.token_wait_s", "s", float64(x.waitNS.Load())/1e9)
	compute := self["sim"] + self["align"] + self["infotheory"]
	fmt.Fprintf(b.log, "perfbench: %s seed %d traced: wall %.3fs, self time sim %.0f%% align %.0f%% infotheory %.0f%%\n",
		b.w.name, sp.Seed, wall.Seconds(), 100*self["sim"]/compute, 100*self["align"]/compute, 100*self["infotheory"]/compute)
	return wall, tr.write(filepath.Join(b.workdir, fmt.Sprintf("spans-%s-%d.json", b.w.name, sp.Seed)))
}

// recovered, deferred, reports a panic as the function's error.
func recovered(err *error) {
	if p := recover(); p != nil {
		*err = fmt.Errorf("panic: %v", p)
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS is the process's peak resident set in MiB.
func peakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// heapAllocs is the cumulative number of bytes allocated on the heap.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
