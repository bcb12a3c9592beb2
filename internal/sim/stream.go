package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"

	"repro/internal/rngx"
	"repro/internal/vec"
	"repro/internal/workpool"
)

// Frame is one recorded frame of one sample, delivered to a streaming
// consumer as it is produced. Pos aliases the simulator's live position
// buffer: it is valid (read-only) for the duration of the visit call only —
// consumers that retain frames must copy.
type Frame struct {
	// Sample is the sample index s; the sample runs on the deterministic
	// random sub-stream Split(Seed, s) regardless of scheduling.
	Sample int
	// Index is the position of this frame on the shared recorded time
	// grid (an index into StreamResult.Times / RecordedSteps).
	Index int
	// Step is the integrator step count of this frame.
	Step int
	// Pos holds the particle positions. Read-only, valid only during the
	// visit call.
	Pos []vec.Vec2
	// Final marks the sample's last recorded frame.
	Final bool
	// Equilibrated reports whether the sample met the equilibrium
	// criterion at any step during its run. Valid only on the final
	// frame.
	Equilibrated bool
}

// FrameVisitor consumes streamed frames. A visitor may be called
// concurrently from different sample goroutines; calls for one sample are
// sequential and arrive in increasing Index order. Returning a non-nil
// error cancels the whole stream.
type FrameVisitor func(f Frame) error

// StreamResult describes a completed stream.
type StreamResult struct {
	// Times is the shared recorded time grid (integrator step indices).
	Times []int
	// Types is the resolved per-particle type assignment.
	Types []int
}

// RecordedSteps returns the recorded step indices of a run: steps
// 0, every, 2·every, …, and always the final step. every ≤ 0 is treated
// as 1. This is the shared time grid of every sample of an ensemble.
func RecordedSteps(steps, every int) []int {
	if every <= 0 {
		every = 1
	}
	n := steps/every + 1
	if steps%every != 0 {
		n++
	}
	out := make([]int, 0, n)
	for k := 0; k <= steps; k += every {
		out = append(out, k)
	}
	if out[len(out)-1] != steps {
		out = append(out, steps)
	}
	return out
}

// Normalized returns a copy of the config with simulation defaults applied
// and the ensemble fields validated, so that consumers can derive the time
// grid and type assignment before any sample runs.
func (ec EnsembleConfig) Normalized() (EnsembleConfig, error) {
	ec.Sim = ec.Sim.WithDefaults()
	if err := ec.Sim.Validate(); err != nil {
		return ec, err
	}
	if ec.M <= 0 {
		return ec, errors.New("sim: ensemble M must be positive")
	}
	if ec.Steps <= 0 {
		return ec, errors.New("sim: ensemble Steps must be positive")
	}
	if ec.RecordEvery <= 0 {
		ec.RecordEvery = 1
	}
	return ec, nil
}

// StreamEnsemble runs all M samples of the ensemble on a worker pool and
// emits every recorded frame to visit as it is produced, without retaining
// trajectories — the bounded-memory alternative to RunEnsemble. Sample i is
// seeded with rngx.Split(Seed, i), so what each sample computes is
// bit-identical for any worker count; only the interleaving of visit calls
// across samples depends on scheduling. Full-trajectory retention is an
// opt-in consumer: see Collector.
func StreamEnsemble(ec EnsembleConfig, visit FrameVisitor) (*StreamResult, error) {
	return StreamEnsembleCtx(context.Background(), ec, visit)
}

// StreamEnsembleCtx is StreamEnsemble under a context: cancellation stops
// the sample pool within one token-grant (samples already running finish
// and their frames are delivered; no further sample starts) and the
// context's error is returned.
func StreamEnsembleCtx(ctx context.Context, ec EnsembleConfig, visit FrameVisitor) (*StreamResult, error) {
	ec, err := ec.Normalized()
	if err != nil {
		return nil, err
	}
	return streamRange(ctx, ec, 0, ec.M, visit)
}

// StreamSamples is StreamEnsemble restricted to samples lo ≤ s < hi of the
// ensemble. Sample seeding is by absolute index, so streaming an ensemble
// in several ranges produces exactly the frames StreamEnsemble would. An
// empty range is a no-op. The staged measurement pipeline uses this to run
// the alignment-reference sample to completion before fanning out the rest.
func StreamSamples(ec EnsembleConfig, lo, hi int, visit FrameVisitor) (*StreamResult, error) {
	return StreamSamplesCtx(context.Background(), ec, lo, hi, visit)
}

// StreamSamplesCtx is StreamSamples under a context; see StreamEnsembleCtx
// for the cancellation contract.
func StreamSamplesCtx(ctx context.Context, ec EnsembleConfig, lo, hi int, visit FrameVisitor) (*StreamResult, error) {
	ec, err := ec.Normalized()
	if err != nil {
		return nil, err
	}
	if lo < 0 || hi > ec.M || lo > hi {
		return nil, fmt.Errorf("sim: sample range [%d, %d) outside ensemble of %d", lo, hi, ec.M)
	}
	return streamRange(ctx, ec, lo, hi, visit)
}

// streamRange distributes samples [lo, hi) over a worker pool. ec must be
// normalized. On any error — from a sample, from the visitor, or from the
// context — the pool stops handing out work and the first error is
// returned (workpool.Run's drain contract: workers that exit early cannot
// strand the producer, the deadlock the pre-streaming RunEnsemble shipped).
func streamRange(ctx context.Context, ec EnsembleConfig, lo, hi int, visit FrameVisitor) (*StreamResult, error) {
	res := &StreamResult{
		Times: RecordedSteps(ec.Steps, ec.RecordEvery),
		Types: append([]int(nil), ec.Sim.Types...),
	}
	workers := ec.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	err := workpool.RunSharedCtx(ctx, hi-lo, workers, ec.Tokens, func(_, i int) error {
		s := lo + i
		if err := streamSample(ec, s, visit); err != nil {
			return fmt.Errorf("sample %d: %w", s, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// DivergedError reports a sample whose integration blew up: a recorded
// frame held a position coordinate that is not finite or exceeds
// maxCoordinate. It typically means forces or a time step far beyond
// MaxStableDt.
type DivergedError struct {
	// Sample is the ensemble sample index.
	Sample int
	// Step is the integrator step of the first diverged recorded frame.
	Step int
}

// Error omits the sample: the stream wraps every sample's error with its
// index.
func (e *DivergedError) Error() string {
	return fmt.Sprintf("sim: diverged at step %d: positions non-finite or beyond ±%g", e.Step, maxCoordinate)
}

// maxCoordinate bounds the position coordinates of a recorded frame.
// Collectives span tens of units, so a coordinate beyond it means the run
// has blown up; and past it the squared distances and sums that alignment
// and estimation form over a frame overflow to ±Inf or NaN while the
// positions themselves are still finite. Below it, (2·maxCoordinate)²
// summed over millions of particles stays finite.
const maxCoordinate = 1e150

// diverged reports whether some coordinate is not finite or exceeds
// maxCoordinate in magnitude.
func diverged(pos []vec.Vec2) bool {
	for _, p := range pos {
		// Written so that NaN, which fails every comparison, counts.
		if !(math.Abs(p.X) <= maxCoordinate && math.Abs(p.Y) <= maxCoordinate) {
			return true
		}
	}
	return false
}

// streamSample runs one sample and emits its recorded frames, stopping
// with a *DivergedError at the first diverged frame. ec must be
// normalized.
func streamSample(ec EnsembleConfig, s int, visit FrameVisitor) error {
	sys, err := New(ec.Sim, rngx.Split(ec.Seed, uint64(s)))
	if err != nil {
		return err
	}
	emit := func(f Frame) error {
		if diverged(f.Pos) {
			return &DivergedError{Sample: f.Sample, Step: f.Step}
		}
		return visit(f)
	}
	idx := 0
	if err := emit(Frame{Sample: s, Index: 0, Step: 0, Pos: sys.PositionsRef()}); err != nil {
		return err
	}
	equilibrated := false
	for k := 1; k <= ec.Steps; k++ {
		sys.Step()
		if sys.InEquilibrium() {
			equilibrated = true
		}
		if k%ec.RecordEvery == 0 || k == ec.Steps {
			idx++
			f := Frame{Sample: s, Index: idx, Step: sys.Time(), Pos: sys.PositionsRef()}
			if k == ec.Steps {
				f.Final = true
				f.Equilibrated = equilibrated
			}
			if err := emit(f); err != nil {
				return err
			}
		}
	}
	return nil
}

// Collector is the opt-in full-trajectory consumer for StreamEnsemble: it
// copies every streamed frame into an Ensemble, reproducing exactly what
// RunEnsemble returns. Visit is safe for concurrent use (distinct samples
// write distinct trajectories).
type Collector struct {
	ens *Ensemble
}

// NewCollector pre-allocates an Ensemble for the (normalized) config.
func NewCollector(ec EnsembleConfig) (*Collector, error) {
	ec, err := ec.Normalized()
	if err != nil {
		return nil, err
	}
	times := RecordedSteps(ec.Steps, ec.RecordEvery)
	ens := &Ensemble{
		Cfg:          ec,
		Types:        append([]int(nil), ec.Sim.Types...),
		Trajs:        make([]Trajectory, ec.M),
		Equilibrated: make([]bool, ec.M),
	}
	for s := range ens.Trajs {
		ens.Trajs[s] = Trajectory{
			Times:  times, // shared across samples, as documented on Ensemble
			Frames: make([][]vec.Vec2, len(times)),
		}
	}
	return &Collector{ens: ens}, nil
}

// Visit copies one streamed frame into the ensemble.
func (c *Collector) Visit(f Frame) error {
	c.ens.Trajs[f.Sample].Frames[f.Index] = append([]vec.Vec2(nil), f.Pos...)
	if f.Final {
		c.ens.Equilibrated[f.Sample] = f.Equilibrated
	}
	return nil
}

// Ensemble returns the collected ensemble. Call it only after the stream
// has completed.
func (c *Collector) Ensemble() *Ensemble { return c.ens }
