// The timing harness: per-benchmark, per-stage wall-time and allocation
// profiling of the full pipeline (build → validate → place → route →
// attach → profile), collected concurrently and rendered as a stats.Table.
// This is the "timing" pseudo-experiment of parchmint-bench — deliberately
// NOT part of "-exp all": its numbers are wall-clock measurements of this
// machine and run, so it is excluded from the byte-reproducible artifact
// set the golden tests pin.

package runner

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/place"
	"repro/internal/pnr"
	"repro/internal/route"
	"repro/internal/stats"
	"repro/internal/validate"
)

// Timings accumulates per-(task, stage) durations from concurrent workers.
// The zero value is ready to use.
type Timings struct {
	mu sync.Mutex
	d  map[string]map[string]time.Duration
}

// Record adds a stage duration for a task (summing repeated observations).
func (tm *Timings) Record(task, stage string, d time.Duration) {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	if tm.d == nil {
		tm.d = make(map[string]map[string]time.Duration)
	}
	if tm.d[task] == nil {
		tm.d[task] = make(map[string]time.Duration)
	}
	tm.d[task][stage] += d
}

// Observer adapts Record to the pnr stage-hook signature for one task.
func (tm *Timings) Observer(task string) func(stage string, d time.Duration) {
	return func(stage string, d time.Duration) { tm.Record(task, stage, d) }
}

// Get returns the recorded duration for (task, stage); zero when absent.
func (tm *Timings) Get(task, stage string) time.Duration {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	return tm.d[task][stage]
}

// Snapshot returns a deep copy of every recorded (task, stage) duration,
// safe to iterate while workers keep recording. The metrics exporter of
// the benchmark service renders these as stage-timing gauges.
func (tm *Timings) Snapshot() map[string]map[string]time.Duration {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	out := make(map[string]map[string]time.Duration, len(tm.d))
	for task, stages := range tm.d {
		cp := make(map[string]time.Duration, len(stages))
		for s, d := range stages {
			cp[s] = d
		}
		out[task] = cp
	}
	return out
}

// timed runs fn and records its wall time under (task, stage).
func (tm *Timings) timed(task, stage string, fn func()) {
	start := time.Now()
	fn()
	tm.Record(task, stage, time.Since(start))
}

// TimingOptions configures the timing pseudo-experiment.
type TimingOptions struct {
	// Workers is the pool size; values below 1 select runtime.NumCPU().
	Workers int
	// Seed is the base seed; each benchmark's flow runs with
	// DeriveSeed(Seed, benchmark-name), the runner's standard rule.
	Seed uint64
	// Placer and Router select the engines; nil means the fast baseline
	// pair (greedy + A*), keeping the default timing run quick.
	Placer place.Placer
	Router route.Router
}

// timingStages is the column order of the timing table.
var timingStages = []string{"build", "validate", pnr.StagePlace, pnr.StageRoute, pnr.StageAttach, "profile"}

// TimingTable profiles the pipeline with a background context; see
// TimingTableContext.
func TimingTable(benchmarks []bench.Benchmark, opts TimingOptions) *stats.Table {
	return TimingTableContext(context.Background(), benchmarks, opts)
}

// TimingTableContext profiles the full pipeline over the given benchmarks
// on a worker pool and reports per-stage wall time in milliseconds plus
// the process-wide allocation delta attributed to each benchmark's task
// (approximate under concurrency: allocation is sampled around the whole
// task, not per goroutine). Rows appear in benchmark order regardless of
// completion order. A telemetry recorder on ctx sees one span per
// benchmark wrapping the flow's stage spans.
func TimingTableContext(ctx context.Context, benchmarks []bench.Benchmark, opts TimingOptions) *stats.Table {
	placer := opts.Placer
	if placer == nil {
		placer = place.Greedy{}
	}
	router := opts.Router
	if router == nil {
		router = route.AStar{}
	}
	pool := par.NewPool(opts.Workers)
	tm := &Timings{}
	allocs := make([]uint64, len(benchmarks))
	tasks := make([]par.Task, len(benchmarks))
	for i, b := range benchmarks {
		i, b := i, b
		tasks[i] = par.Task{
			ID:   b.Name,
			Seed: par.DeriveSeed(opts.Seed, b.Name),
			Run: func(t par.Task) error {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				tctx, span := obs.Start(ctx, "timing."+b.Name)
				defer span.End()
				var d *core.Device
				tm.timed(b.Name, "build", func() { d = b.Build() })
				tm.timed(b.Name, "validate", func() {
					if vr := validate.Validate(d); !vr.OK() {
						panic(fmt.Sprintf("runner: %s fails validation: %s", b.Name, vr))
					}
				})
				if _, err := pnr.RunContext(tctx, d, pnr.Options{
					Placer:  placer,
					Router:  router,
					Place:   place.Options{Seed: t.Seed},
					Observe: tm.Observer(b.Name),
				}); err != nil {
					return fmt.Errorf("runner: %s: %w", b.Name, err)
				}
				tm.timed(b.Name, "profile", func() {
					stats.ProfileDevice(d, string(b.Class))
				})
				runtime.ReadMemStats(&after)
				allocs[i] = after.TotalAlloc - before.TotalAlloc
				return nil
			},
		}
	}
	if err := pool.Run(tasks); err != nil {
		panic(err)
	}
	cols := []string{"benchmark"}
	for _, s := range timingStages {
		cols = append(cols, s+"(ms)")
	}
	cols = append(cols, "total(ms)", "alloc(mb)")
	t := stats.NewTable(
		fmt.Sprintf("Timing: pipeline stage profile (%s + %s, %d workers; wall-clock, not byte-reproducible)",
			placer.Name(), router.Name(), pool.Workers()),
		cols...,
	)
	for i, b := range benchmarks {
		row := []string{b.Name}
		var total time.Duration
		for _, s := range timingStages {
			d := tm.Get(b.Name, s)
			total += d
			row = append(row, stats.F2(msOf(d)))
		}
		row = append(row, stats.F2(msOf(total)), stats.F2(float64(allocs[i])/(1<<20)))
		t.AddRow(row...)
	}
	return t
}

func msOf(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
