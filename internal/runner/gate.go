// Package runner holds the two pieces of the pipeline's execution layer
// that sit above the parallelism primitives of package par: the fairness
// gate that bounds and seeds the server's pipeline work, and the timing
// harness behind parchmint-bench's "timing" pseudo-experiment.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/par"
)

// ErrSaturated reports that a gate refused admission instead of queueing.
// Match it with errors.Is; the concrete *SaturatedError carries the wait
// estimate callers can surface as client guidance (Retry-After).
var ErrSaturated = errors.New("runner: gate saturated")

// SaturatedError is the typed form of an admission refusal: the gate
// judged that queueing was pointless, either because the bounded queue is
// full or because the estimated wait already exceeds the caller's
// deadline.
type SaturatedError struct {
	// Workers and Waiting snapshot the gate at refusal time.
	Workers int
	Waiting int
	// EstimatedWait is the projected queueing delay (zero when the gate
	// has no service-time history yet).
	EstimatedWait time.Duration
}

func (e *SaturatedError) Error() string {
	return fmt.Sprintf("runner: gate saturated (%d workers busy, %d waiting, ~%s estimated wait)",
		e.Workers, e.Waiting, e.EstimatedWait.Round(time.Millisecond))
}

// Is makes errors.Is(err, ErrSaturated) match.
func (e *SaturatedError) Is(target error) bool { return target == ErrSaturated }

// Gate is the admission side of the worker pool for long-lived services:
// where Pool runs a fixed batch of tasks, a Gate bounds how many
// independently arriving requests may compute at once. Work admitted
// through a Gate inherits the package's determinism contract — the seed
// passed to fn is DeriveSeed(baseSeed, id), a pure function of the gate's
// base seed and the caller-chosen task ID, never of arrival order or of
// which requests happen to be in flight. Identical requests therefore
// compute identical results at any concurrency level.
//
// A gate may additionally bound its queue (NewBoundedGate): when every
// worker slot is busy, a caller that would wait behind a full queue — or
// longer than its own context deadline, judged against an exponentially
// weighted average of recent service times — is refused immediately with
// a *SaturatedError instead of blocking. Shedding changes only whether a
// request runs, never what an admitted request computes.
type Gate struct {
	slots    chan struct{}
	baseSeed uint64
	// queueDepth bounds callers blocked waiting for a slot; negative
	// means unbounded (never shed on depth).
	queueDepth int
	waiting    atomic.Int64
	// ewmaNanos tracks recent fn service time; 0 means no history.
	ewmaNanos atomic.Int64
}

// NewGate creates a gate admitting at most workers concurrent calls with
// an unbounded wait queue. Worker counts below 1 select runtime.NumCPU().
func NewGate(workers int, baseSeed uint64) *Gate {
	return NewBoundedGate(workers, -1, baseSeed)
}

// NewBoundedGate creates a gate admitting at most workers concurrent
// calls and at most queueDepth callers waiting for a slot; further
// arrivals are refused with *SaturatedError. queueDepth 0 sheds whenever
// every slot is busy; negative queueDepth means unbounded (NewGate).
func NewBoundedGate(workers, queueDepth int, baseSeed uint64) *Gate {
	if workers < 1 {
		workers = runtime.NumCPU()
	}
	return &Gate{
		slots:      make(chan struct{}, workers),
		baseSeed:   baseSeed,
		queueDepth: queueDepth,
	}
}

// Workers reports the gate's admission limit.
func (g *Gate) Workers() int { return cap(g.slots) }

// InFlight reports how many calls currently hold a slot.
func (g *Gate) InFlight() int { return len(g.slots) }

// Waiting reports how many calls are blocked waiting for a slot.
func (g *Gate) Waiting() int { return int(g.waiting.Load()) }

// QueueDepth reports the queue bound; negative means unbounded.
func (g *Gate) QueueDepth() int { return g.queueDepth }

// EstimatedWait projects how long a new arrival would queue: the average
// recent service time times the number of full drain rounds ahead of it.
// Zero until the gate has served at least one call.
func (g *Gate) EstimatedWait() time.Duration {
	avg := time.Duration(g.ewmaNanos.Load())
	if avg <= 0 {
		return 0
	}
	rounds := 1 + int(g.waiting.Load())/cap(g.slots)
	return avg * time.Duration(rounds)
}

// observe folds one service duration into the wait estimator. The first
// sample seeds the average directly; later samples decay with a 1/8
// weight, so the estimate tracks load shifts within a few requests.
func (g *Gate) observe(d time.Duration) {
	for {
		old := g.ewmaNanos.Load()
		next := int64(d)
		if old != 0 {
			next = old + (int64(d)-old)/8
		}
		if g.ewmaNanos.CompareAndSwap(old, next) {
			return
		}
	}
}

// Do waits for a free slot, then runs fn with the task's derived seed.
// It returns ctx.Err() without running fn when the context is cancelled
// while waiting (or already expired on admission), so queued requests
// abandon the line as soon as their caller gives up. On a bounded gate it
// returns *SaturatedError without queueing when the wait queue is full;
// on any gate it refuses when the caller's deadline is closer than the
// estimated queueing delay, since admitting such a request only burns a
// slot on work whose client will have timed out.
func (g *Gate) Do(ctx context.Context, id string, fn func(seed uint64) error) error {
	select {
	case g.slots <- struct{}{}:
	default:
		if err := g.admit(ctx); err != nil {
			return err
		}
		g.waiting.Add(1)
		select {
		case g.slots <- struct{}{}:
			g.waiting.Add(-1)
		case <-ctx.Done():
			g.waiting.Add(-1)
			return ctx.Err()
		}
	}
	defer func() { <-g.slots }()
	if err := ctx.Err(); err != nil {
		return err
	}
	start := time.Now()
	err := fn(par.DeriveSeed(g.baseSeed, id))
	g.observe(time.Since(start))
	return err
}

// admit decides whether a caller that found no free slot may queue. The
// waiting count is read without joining the queue first, so the depth
// bound is approximate under heavy contention — by at most a handful of
// racing arrivals, never unboundedly.
func (g *Gate) admit(ctx context.Context) error {
	waiting := int(g.waiting.Load())
	if g.queueDepth >= 0 && waiting >= g.queueDepth {
		return &SaturatedError{Workers: cap(g.slots), Waiting: waiting, EstimatedWait: g.EstimatedWait()}
	}
	if deadline, ok := ctx.Deadline(); ok {
		if est := g.EstimatedWait(); est > 0 && time.Until(deadline) < est {
			return &SaturatedError{Workers: cap(g.slots), Waiting: waiting, EstimatedWait: est}
		}
	}
	return nil
}
