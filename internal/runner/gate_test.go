package runner

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/par"
)

func TestGateDerivesSeeds(t *testing.T) {
	g := NewGate(2, 2018)
	var got uint64
	if err := g.Do(context.Background(), "rotary_pcr", func(seed uint64) error {
		got = seed
		return nil
	}); err != nil {
		t.Fatalf("Do: %v", err)
	}
	if want := par.DeriveSeed(2018, "rotary_pcr"); got != want {
		t.Errorf("seed = %d, want par.DeriveSeed = %d", got, want)
	}
}

func TestGateBoundsConcurrency(t *testing.T) {
	const workers = 3
	g := NewGate(workers, 1)
	if g.Workers() != workers {
		t.Fatalf("Workers = %d", g.Workers())
	}
	var mu sync.Mutex
	inflight, peak := 0, 0
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = g.Do(context.Background(), "t", func(uint64) error {
				mu.Lock()
				inflight++
				if inflight > peak {
					peak = inflight
				}
				mu.Unlock()
				mu.Lock()
				inflight--
				mu.Unlock()
				return nil
			})
		}()
	}
	wg.Wait()
	if peak > workers {
		t.Errorf("peak concurrency %d exceeds %d workers", peak, workers)
	}
	if g.InFlight() != 0 {
		t.Errorf("InFlight = %d after drain", g.InFlight())
	}
}

func TestGateHonorsCancelledContext(t *testing.T) {
	g := NewGate(1, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := g.Do(ctx, "t", func(uint64) error {
		t.Error("fn ran despite cancelled context")
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("Do = %v, want context.Canceled", err)
	}
}

func TestGateReleasesSlotOnError(t *testing.T) {
	g := NewGate(1, 1)
	boom := errors.New("boom")
	if err := g.Do(context.Background(), "a", func(uint64) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("Do = %v", err)
	}
	// The slot must be free again: a second call succeeds immediately.
	if err := g.Do(context.Background(), "b", func(uint64) error { return nil }); err != nil {
		t.Fatalf("second Do = %v", err)
	}
}

// hold occupies one gate slot until release is closed, reporting on held
// once the slot is acquired.
func hold(t *testing.T, g *Gate, held, release chan struct{}) *sync.WaitGroup {
	t.Helper()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = g.Do(context.Background(), "hold", func(uint64) error {
			close(held)
			<-release
			return nil
		})
	}()
	return &wg
}

func TestBoundedGateShedsWhenQueueFull(t *testing.T) {
	g := NewBoundedGate(1, 0, 1)
	held, release := make(chan struct{}), make(chan struct{})
	wg := hold(t, g, held, release)
	<-held
	err := g.Do(context.Background(), "t", func(uint64) error {
		t.Error("fn ran on a saturated gate with queue depth 0")
		return nil
	})
	if !errors.Is(err, ErrSaturated) {
		t.Errorf("Do = %v, want ErrSaturated", err)
	}
	var sat *SaturatedError
	if !errors.As(err, &sat) {
		t.Fatalf("Do = %T, want *SaturatedError", err)
	}
	if sat.Workers != 1 {
		t.Errorf("SaturatedError.Workers = %d, want 1", sat.Workers)
	}
	close(release)
	wg.Wait()
	// With the slot free again the same call is admitted.
	if err := g.Do(context.Background(), "t", func(uint64) error { return nil }); err != nil {
		t.Errorf("Do after drain = %v", err)
	}
}

func TestBoundedGateQueuesUpToDepth(t *testing.T) {
	g := NewBoundedGate(1, 1, 1)
	held, release := make(chan struct{}), make(chan struct{})
	wg := hold(t, g, held, release)
	<-held
	// One waiter fits in the queue.
	waiterErr := make(chan error, 1)
	go func() {
		waiterErr <- g.Do(context.Background(), "w", func(uint64) error { return nil })
	}()
	for i := 0; i < 200 && g.Waiting() == 0; i++ {
		time.Sleep(time.Millisecond)
	}
	if g.Waiting() != 1 {
		t.Fatalf("Waiting = %d, want 1", g.Waiting())
	}
	// A second would-be waiter is refused.
	if err := g.Do(context.Background(), "x", func(uint64) error { return nil }); !errors.Is(err, ErrSaturated) {
		t.Errorf("second waiter Do = %v, want ErrSaturated", err)
	}
	close(release)
	wg.Wait()
	if err := <-waiterErr; err != nil {
		t.Errorf("queued waiter Do = %v, want nil", err)
	}
}

func TestGateShedsWhenDeadlineShorterThanEstimate(t *testing.T) {
	g := NewGate(1, 1)
	// Seed the service-time estimator with one slow call.
	if err := g.Do(context.Background(), "seed", func(uint64) error {
		time.Sleep(120 * time.Millisecond)
		return nil
	}); err != nil {
		t.Fatalf("seed Do = %v", err)
	}
	if g.EstimatedWait() <= 0 {
		t.Fatalf("EstimatedWait = %v after a served call, want > 0", g.EstimatedWait())
	}
	held, release := make(chan struct{}), make(chan struct{})
	wg := hold(t, g, held, release)
	<-held
	// A deadline far shorter than the ~120ms estimate is refused at
	// admission instead of queueing to certain failure.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	err := g.Do(ctx, "t", func(uint64) error {
		t.Error("fn ran despite a hopeless deadline")
		return nil
	})
	if !errors.Is(err, ErrSaturated) {
		t.Errorf("Do = %v, want ErrSaturated", err)
	}
	var sat *SaturatedError
	if errors.As(err, &sat) && sat.EstimatedWait <= 0 {
		t.Errorf("EstimatedWait = %v, want > 0", sat.EstimatedWait)
	}
	// A generous deadline still queues: deadline-aware shedding must not
	// turn into unconditional shedding.
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		done <- g.Do(ctx, "ok", func(uint64) error { return nil })
	}()
	for i := 0; i < 200 && g.Waiting() == 0; i++ {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if err := <-done; err != nil {
		t.Errorf("patient waiter Do = %v, want nil", err)
	}
}

func TestUnboundedGateNeverShedsOnDepth(t *testing.T) {
	g := NewGate(1, 1)
	if g.QueueDepth() >= 0 {
		t.Fatalf("NewGate queue depth = %d, want unbounded (negative)", g.QueueDepth())
	}
	held, release := make(chan struct{}), make(chan struct{})
	wg := hold(t, g, held, release)
	<-held
	const waiters = 5
	errs := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			errs <- g.Do(context.Background(), "w", func(uint64) error { return nil })
		}()
	}
	for i := 0; i < 500 && g.Waiting() < waiters; i++ {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	for i := 0; i < waiters; i++ {
		if err := <-errs; err != nil {
			t.Errorf("waiter %d: %v", i, err)
		}
	}
}
