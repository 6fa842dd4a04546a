package runner

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/par"
)

func TestBudgetTryAcquireNeverExceedsCap(t *testing.T) {
	b := par.NewBudget(3)
	if b.Cap() != 3 {
		t.Fatalf("Cap = %d, want 3", b.Cap())
	}
	if got := b.TryAcquire(2); got != 2 {
		t.Fatalf("TryAcquire(2) = %d, want 2", got)
	}
	if got := b.TryAcquire(5); got != 1 {
		t.Fatalf("TryAcquire(5) with 1 left = %d, want 1", got)
	}
	if got := b.TryAcquire(1); got != 0 {
		t.Fatalf("TryAcquire on empty budget = %d, want 0", got)
	}
	if b.InUse() != 3 {
		t.Fatalf("InUse = %d, want 3", b.InUse())
	}
	b.Release(3)
	if b.InUse() != 0 {
		t.Fatalf("InUse after release = %d, want 0", b.InUse())
	}
	if got := b.TryAcquire(3); got != 3 {
		t.Fatalf("TryAcquire after full release = %d, want 3", got)
	}
	b.Release(3)
}

func TestBudgetReleaseBeyondCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Release beyond capacity did not panic")
		}
	}()
	par.NewBudget(1).Release(1)
}

func TestBudgetZeroCapacity(t *testing.T) {
	b := par.NewBudget(0) // resolves to NumCPU-1, may legitimately be 0
	got := b.TryAcquire(4)
	if got > b.Cap() {
		t.Fatalf("acquired %d tokens from a %d-token budget", got, b.Cap())
	}
	b.Release(got)
}

// TestBudgetPoolInPool is the nested-parallelism regression: an outer pool
// of tasks each opening an inner budgeted parallel section must never run
// more than outer+Cap() worker goroutines at once, and the total extra
// width (inner workers beyond each task's own goroutine) must never exceed
// the budget.
func TestBudgetPoolInPool(t *testing.T) {
	const (
		outer     = 4
		budgetCap = 2
		innerWant = 8
	)
	b := par.NewBudget(budgetCap)
	ctx := par.ContextWithBudget(context.Background(), b)

	var extraInFlight atomic.Int64
	var maxExtra atomic.Int64

	tasks := make([]par.Task, outer)
	for i := range tasks {
		tasks[i] = par.Task{
			ID: "outer",
			Run: func(par.Task) error {
				workers, release := par.AcquireWorkers(ctx, innerWant)
				defer release()
				extra := int64(workers - 1)
				cur := extraInFlight.Add(extra)
				for {
					prev := maxExtra.Load()
					if cur <= prev || maxExtra.CompareAndSwap(prev, cur) {
						break
					}
				}
				// Hold the tokens across a real inner parallel loop so
				// sections genuinely overlap.
				par.ForEach(workers, innerWant, func(int) {
					time.Sleep(time.Millisecond)
				})
				extraInFlight.Add(-extra)
				return nil
			},
		}
	}
	if err := par.NewPool(outer).Run(tasks); err != nil {
		t.Fatal(err)
	}
	if got := maxExtra.Load(); got > budgetCap {
		t.Fatalf("max concurrent extra workers = %d, exceeds budget %d", got, budgetCap)
	}
	if b.InUse() != 0 {
		t.Fatalf("tokens leaked: InUse = %d after all sections released", b.InUse())
	}
}

// TestBudgetNoDeadlockUnderSaturatedGate pins the non-blocking guarantee:
// work admitted through a fully saturated 1-slot gate that then opens an
// inner budgeted section on an empty budget must complete (degrading to
// sequential), not wait for tokens that can never arrive.
func TestBudgetNoDeadlockUnderSaturatedGate(t *testing.T) {
	gate := NewGate(1, 42)
	b := par.NewBudget(1)
	// Exhaust the budget from outside so the gated work finds it empty.
	if got := b.TryAcquire(1); got != 1 {
		t.Fatal("failed to drain budget")
	}
	defer b.Release(1)

	ctx := par.ContextWithBudget(context.Background(), b)
	done := make(chan error, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			done <- gate.Do(ctx, "req", func(uint64) error {
				workers, release := par.AcquireWorkers(ctx, 8)
				defer release()
				if workers != 1 {
					t.Errorf("workers = %d on an empty budget, want 1", workers)
				}
				var n atomic.Int64
				par.ForEach(workers, 16, func(int) { n.Add(1) })
				if n.Load() != 16 {
					t.Errorf("inner loop ran %d of 16 iterations", n.Load())
				}
				return nil
			})
		}()
	}

	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(10 * time.Second):
		t.Fatal("deadlock: gated budgeted work did not complete")
	}
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatalf("gate.Do: %v", err)
		}
	}
}

func TestAcquireWorkersWithoutBudget(t *testing.T) {
	workers, release := par.AcquireWorkers(context.Background(), 6)
	defer release()
	if workers != 6 {
		t.Fatalf("unbudgeted par.AcquireWorkers(6) = %d, want 6", workers)
	}
	if w, rel := par.AcquireWorkers(context.Background(), 0); w != 1 {
		t.Fatalf("par.AcquireWorkers(0) = %d, want 1", w)
	} else {
		rel()
	}
}
