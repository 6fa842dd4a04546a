package runner

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/par"
)

func TestDeriveSeedDeterministicAndSeparated(t *testing.T) {
	a := par.DeriveSeed(2018, "table1")
	if a != par.DeriveSeed(2018, "table1") {
		t.Error("same (base, id) produced different seeds")
	}
	seen := map[uint64]string{}
	for _, id := range []string{"table1", "table2", "table3", "fig2", "fig3", "fig4", "fig5", "fig6", "ext-gradient", ""} {
		s := par.DeriveSeed(2018, id)
		if prev, dup := seen[s]; dup {
			t.Errorf("seed collision between %q and %q", prev, id)
		}
		seen[s] = id
	}
	if par.DeriveSeed(2018, "table1") == par.DeriveSeed(2019, "table1") {
		t.Error("base seed does not separate")
	}
}

func TestPoolRunsAllTasksOrderIndependent(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		results := make([]int, 50)
		tasks := make([]par.Task, 50)
		var ran atomic.Int64
		for i := range tasks {
			i := i
			tasks[i] = par.Task{ID: "t", Run: func(par.Task) error {
				results[i] = i * i
				ran.Add(1)
				return nil
			}}
		}
		if err := par.NewPool(workers).Run(tasks); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if ran.Load() != 50 {
			t.Fatalf("workers=%d: ran %d/50 tasks", workers, ran.Load())
		}
		for i, v := range results {
			if v != i*i {
				t.Fatalf("workers=%d: slot %d = %d", workers, i, v)
			}
		}
	}
}

func TestPoolSeedsFromBaseAndID(t *testing.T) {
	p := par.NewPool(4)
	p.BaseSeed = 2018
	seeds := make([]uint64, 20)
	tasks := make([]par.Task, 20)
	ids := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j",
		"k", "l", "m", "n", "o", "p", "q", "r", "s", "u"}
	for i := range tasks {
		i := i
		tasks[i] = par.Task{ID: ids[i], Run: func(tk par.Task) error {
			seeds[i] = tk.Seed
			return nil
		}}
	}
	if err := p.Run(tasks); err != nil {
		t.Fatal(err)
	}
	for i := range seeds {
		if want := par.DeriveSeed(2018, ids[i]); seeds[i] != want {
			t.Errorf("task %s seed = %d, want %d", ids[i], seeds[i], want)
		}
	}
}

func TestPoolFirstErrorInTaskOrder(t *testing.T) {
	errA := errors.New("a")
	errB := errors.New("b")
	tasks := []par.Task{
		{ID: "ok", Run: func(par.Task) error { return nil }},
		{ID: "slow-fail", Run: func(par.Task) error { time.Sleep(10 * time.Millisecond); return errA }},
		{ID: "fast-fail", Run: func(par.Task) error { return errB }},
	}
	if err := par.NewPool(3).Run(tasks); !errors.Is(err, errA) {
		t.Errorf("err = %v, want first error in task order (%v)", err, errA)
	}
}

func TestPoolPropagatesPanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic did not propagate")
		}
		if !strings.Contains(r.(string), "boom") || !strings.Contains(r.(string), "bad-task") {
			t.Errorf("panic value %q lacks task context", r)
		}
	}()
	par.NewPool(2).Run([]par.Task{
		{ID: "fine", Run: func(par.Task) error { return nil }},
		{ID: "bad-task", Run: func(par.Task) error { panic("boom") }},
	})
}

func TestForEachMatchesSequential(t *testing.T) {
	seq := make([]int, 100)
	for i := range seq {
		seq[i] = 3 * i
	}
	for _, workers := range []int{1, 2, 7} {
		got := make([]int, 100)
		par.ForEach(workers, 100, func(i int) { got[i] = 3 * i })
		for i := range got {
			if got[i] != seq[i] {
				t.Fatalf("workers=%d: slot %d = %d, want %d", workers, i, got[i], seq[i])
			}
		}
	}
}

func TestSetParallelismRoundTrip(t *testing.T) {
	prev := par.SetParallelism(4)
	defer par.SetParallelism(prev)
	if par.Parallelism() != 4 {
		t.Errorf("par.Parallelism = %d, want 4", par.Parallelism())
	}
	if got := par.SetParallelism(prev); got != 4 {
		t.Errorf("par.SetParallelism returned %d, want 4", got)
	}
}

func TestTimingsCollector(t *testing.T) {
	tm := &Timings{}
	obs := tm.Observer("job")
	obs("place", 2*time.Millisecond)
	obs("place", 3*time.Millisecond)
	tm.Record("job", "route", time.Millisecond)
	if got := tm.Get("job", "place"); got != 5*time.Millisecond {
		t.Errorf("place = %v, want 5ms", got)
	}
	if got := tm.Get("job", "route"); got != time.Millisecond {
		t.Errorf("route = %v, want 1ms", got)
	}
	if got := tm.Get("other", "place"); got != 0 {
		t.Errorf("absent = %v, want 0", got)
	}
}

func TestTimingTableProfilesPipeline(t *testing.T) {
	var subset []bench.Benchmark
	for _, name := range []string{"rotary_pcr", "planar_synthetic_1"} {
		b, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		subset = append(subset, b)
	}
	tb := TimingTable(subset, TimingOptions{Workers: 2, Seed: 2018})
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(tb.Rows))
	}
	// Rows keep benchmark order regardless of completion order.
	if tb.Rows[0][0] != "rotary_pcr" || tb.Rows[1][0] != "planar_synthetic_1" {
		t.Errorf("row order: %v, %v", tb.Rows[0][0], tb.Rows[1][0])
	}
	// Every stage column parses as a number and the route stage did work.
	for _, row := range tb.Rows {
		if row[4] == "0.00" && row[3] == "0.00" {
			t.Errorf("%s: place and route both report zero time", row[0])
		}
	}
}
