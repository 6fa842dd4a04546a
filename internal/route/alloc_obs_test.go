package route

import (
	"context"
	"testing"

	"repro/internal/geom"
	"repro/internal/obs"
)

// allocGrid builds the congested benchmark grid for alloc measurements.
func allocGrid(t testing.TB) *geom.Grid {
	t.Helper()
	g, err := geom.NewGrid(geom.R(0, 0, 16000, 16000), 100)
	if err != nil {
		t.Fatal(err)
	}
	for row := 10; row < 150; row += 20 {
		for col := 10; col < 150; col += 20 {
			g.BlockRect(geom.R(int64(col)*100, int64(row)*100,
				int64(col+8)*100, int64(row+8)*100))
		}
	}
	return g
}

// The ExpansionBatch telemetry flush sits inside the search loops PR 3
// made allocation-free via the pooled arena. With no recorder on the
// context each engine must stay at the arena steady state: ~1 alloc/op for
// the returned path, nothing from telemetry.
func TestSearchAllocFreeWithoutTelemetry(t *testing.T) {
	if obs.RaceEnabled {
		t.Skip("race instrumentation allocates; alloc guard is meaningless under -race")
	}
	for _, r := range Engines() {
		t.Run(r.Name(), func(t *testing.T) {
			g := allocGrid(t)
			sources := []geom.Cell{{Col: 0, Row: 0}, {Col: 0, Row: 159}}
			target := geom.Cell{Col: 159, Row: 80}
			ctx := context.Background()
			// Warm the arena pool and the engine's queue/heap capacity.
			for i := 0; i < 3; i++ {
				if _, _, ok := r.Search(ctx, g, sources, target); !ok {
					t.Fatal("no path on alloc grid")
				}
			}
			avg := testing.AllocsPerRun(20, func() {
				r.Search(ctx, g, sources, target)
			})
			if avg > 2 {
				t.Fatalf("%s Search allocates %.2f allocs/op with telemetry disabled, want <= 2",
					r.Name(), avg)
			}
		})
	}
}

// TestAStarFrontierSteadyState pins the bucket queue's memory: once an
// arena has run a query, repeating it allocates only the returned path
// and grows none of the frontier's storage.
func TestAStarFrontierSteadyState(t *testing.T) {
	if obs.RaceEnabled {
		t.Skip("race instrumentation allocates; alloc guard is meaningless under -race")
	}
	g := allocGrid(t)
	sources := []geom.Cell{{Col: 0, Row: 0}, {Col: 0, Row: 159}}
	target := geom.Cell{Col: 159, Row: 80}
	ctx := context.Background()
	a := acquireArena(g)
	defer a.release()
	if _, _, _, ok := a.astar(ctx, g, sources, target); !ok {
		t.Fatal("no path on alloc grid")
	}
	q := &a.bq
	nodes, buckets, overflow := cap(q.nodes), cap(q.buckets), cap(q.overflow)
	avg := testing.AllocsPerRun(20, func() {
		a.gen++ // what acquireArena does between searches
		a.astar(ctx, g, sources, target)
	})
	if avg > 1 {
		t.Errorf("A* allocates %.2f allocs/op in steady state, want <= 1 (the path)", avg)
	}
	if cap(q.nodes) != nodes || cap(q.buckets) != buckets || cap(q.overflow) != overflow {
		t.Errorf("frontier grew after warm-up: node/bucket/overflow caps %d/%d/%d -> %d/%d/%d",
			nodes, buckets, overflow, cap(q.nodes), cap(q.buckets), cap(q.overflow))
	}
}

// BenchmarkSearchNoTelemetry is the tracked disabled-path number for the
// search loop, alongside BenchmarkSearch.
func BenchmarkSearchNoTelemetry(b *testing.B) {
	g := allocGrid(b)
	sources := []geom.Cell{{Col: 0, Row: 0}, {Col: 0, Row: 159}}
	target := geom.Cell{Col: 159, Row: 80}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := (AStar{}).Search(context.Background(), g, sources, target); !ok {
			b.Fatal("no path")
		}
	}
}
