package place

import (
	"testing"

	"repro/internal/obs"
)

// The telemetry hooks of PR 4 sit inside the move loop PR 3 made
// allocation-free. With no recorder on the context they must stay free:
// this guard fails if the disabled-telemetry path ever starts allocating.
func TestMoveKernelAllocFreeWithoutTelemetry(t *testing.T) {
	if obs.RaceEnabled {
		t.Skip("race instrumentation allocates; alloc guard is meaningless under -race")
	}
	st := annealStateFor(t, benchDevice(t, "rotary_pcr"), 1)
	// The kernel amortizes rare slice growth (dirty set, overlap buckets);
	// warm it first, then require a near-zero steady state.
	for i := 0; i < 2000; i++ {
		st.tryMove(1000)
	}
	avg := testing.AllocsPerRun(2000, func() { st.tryMove(1000) })
	if avg >= 1 {
		t.Fatalf("tryMove allocates %.2f allocs/op with telemetry disabled, want < 1", avg)
	}
}

// BenchmarkAnnealMovesNoTelemetry is the tracked disabled-path number: the
// same kernel as BenchmarkAnnealMoves, named so the comparison against a
// telemetry-enabled context is explicit in benchmark output.
func BenchmarkAnnealMovesNoTelemetry(b *testing.B) {
	st := annealStateFor(b, benchDevice(b, "rotary_pcr"), 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.tryMove(1000)
	}
}
