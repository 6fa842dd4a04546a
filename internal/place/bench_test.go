package place

import (
	"context"
	"testing"
)

// The annealer is the placement hot path: every proposed move queries
// overlap and net HPWL. These benchmarks track ns/op and allocs/op for
// the whole schedule (BenchmarkAnnealPlace) and for the incremental move
// kernel alone (BenchmarkAnnealMoves), on suite devices of increasing
// size. make bench snapshots them into BENCH_pnr.json.
func BenchmarkAnnealPlace(b *testing.B) {
	for _, name := range []string{"aquaflex_3b", "rotary_pcr", "general_purpose_mfd"} {
		d := benchDevice(b, name)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p, err := (Annealer{}).Place(context.Background(), d, Options{Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(p.Moves), "moves/op")
			}
		})
	}
}

// BenchmarkAnnealMoves isolates the move kernel: one annealState, a fixed
// number of tryMove proposals. This is where the spatial overlap index and
// the int-indexed origins pay off.
func BenchmarkAnnealMoves(b *testing.B) {
	for _, name := range []string{"rotary_pcr", "general_purpose_mfd"} {
		d := benchDevice(b, name)
		b.Run(name, func(b *testing.B) {
			st := annealStateFor(b, d, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st.tryMove(1000)
			}
		})
	}
}

// BenchmarkEvaluate tracks the full-placement quality scan used by every
// engine's CheckLegal gate.
func BenchmarkEvaluate(b *testing.B) {
	d := benchDevice(b, "general_purpose_mfd")
	p, err := greedyPlace(d, DieFor(d, 0.35))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := Evaluate(p)
		if m.Placed == 0 {
			b.Fatal("nothing placed")
		}
	}
}
