package place

import (
	"math"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
)

// tryMoveReplay is the reference move kernel: it undoes a rejected move by
// applying the inverse move, paying again for the overlap queries, index
// updates and net HPWL the move already computed. tryMove, which writes
// back its undo record instead, must leave exactly the state this leaves.
func (st *annealState) tryMoveReplay(temp float64) bool {
	if st.rng.Intn(2) == 0 {
		k := st.rng.Intn(len(st.comps))
		old := st.origins[k]
		delta := st.applyDisplace(k, st.randomOrigin(k))
		if !st.accept(delta, temp) {
			st.applyDisplace(k, old)
			return false
		}
		return true
	}
	a := st.rng.Intn(len(st.comps))
	b := st.rng.Intn(len(st.comps) - 1)
	if b >= a {
		b++
	}
	delta := st.applySwap(a, b)
	if !st.accept(delta, temp) {
		st.applySwap(a, b)
		return false
	}
	return true
}

// calibrateTemperatureReplay is calibrateTemperature with replayed undo,
// the reference for the calibration path.
func (st *annealState) calibrateTemperatureReplay(accept float64) float64 {
	const samples = 50
	var sum float64
	n := 0
	for i := 0; i < samples; i++ {
		k := st.rng.Intn(len(st.comps))
		old := st.origins[k]
		delta := st.applyDisplace(k, st.randomOrigin(k))
		if delta > 0 {
			sum += delta
			n++
		}
		st.applyDisplace(k, old)
	}
	if n == 0 {
		return 1000
	}
	return -(sum / float64(n)) / math.Log(accept)
}

// bruteOverlap is totalOverlap by a scan of every component pair.
func bruteOverlap(st *annealState) int64 {
	var total int64
	for i := range st.infl {
		for j := i + 1; j < len(st.infl); j++ {
			if st.placed[i] && st.placed[j] {
				total += intrusion(st.infl[i], st.infl[j])
			}
		}
	}
	return total
}

// checkOverlapIndex fails unless every placed component sits in exactly
// the buckets its inflated footprint covers, once each, and nowhere else.
func checkOverlapIndex(t testing.TB, st *annealState) {
	t.Helper()
	ix := st.ovl
	entries := 0
	for k := range st.infl {
		if !st.placed[k] {
			continue
		}
		span := ix.spanFor(st.infl[k])
		if ix.ranges[k] != span {
			t.Fatalf("component %d indexed at span %+v, footprint covers %+v", k, ix.ranges[k], span)
		}
		for row := span.r0; row <= span.r1; row++ {
			for col := span.c0; col <= span.c1; col++ {
				b := ix.buckets[int(row)*ix.cols+int(col)]
				if n := countOf(b, int32(k)); n != 1 {
					t.Fatalf("component %d listed %d times in bucket (%d,%d)", k, n, col, row)
				}
				entries++
			}
		}
	}
	total := 0
	for _, b := range ix.buckets {
		total += len(b)
	}
	if total != entries {
		t.Fatalf("index holds %d entries, footprints cover %d buckets", total, entries)
	}
}

func countOf(s []int32, v int32) int {
	n := 0
	for _, x := range s {
		if x == v {
			n++
		}
	}
	return n
}

// checkLockstep fails unless the production state got matches the replay
// reference want in every field a move writes, and got's overlap index
// agrees with a brute-force pair scan.
func checkLockstep(t testing.TB, got, want *annealState, phase string, move int) {
	t.Helper()
	switch {
	case !slices.Equal(got.origins, want.origins):
		t.Fatalf("%s move %d: origins differ from replay", phase, move)
	case !slices.Equal(got.infl, want.infl):
		t.Fatalf("%s move %d: inflated footprints differ from replay", phase, move)
	case !slices.Equal(got.netHPWL, want.netHPWL):
		t.Fatalf("%s move %d: netHPWL differs from replay", phase, move)
	case got.cost != want.cost:
		t.Fatalf("%s move %d: cost %.0f, replay %.0f", phase, move, got.cost, want.cost)
	}
	ov, brute := got.totalOverlap(), bruteOverlap(got)
	if ov != brute || ov != want.totalOverlap() {
		t.Fatalf("%s move %d: index overlap %d, brute force %d, replay %d", phase, move, ov, brute, want.totalOverlap())
	}
	checkOverlapIndex(t, got)
}

// runLockstep calibrates, then drives the production kernel and the replay
// reference through the same moves from the same seed, comparing the two
// states after every move. Both consume their random streams identically,
// so any difference is a difference in what a move leaves behind.
func runLockstep(t testing.TB, d *core.Device, seed uint64, temps []float64, windows []int64, moves int) {
	t.Helper()
	got := annealStateFor(t, d, seed)
	want := annealStateFor(t, d, seed)
	tg := got.calibrateTemperature(defaultInitialAccept)
	tw := want.calibrateTemperatureReplay(defaultInitialAccept)
	if tg != tw {
		t.Fatalf("calibrated temperature %v, replay %v", tg, tw)
	}
	checkLockstep(t, got, want, "calibration", 0)
	for i, temp := range temps {
		got.window, want.window = windows[i], windows[i]
		if temp < 0 {
			temp = tg
		}
		for m := 0; m < moves; m++ {
			ag, aw := got.tryMove(temp), want.tryMoveReplay(temp)
			if ag != aw {
				t.Fatalf("temp %g move %d: accepted %v, replay %v", temp, m, ag, aw)
			}
			checkLockstep(t, got, want, "run", m)
		}
	}
}

// TestAnnealUndoMatchesReplay runs tryMove against the replay-undo
// reference on every suite device, at the calibrated temperature with the
// full-die window and at the final temperature with the narrowest window.
func TestAnnealUndoMatchesReplay(t *testing.T) {
	moves := 1000
	if testing.Short() {
		moves = 200
	}
	for _, b := range bench.Suite() {
		d := b.Build()
		t.Run(b.Name, func(t *testing.T) {
			die := DieFor(d, 0.35)
			runLockstep(t, d, 1, []float64{-1, defaultFinalTemp}, []int64{die.Dx(), 4 * Spacing}, moves)
		})
	}
}

// FuzzAnnealUndo holds tryMove to the replay reference on small random
// Boolean-circuit devices — the generator that produces nets with several
// pins on one component — at fuzzed seeds, temperatures and windows.
func FuzzAnnealUndo(f *testing.F) {
	f.Add(uint8(8), uint8(12), uint8(3), uint64(0xB01), uint64(1), 50.0, uint16(4000))
	f.Add(uint8(3), uint8(9), uint8(2), uint64(7), uint64(2), 0.5, uint16(400))
	f.Add(uint8(1), uint8(1), uint8(0), uint64(0), uint64(3), 1e9, uint16(0))
	f.Fuzz(func(t *testing.T, inputs, gates, levels uint8, circuitSeed, seed uint64, temp float64, window uint16) {
		d := bench.SyntheticCircuit("fuzz", bench.CircuitParams{
			Inputs:        int(inputs%12) + 1,
			Gates:         int(gates%24) + 1,
			Levels:        int(levels % 6),
			InverterRatio: 25,
			Seed:          circuitSeed,
		})
		if len(d.Components) < 2 {
			t.Skip("the annealer needs two components")
		}
		die := DieFor(d, 0.35)
		w := int64(window)%die.Dx() + 1
		runLockstep(t, d, seed, []float64{temp, -1}, []int64{w, die.Dx()}, 150)
	})
}
