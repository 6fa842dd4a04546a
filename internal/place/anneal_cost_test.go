package place

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
)

// annealStateFor builds a move-ready anneal state on d's greedy start: the
// full-die window Place opens with.
func annealStateFor(t testing.TB, d *core.Device, seed uint64) *annealState {
	t.Helper()
	die := DieFor(d, 0.35)
	start, err := greedyPlace(d, die)
	if err != nil {
		t.Fatal(err)
	}
	st := newAnnealState(d, start, seed)
	st.window = die.Dx()
	return st
}

// checkCostExact fails unless every cached net HPWL equals a recompute and
// the incrementally maintained cost equals fullCost exactly. Costs are
// integer-valued float64 sums far below 2^53, so the comparison is exact
// arithmetic, not a tolerance.
func checkCostExact(t testing.TB, st *annealState, phase string, move int) {
	t.Helper()
	for i := range st.netHPWL {
		if got, want := st.netHPWL[i], st.netHPWLOf(i); got != want {
			t.Fatalf("%s move %d: netHPWL[%d] = %d, recompute gives %d", phase, move, i, got, want)
		}
	}
	if full := st.fullCost(); st.cost != full {
		t.Fatalf("%s move %d: incremental cost %.0f, fullCost %.0f (drift %.0f)", phase, move, st.cost, full, st.cost-full)
	}
}

// TestAnnealCostMatchesFullCost holds the move kernel's incremental cost to
// a from-scratch recompute after every move, on every suite device, at a
// hot temperature (most moves accepted, full-die window) and a cold one
// (nearly all uphill moves rejected, narrow window). Rejected moves restore
// the saved cost, so they are exact only if every accepted delta is.
func TestAnnealCostMatchesFullCost(t *testing.T) {
	const moves = 2000
	for _, b := range bench.Suite() {
		d := b.Build()
		t.Run(b.Name, func(t *testing.T) {
			st := annealStateFor(t, d, 1)
			checkCostExact(t, st, "start", 0)
			hot := st.calibrateTemperature(defaultInitialAccept)
			checkCostExact(t, st, "calibration", 0)
			for _, phase := range []struct {
				name   string
				temp   float64
				window int64
			}{
				{"hot", hot, st.die.Dx()},
				{"cold", defaultFinalTemp, 4 * Spacing},
			} {
				st.window = phase.window
				for m := 0; m < moves; m++ {
					st.tryMove(phase.temp)
					checkCostExact(t, st, phase.name, m)
				}
			}
		})
	}
}

// TestAnnealNetsOfNoDuplicates pins the construction invariant the
// incremental cost rests on: a net touching a component through several
// pins is listed once for it, so a move counts that net's HPWL change once.
func TestAnnealNetsOfNoDuplicates(t *testing.T) {
	for _, b := range bench.Suite() {
		d := b.Build()
		st := annealStateFor(t, d, 1)
		for k, nets := range st.netsOf {
			seen := make(map[int32]bool, len(nets))
			for _, ni := range nets {
				if seen[ni] {
					t.Errorf("%s: component %s lists net %s twice", b.Name, st.comps[k].ID, d.Connections[ni].ID)
				}
				seen[ni] = true
			}
		}
	}
}
