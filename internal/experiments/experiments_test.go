package experiments

import (
	"strconv"
	"testing"

	"repro/internal/bench"
)

func TestTable1Shape(t *testing.T) {
	tb := Table1()
	if len(tb.Rows) != 12 {
		t.Fatalf("rows = %d, want 12", len(tb.Rows))
	}
	// Suite order and class split.
	if tb.Rows[0][0] != "aquaflex_3b" || tb.Rows[11][0] != "planar_synthetic_5" {
		t.Errorf("row order: %v ... %v", tb.Rows[0][0], tb.Rows[11][0])
	}
	// Synthetic sizes grow monotonically in the components column.
	prev := 0
	for _, name := range []string{"planar_synthetic_1", "planar_synthetic_2", "planar_synthetic_3", "planar_synthetic_4", "planar_synthetic_5"} {
		row := tb.RowByFirst(name)
		if row == nil {
			t.Fatalf("missing row %s", name)
		}
		n, err := strconv.Atoi(row[3])
		if err != nil || n <= prev {
			t.Errorf("%s components = %q (prev %d)", name, row[3], prev)
		}
		prev = n
	}
	// Assay devices are two-layer; synthetics single-layer.
	if tb.RowByFirst("rotary_pcr")[2] != "2" || tb.RowByFirst("planar_synthetic_1")[2] != "1" {
		t.Error("layer counts wrong")
	}
}

func TestTable2Shape(t *testing.T) {
	tb := Table2()
	if len(tb.Rows) != 12 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	if tb.Columns[0] != "benchmark" || len(tb.Columns) < 6 {
		t.Errorf("columns = %v", tb.Columns)
	}
	// Every benchmark has at least one PORT.
	portCol := -1
	for i, c := range tb.Columns {
		if c == "PORT" {
			portCol = i
		}
	}
	if portCol < 0 {
		t.Fatalf("no PORT column in %v", tb.Columns)
	}
	for _, row := range tb.Rows {
		if row[portCol] == "0" {
			t.Errorf("%s has no ports", row[0])
		}
	}
}

func TestTable3AllDetected(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-injection sweep is slow in -short mode")
	}
	tb := Table3()
	if len(tb.Rows) != 8 {
		t.Fatalf("rows = %d, want 8 mutation classes", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		if row[4] != "100.0%" {
			t.Errorf("class %s detection rate = %s, want 100.0%%", row[0], row[4])
		}
		app, _ := strconv.Atoi(row[2])
		if app == 0 {
			t.Errorf("class %s never applicable", row[0])
		}
	}
}

func TestFig2Shape(t *testing.T) {
	f := Fig2()
	for _, class := range []string{"assay", "synthetic"} {
		s := f.ByName(class)
		if s == nil || len(s.X) == 0 {
			t.Fatalf("series %s missing or empty", class)
		}
		var total float64
		for _, y := range s.Y {
			total += y
		}
		if total < 10 {
			t.Errorf("series %s counts only %v components", class, total)
		}
	}
}

// fig3Subset keeps the placement comparison fast in tests.
func fig3Subset(t *testing.T) []bench.Benchmark {
	t.Helper()
	var out []bench.Benchmark
	for _, name := range []string{"aquaflex_5a", "rotary_pcr", "planar_synthetic_2"} {
		b, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

func TestFig3AnnealNeverWorseThanGreedy(t *testing.T) {
	f, tb := Fig3On(fig3Subset(t))
	anneal := f.ByName("anneal")
	if anneal == nil {
		t.Fatal("anneal series missing")
	}
	for i, y := range anneal.Y {
		if y > 1.0+1e-9 {
			t.Errorf("benchmark %d: anneal normalized HPWL %v > 1 (worse than greedy)", i, y)
		}
	}
	// Companion table has 3 benchmarks x 3 engines rows.
	if len(tb.Rows) != 9 {
		t.Errorf("companion rows = %d", len(tb.Rows))
	}
	// At least one strict improvement.
	improved := false
	for _, y := range anneal.Y {
		if y < 0.999 {
			improved = true
		}
	}
	if !improved {
		t.Error("anneal never improved on greedy in the subset")
	}
}

func TestFig4RoutersProduceResults(t *testing.T) {
	var subset []bench.Benchmark
	for _, name := range []string{"rotary_pcr", "aquaflex_3b"} {
		b, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		subset = append(subset, b)
	}
	tb := Fig4On(subset)
	if len(tb.Rows) != 6 {
		t.Fatalf("rows = %d, want 2 benchmarks x 3 routers", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		routed, _ := strconv.Atoi(row[2])
		total, _ := strconv.Atoi(row[3])
		if total == 0 || routed == 0 {
			t.Errorf("%s/%s routed %d/%d", row[0], row[1], routed, total)
		}
		if float64(routed)/float64(total) < 0.8 {
			t.Errorf("%s/%s completion below 0.8", row[0], row[1])
		}
	}
	// Lee expands at least as many nodes as A* in aggregate.
	expansions := map[string]int{}
	for _, row := range tb.Rows {
		n, _ := strconv.Atoi(row[6])
		expansions[row[1]] += n
	}
	if expansions["astar"] > expansions["lee"] {
		t.Errorf("A* aggregate expansions %d exceed Lee %d", expansions["astar"], expansions["lee"])
	}
}

func TestFig5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("work-scaling sweep is slow in -short mode")
	}
	f := Fig5()
	for _, name := range []string{"parse", "validate", "place", "route"} {
		s := f.ByName(name)
		if s == nil {
			t.Fatalf("series %s missing", name)
		}
		if len(s.X) != Fig5Points {
			t.Errorf("series %s has %d points, want %d", name, len(s.X), Fig5Points)
		}
		// Sizes and per-stage work must grow monotonically with the sweep.
		// Route work is the exception: failed searches dominate it, so it
		// follows how many nets each placement leaves unroutable more than
		// size, and only its growth over the whole sweep is pinned.
		for i := 1; i < len(s.X); i++ {
			if s.X[i] <= s.X[i-1] {
				t.Errorf("series %s x not increasing: %v", name, s.X)
			}
			if name != "route" && s.Y[i] <= s.Y[i-1] {
				t.Errorf("series %s work not increasing: %v", name, s.Y)
			}
		}
		if s.Y[0] <= 0 {
			t.Errorf("series %s reports no work at the smallest size: %v", name, s.Y)
		}
	}
	// Routing is super-linear over the sweep: work grows by a larger
	// factor from the smallest to the largest device than size does.
	ro := f.ByName("route")
	last := len(ro.X) - 1
	if ro.Y[last]/ro.Y[0] <= ro.X[last]/ro.X[0] {
		t.Errorf("route work grows %.1fx over a %.1fx size sweep, want super-linear (%v over %v)",
			ro.Y[last]/ro.Y[0], ro.X[last]/ro.X[0], ro.Y, ro.X)
	}
	// Shape: placement (annealing moves) dominates parsing (bytes) at the
	// largest size, mirroring the wall-clock asymmetry it stands in for.
	pl := f.ByName("place")
	pa := f.ByName("parse")
	if pl.Y[len(pl.Y)-1] <= pa.Y[len(pa.Y)-1] {
		t.Errorf("place work (%v) does not dominate parse work (%v) at max size",
			pl.Y[len(pl.Y)-1], pa.Y[len(pa.Y)-1])
	}
	// The work metrics are deterministic: a second sweep is identical.
	g := Fig5()
	for _, name := range []string{"parse", "validate", "place", "route"} {
		a, b := f.ByName(name), g.ByName(name)
		for i := range a.Y {
			if a.Y[i] != b.Y[i] {
				t.Errorf("series %s not deterministic at point %d: %v vs %v", name, i, a.Y[i], b.Y[i])
			}
		}
	}
}

func TestFig6Fidelity(t *testing.T) {
	tb := Fig6()
	if len(tb.Rows) != 12 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		// JSON round trips are always lossless.
		if row[2] != "yes" {
			t.Errorf("%s: json-lossless = %s", row[0], row[2])
		}
		// No suite benchmark fits the MINT subset exactly: assay devices
		// use multi-layer valves, and every benchmark has some fanout,
		// which MINT must split. Lossless "yes" therefore implies 0 notes,
		// and every suite row today is lossy with a note trail.
		if row[3] == "yes" && row[4] != "0" {
			t.Errorf("%s: lossless but %s notes", row[0], row[4])
		}
		if row[3] == "no" && row[4] == "0" {
			t.Errorf("%s: lossy conversion must explain itself with notes", row[0])
		}
	}
}

func TestRunAndIDs(t *testing.T) {
	ids := IDs()
	if len(ids) != 9 {
		t.Fatalf("IDs = %v", ids)
	}
	// Cheap experiments run through the dispatcher.
	for _, id := range []string{"table1", "table2", "fig2", "fig6"} {
		text, err := Run(id)
		if err != nil || text == "" {
			t.Errorf("Run(%s) = %v", id, err)
		}
	}
	if _, err := Run("bogus"); err == nil {
		t.Error("unknown experiment should error")
	}
}

func TestExtGradientMonotone(t *testing.T) {
	f := ExtGradient()
	s := f.ByName("profile")
	if s == nil || len(s.Y) != 6 {
		t.Fatalf("profile series = %+v", s)
	}
	for i := 1; i < len(s.Y); i++ {
		if s.Y[i] > s.Y[i-1]+1e-9 {
			t.Errorf("profile not monotone: %v", s.Y)
		}
	}
	if s.Y[0] < 0.9 || s.Y[5] > 0.1 {
		t.Errorf("profile endpoints = %v and %v", s.Y[0], s.Y[5])
	}
}
