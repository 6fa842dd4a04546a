package route

import (
	"context"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/xrand"
)

// This file keeps the binary-heap A* the bucket queue replaced, as the
// reference the production search must match: same path, same expansion
// count, same push count, on any grid.

// pqItem is one frontier entry of the reference heap.
type pqItem struct {
	cell geom.Cell
	prio int64
	g    int64 // cost so far
	seq  int64 // FIFO tiebreak for determinism
}

// pqLess orders the reference frontier: priority, then insertion
// sequence. seq is unique per pushed item, so the order is total.
func pqLess(x, y pqItem) bool {
	if x.prio != y.prio {
		return x.prio < y.prio
	}
	return x.seq < y.seq
}

// pqHeap is a binary min-heap under pqLess.
type pqHeap []pqItem

func (h *pqHeap) heapPush(it pqItem) {
	s := append(*h, it)
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !pqLess(s[i], s[p]) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
	*h = s
}

func (h *pqHeap) heapPop() pqItem {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < n && pqLess(s[l], s[least]) {
			least = l
		}
		if r < n && pqLess(s[r], s[least]) {
			least = r
		}
		if least == i {
			break
		}
		s[i], s[least] = s[least], s[i]
		i = least
	}
	*h = s
	return top
}

func (h pqHeap) heapLen() int { return len(h) }

// heapAStar is the reference A*: a binary heap keyed on (f, seq) over
// Grid.Neighbors4/Blocked/Cost. It returns the path, expansions, pushes
// and the heap's peak length.
func heapAStar(g *geom.Grid, sources []geom.Cell, target geom.Cell) (path []geom.Cell, expansions, pushes, peak int, ok bool) {
	h := func(c geom.Cell) int64 {
		return int64(absInt(c.Col-target.Col) + absInt(c.Row-target.Row))
	}
	index := func(c geom.Cell) int { return c.Row*g.Cols() + c.Col }
	dist := make([]int64, g.NumCells())
	parent := make([]int, g.NumCells())
	seen := make([]bool, g.NumCells())
	var heap pqHeap
	push := func(it pqItem) {
		heap.heapPush(it)
		pushes++
		peak = max(peak, heap.heapLen())
	}
	for _, s := range sources {
		if !g.InBounds(s) {
			continue
		}
		if i := index(s); !seen[i] {
			seen[i], dist[i], parent[i] = true, 0, -1
			push(pqItem{cell: s, prio: h(s), seq: int64(pushes)})
		}
	}
	var nbs []geom.Cell
	for heap.heapLen() > 0 {
		it := heap.heapPop()
		i := index(it.cell)
		if it.g > dist[i] {
			continue
		}
		expansions++
		if it.cell == target {
			for j := i; j != -1; j = parent[j] {
				path = append(path, geom.Cell{Col: j % g.Cols(), Row: j / g.Cols()})
			}
			slices.Reverse(path)
			return path, expansions, pushes, peak, true
		}
		nbs = g.Neighbors4(nbs[:0], it.cell)
		for _, nb := range nbs {
			if !passable(g, nb, target) {
				continue
			}
			ni := index(nb)
			ng := it.g + 1 + int64(g.Cost(nb))
			if !seen[ni] || ng < dist[ni] {
				seen[ni], dist[ni], parent[ni] = true, ng, i
				push(pqItem{cell: nb, prio: ng + h(nb), g: ng, seq: int64(pushes)})
			}
		}
	}
	return nil, expansions, pushes, peak, false
}

// slabLen is the node count the bucket queue's slab holds, the sentinel
// excluded: the peak number of window entries live at once during the
// current search.
func (q *bucketQueue) slabLen() int { return len(q.nodes) - 1 }

// searchCase is one random A* query.
type searchCase struct {
	g       *geom.Grid
	sources []geom.Cell
	target  geom.Cell
}

// randomSearchCase draws a grid of up to 48x48 cells with random blocked
// cells and history costs (sometimes huge, to push priorities past the
// bucket window), a multi-cell source tree grown by random walk, and a
// target that is sometimes buried in a blocked footprint, sometimes off
// the grid.
func randomSearchCase(seed uint64) searchCase {
	rng := xrand.New(seed)
	cols, rows := 1+rng.Intn(48), 1+rng.Intn(48)
	g, err := geom.NewGrid(geom.R(0, 0, int64(cols)*10, int64(rows)*10), 10)
	if err != nil {
		panic(err)
	}
	blockPct := rng.Intn(45)
	costPct := rng.Intn(60)
	maxCost := []int{1, 4, 40, 3000, 1 << 30}[rng.Intn(5)]
	for row := 0; row < rows; row++ {
		for col := 0; col < cols; col++ {
			c := geom.Cell{Col: col, Row: row}
			if rng.Intn(100) < blockPct {
				g.Block(c)
			}
			if rng.Intn(100) < costPct {
				g.AddCost(c, int32(rng.Intn(maxCost+1)))
			}
		}
	}
	randCell := func() geom.Cell { return geom.Cell{Col: rng.Intn(cols), Row: rng.Intn(rows)} }
	var sources []geom.Cell
	for tree := 1 + rng.Intn(3); tree > 0; tree-- {
		c := randCell()
		for steps := rng.Intn(3 * (cols + rows)); ; steps-- {
			sources = append(sources, c)
			if steps <= 0 {
				break
			}
			d := [4]geom.Cell{{Col: 1}, {Col: -1}, {Row: 1}, {Row: -1}}[rng.Intn(4)]
			if n := (geom.Cell{Col: c.Col + d.Col, Row: c.Row + d.Row}); g.InBounds(n) {
				c = n
			}
		}
	}
	if rng.Intn(10) == 0 {
		sources = append(sources, geom.Cell{Col: -1, Row: rng.Intn(rows)})
	}
	target := randCell()
	switch rng.Intn(6) {
	case 0: // a port inside its component's blocked footprint
		for dr := -2; dr <= 2; dr++ {
			for dc := -2; dc <= 2; dc++ {
				g.Block(geom.Cell{Col: target.Col + dc, Row: target.Row + dr})
			}
		}
	case 1:
		target = geom.Cell{Col: cols, Row: rng.Intn(rows)}
	}
	return searchCase{g: g, sources: sources, target: target}
}

// checkAStarMatchesHeap runs both searches on one case and fails on any
// difference in path, expansions or pushes, or if the bucket queue's slab
// outgrew the reference heap.
func checkAStarMatchesHeap(t *testing.T, seed uint64) {
	t.Helper()
	sc := randomSearchCase(seed)
	wantPath, wantExp, wantPush, peak, wantOK := heapAStar(sc.g, sc.sources, sc.target)
	a := acquireArena(sc.g)
	defer a.release()
	path, exp, push, ok := a.astar(context.Background(), sc.g, sc.sources, sc.target)
	if ok != wantOK || exp != wantExp || push != wantPush || !slices.Equal(path, wantPath) {
		t.Fatalf("seed %d: bucket A* = (ok %v, %d expansions, %d pushes, path %v), heap A* = (ok %v, %d, %d, %v)",
			seed, ok, exp, push, path, wantOK, wantExp, wantPush, wantPath)
	}
	if n := a.bq.slabLen(); n > peak {
		t.Fatalf("seed %d: slab holds %d nodes, reference heap peaked at %d", seed, n, peak)
	}
}

// TestAStarMatchesHeap is the differential property test: on random grids
// the bucket-queue A* must be indistinguishable from the binary-heap one.
func TestAStarMatchesHeap(t *testing.T) {
	n := uint64(3000)
	if testing.Short() {
		n = 500
	}
	for seed := uint64(1); seed <= n; seed++ {
		checkAStarMatchesHeap(t, seed)
	}
}

// FuzzAStarMatchesHeap widens TestAStarMatchesHeap to fuzzer-chosen seeds.
func FuzzAStarMatchesHeap(f *testing.F) {
	for _, seed := range []uint64{1, 2, 3, 42, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(checkAStarMatchesHeap)
}

// TestBucketQueueOrder pins the queue's contract directly: under monotone
// pushes (never below the last popped priority), with some priorities
// jumping far past the window, every pop matches the reference heap's
// (prio, seq) pop, and the slab never holds more nodes than were live at
// once.
func TestBucketQueueOrder(t *testing.T) {
	rng := xrand.New(42)
	var q bucketQueue
	for trial := 0; trial < 200; trial++ {
		floor := int64(rng.Intn(50))
		q.reset(floor)
		var ref pqHeap
		seq, peak := int64(0), 0
		pop := func() {
			want := ref.heapPop()
			cell, prio, ok := q.pop()
			if !ok || prio != want.prio || int64(cell) != want.seq {
				t.Fatalf("trial %d: pop = (%d,%d,%v), want (%d,%d)", trial, prio, cell, ok, want.prio, want.seq)
			}
			floor = prio
		}
		for ops := 1 + rng.Intn(400); ops > 0; ops-- {
			if ref.heapLen() > 0 && rng.Intn(3) == 0 {
				pop()
				continue
			}
			prio := floor + int64(rng.Intn(20))
			if rng.Intn(10) == 0 {
				prio += int64(rng.Intn(5 * bucketWindow))
			}
			ref.heapPush(pqItem{prio: prio, seq: seq})
			q.push(int32(seq), prio)
			seq++
			peak = max(peak, ref.heapLen())
		}
		for ref.heapLen() > 0 {
			pop()
		}
		if _, _, ok := q.pop(); ok {
			t.Fatalf("trial %d: queue not drained", trial)
		}
		if q.slabLen() > peak {
			t.Fatalf("trial %d: slab holds %d nodes, peak live was %d", trial, q.slabLen(), peak)
		}
	}
}
