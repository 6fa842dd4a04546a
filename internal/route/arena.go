package route

import (
	"sync"

	"repro/internal/geom"
)

// searchArena is the reusable per-search scratch shared by the three maze
// engines: predecessor links, per-engine cost labels, frontier storage,
// and a neighbor buffer. Arenas are pooled, and instead of refilling the
// O(cells) label arrays before every search, cells carry a generation
// stamp — a label is valid only when its stamp matches the arena's
// current generation, so "clearing" the arena is one integer increment.
//
// Pooling is what makes Router.Search allocation-free in steady state:
// concurrent searches (the serve worker gate, parallel experiments) each
// take their own arena, and arenas only grow, so a search on a small grid
// reuses a big grid's arrays untouched.
type searchArena struct {
	g   *geom.Grid
	gen uint32
	// stamp validates parent/dist/detour entries for the current search.
	stamp  []uint32
	parent []int32 // cell index -> predecessor cell index, -2 root
	dist   []int64 // A*: best path cost so far
	detour []int32 // Hadlock: detour count
	// frontier storage, reused across searches.
	bq      bucketQueue
	queue   []geom.Cell
	next    []geom.Cell
	scratch []geom.Cell
	rev     []geom.Cell
}

var arenaPool = sync.Pool{New: func() any { return new(searchArena) }}

// acquireArena takes a pooled arena sized for g and opens a fresh
// generation. Callers must release() it when the search ends.
func acquireArena(g *geom.Grid) *searchArena {
	a := arenaPool.Get().(*searchArena)
	n := g.NumCells()
	if len(a.stamp) < n {
		a.stamp = make([]uint32, n)
		a.parent = make([]int32, n)
		a.dist = make([]int64, n)
		a.detour = make([]int32, n)
		a.gen = 0 // fresh zeroed stamps: restart generations below it
	}
	a.g = g
	a.gen++
	if a.gen == 0 { // wraparound: re-zero the stamps once per 2^32 searches
		for i := range a.stamp {
			a.stamp[i] = 0
		}
		a.gen = 1
	}
	a.queue = a.queue[:0]
	a.next = a.next[:0]
	return a
}

func (a *searchArena) release() {
	a.g = nil
	arenaPool.Put(a)
}

// visited reports whether cell index i carries labels from this search.
func (a *searchArena) visited(i int32) bool { return a.stamp[i] == a.gen }

// visit stamps cell index i into the current generation.
func (a *searchArena) visit(i int32) { a.stamp[i] = a.gen }

func (a *searchArena) index(c geom.Cell) int32 { return int32(c.Row*a.g.Cols() + c.Col) }

func (a *searchArena) cell(i int32) geom.Cell {
	cols := a.g.Cols()
	return geom.Cell{Col: int(i) % cols, Row: int(i) / cols}
}

// unwind rebuilds the path from a root to the target. The reversal buffer
// is arena-owned; only the returned path is freshly allocated (it outlives
// the search).
func (a *searchArena) unwind(target geom.Cell) []geom.Cell {
	rev := a.rev[:0]
	for i := a.index(target); i != -2; i = a.parent[i] {
		rev = append(rev, a.cell(i))
	}
	a.rev = rev
	out := make([]geom.Cell, len(rev))
	for i, c := range rev {
		out[len(rev)-1-i] = c
	}
	return out
}

// bucketWindow is the number of consecutive priorities the bucket queue
// indexes directly. Wider spans (sources far apart, large history costs)
// spill into the overflow list instead of growing the bucket array.
const bucketWindow = 4096

// qnode is one frontier entry in the bucket queue's slab: a cell index
// and the next entry of the same bucket (or of the free list). Its
// priority is the bucket's, so the node carries no priority at all.
type qnode struct {
	cell, next int32
}

// bucket is a FIFO list of slab nodes; 0 (the slab's sentinel) is nil.
type bucket struct {
	head, tail int32
}

// overflowItem is a frontier entry whose priority lies past the window.
type overflowItem struct {
	cell int32
	prio int64
}

// bucketQueue is the A* frontier: a Dial-style monotone priority queue
// that pops entries by (priority, push order) — exactly the order of a
// binary heap keyed on (prio, seq) — provided no push is below the last
// popped priority. A* guarantees that: every step costs at least 1 and
// the Manhattan heuristic changes by at most 1 per step, so f = g + h
// never decreases along an expansion.
//
// Bucket k holds priority base+k as a FIFO threaded through one node
// slab; popped nodes go on a free list that pushes reuse first, so the
// slab never holds more nodes than the frontier's peak size. Priorities
// at or past base+bucketWindow wait in overflow, in push order; when the
// window drains, the window rebases at the least overflow priority and
// moves the entries that now fit into their buckets, still in push
// order. Window entries all precede overflow entries in priority, so the
// pop order is unchanged.
type bucketQueue struct {
	nodes    []qnode // slab; nodes[0] is the nil sentinel
	free     int32   // free-list head
	buckets  []bucket
	base     int64 // priority of buckets[0]
	cur      int   // no bucket below cur holds a node
	top      int   // no bucket above top holds a node
	overflow []overflowItem
}

// reset empties the queue and anchors the window at base, which must not
// exceed the first priority pushed.
func (q *bucketQueue) reset(base int64) {
	if q.buckets == nil {
		q.buckets = make([]bucket, bucketWindow)
	}
	if q.cur <= q.top {
		clear(q.buckets[q.cur : q.top+1])
	}
	q.nodes = append(q.nodes[:0], qnode{})
	q.free = 0
	q.base, q.cur, q.top = base, 0, -1
	q.overflow = q.overflow[:0]
}

// push enqueues cell at priority prio.
func (q *bucketQueue) push(cell int32, prio int64) {
	k := prio - q.base
	if k >= bucketWindow {
		q.overflow = append(q.overflow, overflowItem{cell: cell, prio: prio})
		return
	}
	q.append(int(k), cell)
}

// append links a node for cell at the tail of bucket k.
func (q *bucketQueue) append(k int, cell int32) {
	n := q.free
	if n != 0 {
		q.free = q.nodes[n].next
		q.nodes[n] = qnode{cell: cell}
	} else {
		n = int32(len(q.nodes))
		q.nodes = append(q.nodes, qnode{cell: cell})
	}
	b := &q.buckets[k]
	if b.tail == 0 {
		b.head = n
	} else {
		q.nodes[b.tail].next = n
	}
	b.tail = n
	if k > q.top {
		q.top = k
	}
}

// pop dequeues the least-priority, earliest-pushed entry. ok is false
// when the queue is empty.
func (q *bucketQueue) pop() (cell int32, prio int64, ok bool) {
	for {
		for ; q.cur <= q.top; q.cur++ {
			b := &q.buckets[q.cur]
			if n := b.head; n != 0 {
				cell = q.nodes[n].cell
				b.head = q.nodes[n].next
				if b.head == 0 {
					b.tail = 0
				}
				q.nodes[n].next = q.free
				q.free = n
				return cell, q.base + int64(q.cur), true
			}
		}
		if len(q.overflow) == 0 {
			return 0, 0, false
		}
		q.rebase()
	}
}

// rebase moves the drained window to the least overflow priority and
// pulls the overflow entries that now fit into their buckets, keeping
// the rest in push order.
func (q *bucketQueue) rebase() {
	base := q.overflow[0].prio
	for _, it := range q.overflow[1:] {
		base = min(base, it.prio)
	}
	q.base, q.cur, q.top = base, 0, -1
	kept := q.overflow[:0]
	for _, it := range q.overflow {
		if k := it.prio - base; k < bucketWindow {
			q.append(int(k), it.cell)
		} else {
			kept = append(kept, it)
		}
	}
	q.overflow = kept
}
