package place

import (
	"math"

	"repro/internal/geom"
)

// overlapIndex is a uniform bucket grid over inflated component
// footprints. It answers the annealer's only spatial question — "which
// components can component k intrude on right now?" — by scanning the
// handful of buckets k's footprint touches instead of all n components.
//
// Correctness invariant: two footprints with non-zero intrusion overlap in
// device space, and the bucket mapping is monotone per axis, so they always
// share at least one bucket. Components are deduplicated per query with a
// generation stamp, and intrusion sums are int64 (order-independent), so
// the index returns bit-for-bit the totals of the quadratic scan it
// replaces — the determinism tests hold the annealer to that.
type overlapIndex struct {
	origin     geom.Point
	bucket     int64 // bucket side in µm
	cols, rows int
	buckets    [][]int32 // bucket -> indices of components whose rect touches it
	ranges     []bucketSpan
	lastSeen   []uint32 // component -> generation of the last query that saw it
	gen        uint32
}

// bucketSpan is an inclusive bucket-coordinate rectangle.
type bucketSpan struct {
	c0, r0, c1, r1 int32
}

// newOverlapIndex builds the index over the die for n components; rects
// are inserted afterwards via update as components gain origins.
func newOverlapIndex(die geom.Rect, n int) *overlapIndex {
	side := int(math.Ceil(math.Sqrt(float64(n))))
	if side < 1 {
		side = 1
	}
	if side > 128 {
		side = 128
	}
	bucket := die.Dx() / int64(side)
	if bucket < 1 {
		bucket = 1
	}
	ix := &overlapIndex{
		origin:   die.Min,
		bucket:   bucket,
		cols:     side,
		rows:     side,
		buckets:  make([][]int32, side*side),
		ranges:   make([]bucketSpan, n),
		lastSeen: make([]uint32, n),
	}
	for i := range ix.ranges {
		ix.ranges[i] = bucketSpan{c0: 1, c1: 0} // empty: not inserted yet
	}
	return ix
}

// spanFor maps a device-space rectangle to the clamped bucket span it
// covers. The per-axis mapping is monotone, so overlapping rectangles map
// to overlapping spans even when they extend beyond the die.
func (ix *overlapIndex) spanFor(r geom.Rect) bucketSpan {
	clampC := func(v int64) int32 {
		b := v / ix.bucket
		if v < 0 {
			b = 0
		}
		if b < 0 {
			b = 0
		}
		if b >= int64(ix.cols) {
			b = int64(ix.cols) - 1
		}
		return int32(b)
	}
	clampR := func(v int64) int32 {
		b := v / ix.bucket
		if v < 0 {
			b = 0
		}
		if b < 0 {
			b = 0
		}
		if b >= int64(ix.rows) {
			b = int64(ix.rows) - 1
		}
		return int32(b)
	}
	// Max is exclusive; the last covered micrometer decides the end bucket.
	return bucketSpan{
		c0: clampC(r.Min.X - ix.origin.X),
		r0: clampR(r.Min.Y - ix.origin.Y),
		c1: clampC(r.Max.X - 1 - ix.origin.X),
		r1: clampR(r.Max.Y - 1 - ix.origin.Y),
	}
}

func (s bucketSpan) empty() bool { return s.c0 > s.c1 || s.r0 > s.r1 }

func (s bucketSpan) equal(o bucketSpan) bool { return s == o }

// update moves component k to cover rect r, editing only the buckets whose
// membership changes. Small displacements usually keep the same span and
// cost nothing.
func (ix *overlapIndex) update(k int, r geom.Rect) {
	old := ix.ranges[k]
	now := ix.spanFor(r)
	if old.equal(now) {
		return
	}
	if !old.empty() {
		for row := old.r0; row <= old.r1; row++ {
			for col := old.c0; col <= old.c1; col++ {
				b := int(row)*ix.cols + int(col)
				ix.removeFrom(b, int32(k))
			}
		}
	}
	for row := now.r0; row <= now.r1; row++ {
		for col := now.c0; col <= now.c1; col++ {
			b := int(row)*ix.cols + int(col)
			ix.buckets[b] = append(ix.buckets[b], int32(k))
		}
	}
	ix.ranges[k] = now
}

func (ix *overlapIndex) removeFrom(b int, k int32) {
	s := ix.buckets[b]
	for i, v := range s {
		if v == k {
			s[i] = s[len(s)-1]
			ix.buckets[b] = s[:len(s)-1]
			return
		}
	}
}

// nextGen advances the query generation, resetting stamps on the (in
// practice unreachable) wraparound.
func (ix *overlapIndex) nextGen() uint32 {
	ix.gen++
	if ix.gen == 0 {
		for i := range ix.lastSeen {
			ix.lastSeen[i] = 0
		}
		ix.gen = 1
	}
	return ix.gen
}

// overlapWith sums intrusion of component k against every other inserted
// component, visiting only k's buckets. rects[j] must hold each inserted
// component's current inflated footprint.
func (ix *overlapIndex) overlapWith(k int, rects []geom.Rect) int64 {
	return ix.overlapIn(ix.ranges[k], k, rects[k], rects)
}

// overlapAt sums the intrusion footprint rk would have as component k's,
// without moving k in the index: k's own entry is skipped wherever it is
// indexed, so a move can be costed before the index learns it.
func (ix *overlapIndex) overlapAt(k int, rk geom.Rect, rects []geom.Rect) int64 {
	return ix.overlapIn(ix.spanFor(rk), k, rk, rects)
}

// overlapIn sums intrusion of footprint rk against every inserted
// component but k listed in the buckets of span.
func (ix *overlapIndex) overlapIn(span bucketSpan, k int, rk geom.Rect, rects []geom.Rect) int64 {
	if span.empty() {
		return 0
	}
	gen := ix.nextGen()
	var total int64
	for row := span.r0; row <= span.r1; row++ {
		for col := span.c0; col <= span.c1; col++ {
			for _, j := range ix.buckets[int(row)*ix.cols+int(col)] {
				if int(j) == k || ix.lastSeen[j] == gen {
					continue
				}
				ix.lastSeen[j] = gen
				total += intrusion(rk, rects[j])
			}
		}
	}
	return total
}

// overlapAfter sums intrusion of component k against inserted components
// with a strictly greater index — the "each pair once" form totalOverlap
// needs.
func (ix *overlapIndex) overlapAfter(k int, rects []geom.Rect) int64 {
	span := ix.ranges[k]
	if span.empty() {
		return 0
	}
	gen := ix.nextGen()
	rk := rects[k]
	var total int64
	for row := span.r0; row <= span.r1; row++ {
		for col := span.c0; col <= span.c1; col++ {
			for _, j := range ix.buckets[int(row)*ix.cols+int(col)] {
				if int(j) <= k || ix.lastSeen[j] == gen {
					continue
				}
				ix.lastSeen[j] = gen
				total += intrusion(rk, rects[j])
			}
		}
	}
	return total
}
