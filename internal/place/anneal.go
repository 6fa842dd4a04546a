package place

import (
	"context"
	"math"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/xrand"
)

// Annealer is the simulated-annealing engine. Starting from the greedy
// placement, it explores displacement and swap moves under a geometric
// cooling schedule, minimizing HPWL plus an overlap penalty, and finishes
// with shelf legalization. This mirrors the placer of the Fluigi CAD flow
// the paper's benchmarks were designed to exercise.
type Annealer struct{}

// Name identifies the engine.
func (Annealer) Name() string { return "anneal" }

// Default annealing parameters; Options may override each.
const (
	defaultCoolingRate   = 0.95
	defaultInitialAccept = 0.8
	defaultFinalTemp     = 0.1
	// overlapWeight converts overlapped µm of bounding-box intrusion into
	// cost units comparable with HPWL µm.
	overlapWeight = 4
)

// MoveBatch is the annealer's cancellation granularity: the context is
// polled every MoveBatch proposed moves, so a cancelled request aborts
// within at most one batch of extra work. The batch bounds the poll
// overhead without letting a runaway schedule outlive its request.
const MoveBatch = 64

// pinRef is one resolved connection endpoint: the component's slice index
// plus the port's offset from the component origin. Resolution is static
// for a device, so it happens once at state construction instead of once
// per HPWL recomputation.
type pinRef struct {
	comp int32
	off  geom.Point
}

// annealState carries the incremental cost bookkeeping. Everything the
// move kernel touches is int-indexed: origins, inflated footprints, and
// net membership live in slices rebuilt from the start placement's
// Origins map at construction, so proposing a move does no map lookups
// and no allocation.
type annealState struct {
	device *core.Device
	comps  []*core.Component
	die    geom.Rect
	// origins/placed/infl mirror Placement.Origins by component index;
	// infl caches the Spacing/2-inflated footprint the overlap cost uses.
	origins []geom.Point
	placed  []bool
	infl    []geom.Rect
	// ovl answers overlap queries from the buckets k's footprint touches
	// instead of scanning all n components.
	ovl *overlapIndex
	// netHPWL caches each connection's current HPWL.
	netHPWL []int64
	// netsOf maps component index to indices of nets touching it.
	netsOf [][]int32
	// pins holds each net's resolved endpoints.
	pins [][]pinRef
	cost float64
	rng  *xrand.Source
	// window bounds displacement proposals around a component's current
	// position; adapted per temperature level.
	window int64
	// Best-so-far tracking. Instead of deep-cloning the placement on every
	// improving move, bestOrigins lags origins by exactly the dirty set —
	// the components moved since the last best — and an improvement syncs
	// only those. materializeBest builds the one Placement the schedule
	// returns.
	bestCost    float64
	bestOrigins []geom.Point
	bestPlaced  []bool
	dirty       []int32
	isDirty     []bool
	// undo is the pre-move record a rejected move is restored from.
	undo moveUndo
	// replica identifies this state in multi-replica runs (-1 for the
	// classic single-replica schedule); replicaLabel is its pre-rendered
	// metric label so the batch flush does no conversions.
	replica      int
	replicaLabel string
}

// moveUndo saves what one proposed move overwrites, so a rejected move is
// written back instead of being replayed in reverse: the moved components'
// origins and inflated footprints, the cached HPWL of their nets, and the
// cost. Restoring the cost verbatim equals replaying only because every
// delta is exact (TestAnnealCostMatchesFullCost); hpwl is preallocated at
// construction for the two components with the most nets, so saving never
// allocates.
type moveUndo struct {
	n       int // moved components: 1 for a displacement, 2 for a swap
	comps   [2]int32
	origins [2]geom.Point
	infl    [2]geom.Rect
	cost    float64
	// hpwl holds netHPWL over netsOf[comps[0]], then netsOf[comps[1]].
	hpwl []int64
}

// Place runs the annealing schedule and returns a legalized placement.
// Cancelling ctx aborts the schedule within one MoveBatch of moves.
func (Annealer) Place(ctx context.Context, d *core.Device, opts Options) (*Placement, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	die := DieFor(d, opts.utilization())
	start, err := greedyPlace(d, die)
	if err != nil {
		return nil, err
	}
	if len(d.Components) < 2 {
		return start, nil
	}

	cooling := opts.CoolingRate
	if cooling <= 0 || cooling >= 1 {
		cooling = defaultCoolingRate
	}
	movesPerTemp := opts.MovesPerTemp
	if movesPerTemp <= 0 {
		n := len(d.Components)
		movesPerTemp = 10 * n
	}
	initialAccept := opts.InitialAccept
	if initialAccept <= 0 || initialAccept >= 1 {
		initialAccept = defaultInitialAccept
	}
	if opts.replicas() > 1 {
		return annealParallel(ctx, d, start, opts, cooling, movesPerTemp, initialAccept)
	}

	st := newAnnealState(d, start, opts.Seed)
	temp := st.calibrateTemperature(initialAccept)
	// Displacement window shrinks adaptively (VPR-style): target ~44%%
	// acceptance by narrowing proposals as the schedule cools.
	st.window = die.Dx()
	// Calibration proposed and undid moves; re-anchor the best snapshot on
	// the restored state.
	st.bestCost = st.cost
	st.syncBest()
	// Telemetry rides the MoveBatch poll points: deltas since the last
	// flush go to the recorder, which is a nil no-op when disabled. The
	// recorder only reads the schedule — it never feeds it — so outputs are
	// identical with telemetry on or off.
	rec := obs.FromContext(ctx)
	moves := 0
	for temp > defaultFinalTemp {
		accepted, err := st.runMoves(ctx, rec, temp, movesPerTemp)
		if err != nil {
			return nil, err
		}
		moves += movesPerTemp
		st.adaptWindow(accepted, movesPerTemp)
		temp *= cooling
	}

	legal := Legalize(st.materializeBest())
	if err := CheckLegal(legal); err != nil {
		return nil, err
	}
	legal.Moves = moves
	// Legalization can cost back some of the annealer's gains; never
	// return a result worse than the legal greedy start.
	if Evaluate(legal).HPWL >= Evaluate(start).HPWL {
		start.Moves = moves
		return start, nil
	}
	return legal, nil
}

// runMoves proposes n moves at the given temperature — the one move loop
// both the classic schedule and every parallel-tempering replica run. The
// context is polled and telemetry deltas flush at MoveBatch boundaries;
// best-so-far tracking folds in after every accepted improvement. Returns
// the accepted count, or the context's error if the schedule was
// cancelled mid-level.
func (st *annealState) runMoves(ctx context.Context, rec *obs.Recorder, temp float64, n int) (int, error) {
	accepted := 0
	flushedMoves, flushedAccepted := 0, 0
	for m := 0; m < n; m++ {
		if m%MoveBatch == 0 {
			if m > 0 {
				st.flushBatch(rec, temp, m-flushedMoves, accepted-flushedAccepted)
				flushedMoves, flushedAccepted = m, accepted
			}
			if err := ctx.Err(); err != nil {
				return accepted, err
			}
		}
		if st.tryMove(temp) {
			accepted++
		}
		if st.cost < st.bestCost {
			st.bestCost = st.cost
			st.syncBest()
		}
	}
	st.flushBatch(rec, temp, n-flushedMoves, accepted-flushedAccepted)
	return accepted, nil
}

// flushBatch reports one batch of schedule work to the recorder: the
// aggregate series for the classic schedule, the per-replica series for
// parallel-tempering states.
func (st *annealState) flushBatch(rec *obs.Recorder, temp float64, moves, accepted int) {
	if st.replica < 0 {
		rec.AnnealBatch(temp, moves, accepted)
		return
	}
	rec.AnnealReplicaBatch(st.replicaLabel, temp, moves, accepted)
}

// adaptWindow updates the displacement window from one temperature
// level's acceptance rate, targeting ~44% acceptance (VPR-style),
// clamped to [4*Spacing, die width].
func (st *annealState) adaptWindow(accepted, n int) {
	if n <= 0 {
		return
	}
	rate := float64(accepted) / float64(n)
	if rate < 0.44 {
		st.window = st.window * 9 / 10
	} else {
		st.window = st.window * 11 / 10
	}
	if st.window < 4*Spacing {
		st.window = 4 * Spacing
	}
	if st.window > st.die.Dx() {
		st.window = st.die.Dx()
	}
}

func newAnnealState(d *core.Device, start *Placement, seed uint64) *annealState {
	n := len(d.Components)
	st := &annealState{
		device:  d,
		die:     start.Die,
		rng:     xrand.New(seed ^ 0x5A5A_1234),
		replica: -1,
	}
	st.comps = make([]*core.Component, n)
	compIdx := make(map[string]int32, n)
	for i := range d.Components {
		st.comps[i] = &d.Components[i]
		compIdx[d.Components[i].ID] = int32(i)
	}
	st.origins = make([]geom.Point, n)
	st.placed = make([]bool, n)
	st.infl = make([]geom.Rect, n)
	st.ovl = newOverlapIndex(st.die, n)
	for i, c := range st.comps {
		if o, ok := start.Origins[c.ID]; ok {
			st.origins[i] = o
			st.placed[i] = true
			st.infl[i] = c.Footprint(o).Inflate(Spacing / 2)
			st.ovl.update(i, st.infl[i])
		}
	}
	ix := d.Index()
	st.netsOf = make([][]int32, n)
	st.pins = make([][]pinRef, len(d.Connections))
	for i := range d.Connections {
		cn := &d.Connections[i]
		for _, t := range cn.Targets() {
			c, port, ok := ix.ResolveTarget(t)
			if !ok {
				continue
			}
			k, ok := compIdx[c.ID]
			if !ok {
				continue
			}
			st.pins[i] = append(st.pins[i], pinRef{comp: k, off: port.Point()})
			// A net with several pins on one component is listed once:
			// a move must count that net's HPWL change once. Nets are
			// visited in index order, so a repeat is always the tail.
			if nets := st.netsOf[k]; len(nets) == 0 || nets[len(nets)-1] != int32(i) {
				st.netsOf[k] = append(nets, int32(i))
			}
		}
	}
	// A swap saves the nets of two components, so the undo buffer holds
	// the two longest net lists. It shares netHPWL's allocation.
	var most, second int
	for _, nets := range st.netsOf {
		if l := len(nets); l > most {
			most, second = l, most
		} else if l > second {
			second = l
		}
	}
	nc := len(d.Connections)
	buf := make([]int64, nc+most+second)
	st.netHPWL = buf[:nc:nc]
	st.undo.hpwl = buf[nc:nc]
	for i := range st.netHPWL {
		st.netHPWL[i] = st.netHPWLOf(i)
	}
	st.cost = st.fullCost()
	st.bestCost = st.cost
	st.bestOrigins = append([]geom.Point(nil), st.origins...)
	st.bestPlaced = append([]bool(nil), st.placed...)
	st.isDirty = make([]bool, n)
	return st
}

// netHPWLOf recomputes one net's half-perimeter wire length from the
// int-indexed origins — the allocation-free replacement for
// geom.HPWL(netPins(...)). Pins on unplaced components are skipped, like
// PortPosition's ok=false.
func (st *annealState) netHPWLOf(ni int) int64 {
	var minX, minY, maxX, maxY int64
	pins := 0
	for _, pr := range st.pins[ni] {
		if !st.placed[pr.comp] {
			continue
		}
		o := st.origins[pr.comp]
		x := o.X + pr.off.X
		y := o.Y + pr.off.Y
		if pins == 0 {
			minX, maxX, minY, maxY = x, x, y, y
		} else {
			if x < minX {
				minX = x
			}
			if x > maxX {
				maxX = x
			}
			if y < minY {
				minY = y
			}
			if y > maxY {
				maxY = y
			}
		}
		pins++
	}
	if pins < 2 {
		return 0
	}
	return (maxX - minX) + (maxY - minY)
}

// markDirty records that component k's origin diverged from the best
// snapshot.
func (st *annealState) markDirty(k int) {
	if !st.isDirty[k] {
		st.isDirty[k] = true
		st.dirty = append(st.dirty, int32(k))
	}
}

// syncBest folds the dirty set into the best snapshot.
func (st *annealState) syncBest() {
	for _, k := range st.dirty {
		st.bestOrigins[k] = st.origins[k]
		st.bestPlaced[k] = st.placed[k]
		st.isDirty[k] = false
	}
	st.dirty = st.dirty[:0]
}

// materializeBest builds the Placement of the best state seen — the one
// per-schedule allocation that replaces a Clone per improving move.
func (st *annealState) materializeBest() *Placement {
	p := &Placement{
		Device:  st.device,
		Die:     st.die,
		Origins: make(map[string]geom.Point, len(st.comps)),
	}
	for i, c := range st.comps {
		if st.bestPlaced[i] {
			p.Origins[c.ID] = st.bestOrigins[i]
		}
	}
	return p
}

// fullCost recomputes cost from scratch: total HPWL + overlap penalty.
func (st *annealState) fullCost() float64 {
	var hpwl int64
	for _, h := range st.netHPWL {
		hpwl += h
	}
	return float64(hpwl) + overlapWeight*float64(st.totalOverlap())
}

// totalOverlap sums pairwise footprint intrusion depth, in µm. Each
// unordered pair is counted once via the bucket index's index-ordered
// query.
func (st *annealState) totalOverlap() int64 {
	var total int64
	for i := range st.comps {
		if !st.placed[i] {
			continue
		}
		total += st.ovl.overlapAfter(i, st.infl)
	}
	return total
}

// overlapWith sums the intrusion of component k against all others,
// consulting only the buckets k's inflated footprint touches.
func (st *annealState) overlapWith(k int) int64 {
	if !st.placed[k] {
		return 0
	}
	return st.ovl.overlapWith(k, st.infl)
}

// intrusion measures how deeply two rectangles interpenetrate: the
// semi-perimeter of their intersection. Unlike raw intersection area it
// keeps gradients meaningful for thin slivers.
func intrusion(a, b geom.Rect) int64 {
	x := a.Intersect(b)
	if x.Empty() {
		return 0
	}
	return x.Dx() + x.Dy()
}

// calibrateTemperature samples random moves to find the cost-delta scale,
// then sets T0 so the target fraction of uphill moves is accepted.
func (st *annealState) calibrateTemperature(accept float64) float64 {
	const samples = 50
	var sum float64
	n := 0
	for i := 0; i < samples; i++ {
		k := st.rng.Intn(len(st.comps))
		o := st.randomOrigin(k)
		st.save(k, -1)
		delta := st.moveOrigin(k, o, st.footprintAt(k, o))
		if delta > 0 {
			sum += delta
			n++
		}
		st.restore()
	}
	if n == 0 {
		return 1000
	}
	meanUp := sum / float64(n)
	return -meanUp / math.Log(accept)
}

// randomOrigin proposes a new origin for component k within the current
// displacement window of its present position, clamped to the die.
func (st *annealState) randomOrigin(k int) geom.Point {
	die := st.die
	w := st.window
	if w <= 0 {
		w = die.Dx()
	}
	c := st.comps[k]
	cur := st.origins[k]
	x := cur.X + st.rng.Int63n(2*w+1) - w
	y := cur.Y + st.rng.Int63n(2*w+1) - w
	maxX := die.Max.X - c.XSpan
	maxY := die.Max.Y - c.YSpan
	if x < die.Min.X {
		x = die.Min.X
	}
	if y < die.Min.Y {
		y = die.Min.Y
	}
	if x > maxX {
		x = maxX
	}
	if y > maxY {
		y = maxY
	}
	return geom.Pt(x, y)
}

// applyDisplace moves component k to origin o, updates the incremental
// cost, and returns the cost delta.
func (st *annealState) applyDisplace(k int, o geom.Point) float64 {
	r := st.footprintAt(k, o)
	delta := st.moveOrigin(k, o, r)
	st.placeFootprint(k, r)
	return delta
}

// footprintAt is component k's inflated footprint at origin o.
func (st *annealState) footprintAt(k int, o geom.Point) geom.Rect {
	return st.comps[k].Footprint(o).Inflate(Spacing / 2)
}

// moveOrigin moves component k to origin o, whose inflated footprint is r,
// updates the cached net HPWL and the cost, and returns the cost delta.
// The overlap of r is measured against the index without entering it, so
// k's footprint in infl and the index stays the old one until
// placeFootprint: a rejected displacement never edits the index.
func (st *annealState) moveOrigin(k int, o geom.Point, r geom.Rect) float64 {
	beforeOverlap := st.overlapWith(k)
	afterOverlap := st.ovl.overlapAt(k, r, st.infl)
	var beforeHPWL int64
	for _, ni := range st.netsOf[k] {
		beforeHPWL += st.netHPWL[ni]
	}
	st.origins[k] = o
	st.placed[k] = true
	var afterHPWL int64
	for _, ni := range st.netsOf[k] {
		h := st.netHPWLOf(int(ni))
		st.netHPWL[ni] = h
		afterHPWL += h
	}
	delta := float64(afterHPWL-beforeHPWL) + overlapWeight*float64(afterOverlap-beforeOverlap)
	st.cost += delta
	st.markDirty(k)
	return delta
}

// placeFootprint makes r component k's footprint in infl and the overlap
// index.
func (st *annealState) placeFootprint(k int, r geom.Rect) {
	st.infl[k] = r
	st.ovl.update(k, r)
}

// applySwap exchanges the origins of components a and b and returns the
// cost delta.
func (st *annealState) applySwap(a, b int) float64 {
	oa := st.origins[a]
	ob := st.origins[b]
	d1 := st.applyDisplace(a, ob)
	d2 := st.applyDisplace(b, oa)
	return d1 + d2
}

// tryMove proposes one move and keeps it per the Metropolis criterion,
// reporting whether the move was accepted.
func (st *annealState) tryMove(temp float64) bool {
	if st.rng.Intn(2) == 0 {
		k := st.rng.Intn(len(st.comps))
		o := st.randomOrigin(k)
		r := st.footprintAt(k, o)
		st.save(k, -1)
		if !st.accept(st.moveOrigin(k, o, r), temp) {
			st.restore()
			return false
		}
		st.placeFootprint(k, r)
		return true
	}
	a := st.rng.Intn(len(st.comps))
	b := st.rng.Intn(len(st.comps) - 1)
	if b >= a {
		b++
	}
	st.save(a, b)
	if !st.accept(st.applySwap(a, b), temp) {
		st.restore()
		return false
	}
	return true
}

// save records the state a move of component a (and b, for a swap; b < 0
// for a displacement) is about to overwrite.
func (st *annealState) save(a, b int) {
	u := &st.undo
	u.n = 0
	u.cost = st.cost
	u.hpwl = u.hpwl[:0]
	for _, k := range [2]int{a, b} {
		if k < 0 {
			break
		}
		u.comps[u.n] = int32(k)
		u.origins[u.n] = st.origins[k]
		u.infl[u.n] = st.infl[k]
		for _, ni := range st.netsOf[k] {
			u.hpwl = append(u.hpwl, st.netHPWL[ni])
		}
		u.n++
	}
}

// restore writes the saved record back, undoing the move that followed the
// last save. The overlap index is returned to the saved footprints, which
// is free when a move kept its bucket span. A net shared by both swapped
// components was saved twice with the same pre-move value, so writing it
// twice is harmless.
func (st *annealState) restore() {
	u := &st.undo
	h := 0
	for m := 0; m < u.n; m++ {
		k := int(u.comps[m])
		st.origins[k] = u.origins[m]
		st.infl[k] = u.infl[m]
		st.ovl.update(k, u.infl[m])
		for _, ni := range st.netsOf[k] {
			st.netHPWL[ni] = u.hpwl[h]
			h++
		}
	}
	st.cost = u.cost
}

func (st *annealState) accept(delta, temp float64) bool {
	if delta <= 0 {
		return true
	}
	return st.rng.Float64() < math.Exp(-delta/temp)
}
