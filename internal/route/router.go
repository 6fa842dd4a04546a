// Package route implements channel routing for placed ParchMint devices:
// three grid maze routers (Lee breadth-first, A*, and Hadlock detour-count)
// behind one interface, a sequential multi-terminal net router with
// configurable net ordering, and history-cost rip-up-and-reroute. Routed
// nets become ParchMint channel features; completion rate, total channel
// length, and node expansions are the quality metrics the router-comparison
// experiment (Fig. 4) reports.
package route

import (
	"context"
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/obs"
)

// Router finds a path on an occupancy grid from any of a set of source
// cells (the already-routed tree of the net) to a target cell.
type Router interface {
	// Name identifies the engine in experiment output.
	Name() string
	// Search returns the path from one source to the target (inclusive on
	// both ends), and the number of node expansions performed. ok is false
	// when no path exists; the expansion count is still meaningful.
	// The context is request-scoped: engines poll it every ExpansionBatch
	// node expansions and abandon the search (ok false) when cancelled;
	// RouteAll turns the cancellation into an error.
	Search(ctx context.Context, g *geom.Grid, sources []geom.Cell, target geom.Cell) (path []geom.Cell, expansions int, ok bool)
}

// ExpansionBatch is the routers' cancellation granularity: each engine
// polls the context every ExpansionBatch node expansions, so a cancelled
// request abandons an in-flight maze search within one batch.
const ExpansionBatch = 1024

// searchObs batches one search's telemetry: each engine flushes the
// expansion and frontier-push deltas since the previous flush at its
// ExpansionBatch poll points and once more on return. The struct lives on
// the searching goroutine's stack and the recorder is nil when telemetry
// is disabled, so the hot loop pays one nil check per batch.
type searchObs struct {
	rec      *obs.Recorder
	engine   string
	lastExp  int
	lastPush int
}

func newSearchObs(ctx context.Context, engine string) searchObs {
	return searchObs{rec: obs.FromContext(ctx), engine: engine}
}

func (so *searchObs) flush(expansions, pushes int) {
	so.rec.RouteBatch(so.engine, expansions-so.lastExp, pushes-so.lastPush)
	so.lastExp, so.lastPush = expansions, pushes
}

// Engines returns the three routers in comparison order.
func Engines() []Router {
	return []Router{Lee{}, AStar{}, Hadlock{}}
}

// EngineByName resolves a routing engine by its Name. The empty string
// selects the default engine (A*).
func EngineByName(name string) (Router, error) {
	if name == "" {
		return AStar{}, nil
	}
	for _, e := range Engines() {
		if e.Name() == name {
			return e, nil
		}
	}
	return nil, fmt.Errorf("route: unknown router %q (lee, astar, hadlock)", name)
}

// passable reports whether the router may enter cell c while hunting for
// target: blocked cells are closed except the target itself (targets are
// ports sitting on component boundaries, whose cells are blocked by the
// component footprint).
func passable(g *geom.Grid, c, target geom.Cell) bool {
	return c == target || !g.Blocked(c)
}

// Lee is the classic breadth-first maze router: uniform wavefront
// expansion, guaranteed shortest path, maximal expansions.
type Lee struct{}

// Name identifies the engine.
func (Lee) Name() string { return "lee" }

// Search runs breadth-first wavefront expansion.
func (Lee) Search(ctx context.Context, g *geom.Grid, sources []geom.Cell, target geom.Cell) ([]geom.Cell, int, bool) {
	a := acquireArena(g)
	defer a.release()
	so := newSearchObs(ctx, "lee")
	pushes := 0
	for _, s := range sources {
		if !g.InBounds(s) {
			continue
		}
		if i := a.index(s); !a.visited(i) {
			a.visit(i)
			a.parent[i] = -2
			a.queue = append(a.queue, s)
			pushes++
		}
	}
	expansions := 0
	for head := 0; head < len(a.queue); head++ {
		cur := a.queue[head]
		if expansions%ExpansionBatch == 0 {
			so.flush(expansions, pushes)
			if ctx.Err() != nil {
				return nil, expansions, false
			}
		}
		expansions++
		if cur == target {
			so.flush(expansions, pushes)
			return a.unwind(cur), expansions, true
		}
		ci := a.index(cur)
		a.scratch = g.Neighbors4(a.scratch[:0], cur)
		for _, nb := range a.scratch {
			if !passable(g, nb, target) {
				continue
			}
			if i := a.index(nb); !a.visited(i) {
				a.visit(i)
				a.parent[i] = ci
				a.queue = append(a.queue, nb)
				pushes++
			}
		}
	}
	so.flush(expansions, pushes)
	return nil, expansions, false
}

// AStar is best-first search with the Manhattan-distance heuristic:
// shortest paths like Lee, with far fewer expansions on open dies.
type AStar struct{}

// Name identifies the engine.
func (AStar) Name() string { return "astar" }

// Search runs A* from the source set toward the target.
func (AStar) Search(ctx context.Context, g *geom.Grid, sources []geom.Cell, target geom.Cell) ([]geom.Cell, int, bool) {
	a := acquireArena(g)
	defer a.release()
	path, expansions, _, ok := a.astar(ctx, g, sources, target)
	return path, expansions, ok
}

// astar is AStar.Search on an acquired arena; it also returns the
// frontier push count. The frontier is the arena's bucket queue, which
// pops in (f, push order), and neighbors are visited +col, -col, +row,
// -row by flat cell index, so expansions and paths are those of a binary
// heap keyed on (f, seq) over Grid.Neighbors4.
func (a *searchArena) astar(ctx context.Context, g *geom.Grid, sources []geom.Cell, target geom.Cell) (path []geom.Cell, expansions, pushes int, ok bool) {
	cols, rows := g.Cols(), g.Rows()
	tc, tr := target.Col, target.Row
	ti := int32(-1) // out-of-bounds targets are never reached
	if g.InBounds(target) {
		ti = a.index(target)
	}
	h := func(col, row int) int64 { return int64(absInt(col-tc) + absInt(row-tr)) }
	so := newSearchObs(ctx, "astar")
	// Anchor the queue at the least source priority: sources are the only
	// pushes that do not follow from an expansion.
	base := int64(math.MaxInt64)
	for _, s := range sources {
		if g.InBounds(s) {
			base = min(base, h(s.Col, s.Row))
		}
	}
	q := &a.bq
	q.reset(base)
	for _, s := range sources {
		if !g.InBounds(s) {
			continue
		}
		if i := a.index(s); !a.visited(i) {
			a.visit(i)
			a.dist[i] = 0
			a.parent[i] = -2
			q.push(i, h(s.Col, s.Row))
			pushes++
		}
	}
	for {
		i, f, more := q.pop()
		if !more {
			break
		}
		col, row := int(i)%cols, int(i)/cols
		cg := f - h(col, row)
		if cg > a.dist[i] {
			continue // stale entry
		}
		if expansions%ExpansionBatch == 0 {
			so.flush(expansions, pushes)
			if ctx.Err() != nil {
				return nil, expansions, pushes, false
			}
		}
		expansions++
		if i == ti {
			so.flush(expansions, pushes)
			return a.unwind(target), expansions, pushes, true
		}
		var nbs [4]int32
		var nbh [4]int64
		n := 0
		if col+1 < cols {
			nbs[n], nbh[n] = i+1, h(col+1, row)
			n++
		}
		if col > 0 {
			nbs[n], nbh[n] = i-1, h(col-1, row)
			n++
		}
		if row+1 < rows {
			nbs[n], nbh[n] = i+int32(cols), h(col, row+1)
			n++
		}
		if row > 0 {
			nbs[n], nbh[n] = i-int32(cols), h(col, row-1)
			n++
		}
		for k, ni := range nbs[:n] {
			if ni != ti && g.BlockedAt(int(ni)) {
				continue
			}
			ng := cg + 1 + int64(g.CostAt(int(ni)))
			if !a.visited(ni) || ng < a.dist[ni] {
				a.visit(ni)
				a.dist[ni] = ng
				a.parent[ni] = i
				q.push(ni, ng+nbh[k])
				pushes++
			}
		}
	}
	so.flush(expansions, pushes)
	return nil, expansions, pushes, false
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Hadlock is detour-count best-first search: priority is the number of
// moves made away from the target. It expands fewer cells than Lee while
// still guaranteeing shortest paths on uniform grids; implemented as 0-1
// BFS over the detour metric.
type Hadlock struct{}

// Name identifies the engine.
func (Hadlock) Name() string { return "hadlock" }

// Search runs 0-1 breadth-first search on detour counts.
func (Hadlock) Search(ctx context.Context, g *geom.Grid, sources []geom.Cell, target geom.Cell) ([]geom.Cell, int, bool) {
	a := acquireArena(g)
	defer a.release()
	manhattan := func(c geom.Cell) int {
		dx := c.Col - target.Col
		if dx < 0 {
			dx = -dx
		}
		dy := c.Row - target.Row
		if dy < 0 {
			dy = -dy
		}
		return dx + dy
	}
	so := newSearchObs(ctx, "hadlock")
	pushes := 0
	// Level queues for 0-1 BFS over the detour count: toward-moves stay in
	// the current level, away-moves wait in the next one.
	for _, s := range sources {
		if !g.InBounds(s) {
			continue
		}
		if i := a.index(s); !a.visited(i) {
			a.visit(i)
			a.detour[i] = 0
			a.parent[i] = -2
			a.queue = append(a.queue, s)
			pushes++
		}
	}
	expansions := 0
	for len(a.queue) > 0 {
		for head := 0; head < len(a.queue); head++ {
			cur := a.queue[head]
			ci := a.index(cur)
			if expansions%ExpansionBatch == 0 {
				so.flush(expansions, pushes)
				if ctx.Err() != nil {
					return nil, expansions, false
				}
			}
			expansions++
			if cur == target {
				so.flush(expansions, pushes)
				return a.unwind(cur), expansions, true
			}
			curDetour := a.detour[ci]
			curDist := manhattan(cur)
			a.scratch = g.Neighbors4(a.scratch[:0], cur)
			for _, nb := range a.scratch {
				if !passable(g, nb, target) {
					continue
				}
				ni := a.index(nb)
				away := int32(0)
				if manhattan(nb) > curDist {
					away = 1
				}
				nd := curDetour + away
				if !a.visited(ni) || nd < a.detour[ni] {
					a.visit(ni)
					a.detour[ni] = nd
					a.parent[ni] = ci
					if away == 0 {
						a.queue = append(a.queue, nb)
					} else {
						a.next = append(a.next, nb)
					}
					pushes++
				}
			}
		}
		a.queue, a.next = a.next, a.queue[:0]
	}
	so.flush(expansions, pushes)
	return nil, expansions, false
}
