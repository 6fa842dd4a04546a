package geom

import "fmt"

// Cell addresses one square of a Grid in column/row space.
type Cell struct {
	Col, Row int
}

// String renders the cell as "c<col>r<row>".
func (c Cell) String() string { return fmt.Sprintf("c%dr%d", c.Col, c.Row) }

// Grid discretizes a device region into square cells of Pitch micrometers,
// tracking which cells are blocked by placed geometry. Routers operate on
// this occupancy view rather than on raw coordinates.
type Grid struct {
	bounds  Rect
	pitch   int64
	cols    int
	rows    int
	blocked []bool
	// cost holds per-cell additive routing cost (congestion penalties from
	// rip-up-and-reroute); zero means free.
	cost []int32
}

// NewGrid builds an occupancy grid covering bounds with the given pitch.
// The pitch must be positive; bounds must be non-empty.
func NewGrid(bounds Rect, pitch int64) (*Grid, error) {
	if pitch <= 0 {
		return nil, fmt.Errorf("geom: grid pitch must be positive, got %d", pitch)
	}
	if bounds.Empty() {
		return nil, fmt.Errorf("geom: grid bounds %v are empty", bounds)
	}
	cols := int((bounds.Dx() + pitch - 1) / pitch)
	rows := int((bounds.Dy() + pitch - 1) / pitch)
	if cols <= 0 || rows <= 0 {
		return nil, fmt.Errorf("geom: grid %v at pitch %d has no cells", bounds, pitch)
	}
	return &Grid{
		bounds:  bounds,
		pitch:   pitch,
		cols:    cols,
		rows:    rows,
		blocked: make([]bool, cols*rows),
		cost:    make([]int32, cols*rows),
	}, nil
}

// Cols returns the number of grid columns.
func (g *Grid) Cols() int { return g.cols }

// Rows returns the number of grid rows.
func (g *Grid) Rows() int { return g.rows }

// Pitch returns the cell size in micrometers.
func (g *Grid) Pitch() int64 { return g.pitch }

// NumCells returns the total cell count.
func (g *Grid) NumCells() int { return g.cols * g.rows }

// InBounds reports whether c addresses a cell inside the grid.
func (g *Grid) InBounds(c Cell) bool {
	return c.Col >= 0 && c.Col < g.cols && c.Row >= 0 && c.Row < g.rows
}

func (g *Grid) index(c Cell) int { return c.Row*g.cols + c.Col }

// CellOf maps a device-space point to its containing cell. Points outside
// the bounds are clamped to the nearest edge cell so that ports sitting
// exactly on the device boundary remain routable.
func (g *Grid) CellOf(p Point) Cell {
	col := int((p.X - g.bounds.Min.X) / g.pitch)
	row := int((p.Y - g.bounds.Min.Y) / g.pitch)
	if col < 0 {
		col = 0
	}
	if col >= g.cols {
		col = g.cols - 1
	}
	if row < 0 {
		row = 0
	}
	if row >= g.rows {
		row = g.rows - 1
	}
	return Cell{Col: col, Row: row}
}

// CenterOf maps a cell back to the device-space point at its center.
func (g *Grid) CenterOf(c Cell) Point {
	return Point{
		X: g.bounds.Min.X + int64(c.Col)*g.pitch + g.pitch/2,
		Y: g.bounds.Min.Y + int64(c.Row)*g.pitch + g.pitch/2,
	}
}

// Block marks the single cell c as occupied. Out-of-bounds cells are ignored.
func (g *Grid) Block(c Cell) {
	if g.InBounds(c) {
		g.blocked[g.index(c)] = true
	}
}

// Unblock clears the occupied mark on c. Out-of-bounds cells are ignored.
func (g *Grid) Unblock(c Cell) {
	if g.InBounds(c) {
		g.blocked[g.index(c)] = false
	}
}

// Blocked reports whether c is occupied. Out-of-bounds cells count as
// blocked so that router neighbor expansion never escapes the grid.
func (g *Grid) Blocked(c Cell) bool {
	if !g.InBounds(c) {
		return true
	}
	return g.blocked[g.index(c)]
}

// BlockRect marks every cell intersecting r (in device space) as occupied.
// It returns the number of cells newly blocked.
func (g *Grid) BlockRect(r Rect) int {
	clipped := r.Intersect(g.bounds)
	if clipped.Empty() {
		return 0
	}
	lo := g.CellOf(clipped.Min)
	// Max is exclusive: back off one micrometer to find the last covered cell.
	hi := g.CellOf(Point{clipped.Max.X - 1, clipped.Max.Y - 1})
	n := 0
	for row := lo.Row; row <= hi.Row; row++ {
		for col := lo.Col; col <= hi.Col; col++ {
			i := row*g.cols + col
			if !g.blocked[i] {
				g.blocked[i] = true
				n++
			}
		}
	}
	return n
}

// AddCost adds delta to the routing cost of c; negative deltas are clamped
// so the stored cost never goes below zero.
func (g *Grid) AddCost(c Cell, delta int32) {
	if !g.InBounds(c) {
		return
	}
	i := g.index(c)
	v := g.cost[i] + delta
	if v < 0 {
		v = 0
	}
	g.cost[i] = v
}

// Cost returns the additive routing cost of c (zero when out of bounds).
func (g *Grid) Cost(c Cell) int32 {
	if !g.InBounds(c) {
		return 0
	}
	return g.cost[g.index(c)]
}

// FreeCells returns the number of unblocked cells.
func (g *Grid) FreeCells() int {
	n := 0
	for _, b := range g.blocked {
		if !b {
			n++
		}
	}
	return n
}

// Neighbors4 appends the in-bounds von Neumann neighbors of c to dst and
// returns the extended slice. Using an append-style API lets routers reuse
// one scratch buffer across millions of expansions.
func (g *Grid) Neighbors4(dst []Cell, c Cell) []Cell {
	candidates := [4]Cell{
		{c.Col + 1, c.Row},
		{c.Col - 1, c.Row},
		{c.Col, c.Row + 1},
		{c.Col, c.Row - 1},
	}
	for _, n := range candidates {
		if g.InBounds(n) {
			dst = append(dst, n)
		}
	}
	return dst
}

// Clone returns a deep copy of the grid, including occupancy and cost.
func (g *Grid) Clone() *Grid {
	out := &Grid{
		bounds:  g.bounds,
		pitch:   g.pitch,
		cols:    g.cols,
		rows:    g.rows,
		blocked: make([]bool, len(g.blocked)),
		cost:    make([]int32, len(g.cost)),
	}
	copy(out.blocked, g.blocked)
	copy(out.cost, g.cost)
	return out
}
