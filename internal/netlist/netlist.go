// Package netlist provides a graph view over a ParchMint device: components
// become nodes and connections become hyperedges (one source, many sinks).
// It supplies the structural analytics the benchmark characterization
// experiments report — degree statistics, connectivity, fanout — and the
// traversals the placement engines use for net evaluation.
package netlist

import (
	"fmt"
	"sort"

	"repro/internal/core"
)

// Node is one component in the graph.
type Node struct {
	// ID is the component ID.
	ID string
	// Entity is the component's entity type.
	Entity string
	// Degree counts connection endpoints touching this component
	// (a connection that both starts and ends here counts twice).
	Degree int
	// Nets lists the indices (into Graph.Nets) of nets touching this node.
	Nets []int
}

// Net is one connection viewed as a hyperedge.
type Net struct {
	// ID is the connection ID.
	ID string
	// Layer is the connection's layer ID.
	Layer string
	// Pins lists the component IDs on the net, source first. Components
	// appearing more than once (self loops) are kept as-is.
	Pins []string
	// Fanout is the number of sinks.
	Fanout int
}

// Graph is the hypergraph view of one device.
type Graph struct {
	nodes  []Node
	nets   []Net
	byID   map[string]int // component id -> node index
	adj    map[string][]string
	device *core.Device
}

// Build constructs the graph view of d. Connections whose endpoints
// reference missing components are kept on the net pin list (the validator
// reports them); they simply have no node to attach to.
func Build(d *core.Device) *Graph {
	g := &Graph{
		byID:   make(map[string]int, len(d.Components)),
		adj:    make(map[string][]string),
		device: d,
	}
	g.nodes = make([]Node, len(d.Components))
	for i := range d.Components {
		c := &d.Components[i]
		g.nodes[i] = Node{ID: c.ID, Entity: c.Entity}
		if _, dup := g.byID[c.ID]; !dup {
			g.byID[c.ID] = i
		}
	}
	g.nets = make([]Net, len(d.Connections))
	for i := range d.Connections {
		cn := &d.Connections[i]
		net := Net{ID: cn.ID, Layer: cn.Layer, Fanout: len(cn.Sinks)}
		net.Pins = append(net.Pins, cn.Source.Component)
		for _, s := range cn.Sinks {
			net.Pins = append(net.Pins, s.Component)
		}
		g.nets[i] = net
		for _, pin := range net.Pins {
			if ni, ok := g.byID[pin]; ok {
				g.nodes[ni].Degree++
				g.nodes[ni].Nets = append(g.nodes[ni].Nets, i)
			}
		}
		// Adjacency: source connects to each sink (directionless storage).
		for _, s := range cn.Sinks {
			g.link(cn.Source.Component, s.Component)
		}
	}
	return g
}

func (g *Graph) link(a, b string) {
	if a == b {
		return
	}
	g.adj[a] = appendUnique(g.adj[a], b)
	g.adj[b] = appendUnique(g.adj[b], a)
}

func appendUnique(s []string, v string) []string {
	for _, x := range s {
		if x == v {
			return s
		}
	}
	return append(s, v)
}

// NumNodes returns the component count.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumNets returns the connection count.
func (g *Graph) NumNets() int { return len(g.nets) }

// Nets returns the nets in device order. The slice is shared; treat it as
// read-only.
func (g *Graph) Nets() []Net { return g.nets }

// Node returns the node for a component ID, or nil.
func (g *Graph) Node(id string) *Node {
	if i, ok := g.byID[id]; ok {
		return &g.nodes[i]
	}
	return nil
}

// Neighbors returns the distinct components adjacent to id, in first-seen
// order. The slice is shared; treat it as read-only.
func (g *Graph) Neighbors(id string) []string { return g.adj[id] }

// Degree returns the endpoint count of component id (0 when unknown).
func (g *Graph) Degree(id string) int {
	if n := g.Node(id); n != nil {
		return n.Degree
	}
	return 0
}

// DegreeStats summarizes the degree distribution.
type DegreeStats struct {
	Min, Max int
	Mean     float64
	// Histogram maps degree -> node count.
	Histogram map[int]int
}

// Degrees computes the degree distribution over all nodes. A graph with no
// nodes yields zeroed stats with an empty histogram.
func (g *Graph) Degrees() DegreeStats {
	s := DegreeStats{Histogram: make(map[int]int)}
	if len(g.nodes) == 0 {
		return s
	}
	s.Min = g.nodes[0].Degree
	total := 0
	for _, n := range g.nodes {
		s.Histogram[n.Degree]++
		total += n.Degree
		if n.Degree < s.Min {
			s.Min = n.Degree
		}
		if n.Degree > s.Max {
			s.Max = n.Degree
		}
	}
	s.Mean = float64(total) / float64(len(g.nodes))
	return s
}

// FanoutStats summarizes connection fanouts.
type FanoutStats struct {
	Max       int
	Mean      float64
	MultiSink int // nets with more than one sink
}

// Fanouts computes fanout statistics over all nets.
func (g *Graph) Fanouts() FanoutStats {
	s := FanoutStats{}
	if len(g.nets) == 0 {
		return s
	}
	total := 0
	for _, n := range g.nets {
		total += n.Fanout
		if n.Fanout > s.Max {
			s.Max = n.Fanout
		}
		if n.Fanout > 1 {
			s.MultiSink++
		}
	}
	s.Mean = float64(total) / float64(len(g.nets))
	return s
}

// ConnectedComponents partitions component IDs into connectivity classes,
// each sorted, with classes ordered by their smallest member. Components
// with no connections form singleton classes.
func (g *Graph) ConnectedComponents() [][]string {
	seen := make(map[string]bool, len(g.nodes))
	var classes [][]string
	for _, n := range g.nodes {
		if seen[n.ID] {
			continue
		}
		class := g.bfsFrom(n.ID, seen)
		sort.Strings(class)
		classes = append(classes, class)
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i][0] < classes[j][0] })
	return classes
}

func (g *Graph) bfsFrom(start string, seen map[string]bool) []string {
	queue := []string{start}
	seen[start] = true
	var out []string
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		out = append(out, cur)
		for _, nb := range g.adj[cur] {
			if !seen[nb] {
				seen[nb] = true
				queue = append(queue, nb)
			}
		}
	}
	return out
}

// IsConnected reports whether every component is reachable from every
// other. The empty graph counts as connected.
func (g *Graph) IsConnected() bool {
	return len(g.nodes) == 0 || len(g.ConnectedComponents()) == 1
}

// ShortestPath returns the hop-minimal component path from a to b
// (inclusive), or nil when unreachable. Hop count is the number of
// connections crossed.
func (g *Graph) ShortestPath(a, b string) []string {
	if g.Node(a) == nil || g.Node(b) == nil {
		return nil
	}
	if a == b {
		return []string{a}
	}
	prev := map[string]string{a: a}
	queue := []string{a}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range g.adj[cur] {
			if _, ok := prev[nb]; ok {
				continue
			}
			prev[nb] = cur
			if nb == b {
				return unwind(prev, a, b)
			}
			queue = append(queue, nb)
		}
	}
	return nil
}

func unwind(prev map[string]string, a, b string) []string {
	var rev []string
	for cur := b; ; cur = prev[cur] {
		rev = append(rev, cur)
		if cur == a {
			break
		}
	}
	out := make([]string, len(rev))
	for i, v := range rev {
		out[len(rev)-1-i] = v
	}
	return out
}

// Diameter returns the longest shortest-path hop count over the largest
// connected class, or 0 for graphs with fewer than two nodes. It is
// O(V·E); benchmark-suite devices are small enough for this to be instant.
func (g *Graph) Diameter() int {
	best := 0
	for _, n := range g.nodes {
		dist := g.eccentricity(n.ID)
		if dist > best {
			best = dist
		}
	}
	return best
}

func (g *Graph) eccentricity(start string) int {
	depth := map[string]int{start: 0}
	queue := []string{start}
	maxd := 0
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range g.adj[cur] {
			if _, ok := depth[nb]; ok {
				continue
			}
			depth[nb] = depth[cur] + 1
			if depth[nb] > maxd {
				maxd = depth[nb]
			}
			queue = append(queue, nb)
		}
	}
	return maxd
}

// EntityCounts returns entity -> component count.
func (g *Graph) EntityCounts() map[string]int {
	out := make(map[string]int)
	for _, n := range g.nodes {
		out[n.Entity]++
	}
	return out
}

// String summarizes the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("netlist{%d components, %d nets}", len(g.nodes), len(g.nets))
}

// ArticulationPoints returns the component IDs whose removal would
// disconnect the netlist — the single points of failure of a device
// (a clogged mixer at an articulation point splits the chip). Computed
// with Tarjan's low-link algorithm (iterative); result sorted.
func (g *Graph) ArticulationPoints() []string {
	index := make(map[string]int, len(g.nodes))
	low := make(map[string]int, len(g.nodes))
	parent := make(map[string]string, len(g.nodes))
	isArt := make(map[string]bool)
	counter := 0

	type frame struct {
		node string
		next int // next neighbor index to visit
	}
	for _, start := range g.nodes {
		if _, seen := index[start.ID]; seen {
			continue
		}
		rootChildren := 0
		stack := []frame{{node: start.ID}}
		index[start.ID] = counter
		low[start.ID] = counter
		counter++
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			nbs := g.adj[f.node]
			if f.next < len(nbs) {
				nb := nbs[f.next]
				f.next++
				if _, seen := index[nb]; !seen {
					parent[nb] = f.node
					if f.node == start.ID {
						rootChildren++
					}
					index[nb] = counter
					low[nb] = counter
					counter++
					stack = append(stack, frame{node: nb})
				} else if nb != parent[f.node] && index[nb] < low[f.node] {
					low[f.node] = index[nb] // back edge
				}
				continue
			}
			// Post-order: propagate low-link to the parent.
			node := f.node
			stack = stack[:len(stack)-1]
			if p, hasParent := parent[node]; hasParent {
				if low[node] < low[p] {
					low[p] = low[node]
				}
				if p != start.ID && low[node] >= index[p] {
					isArt[p] = true
				}
			}
		}
		if rootChildren > 1 {
			isArt[start.ID] = true
		}
	}
	out := make([]string, 0, len(isArt))
	for id := range isArt {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}
