package sim

import (
	"fmt"
	"math"
	"sort"
)

// BC is one pressure boundary condition: the named port node is held at
// the given pressure (Pa). Ports without a BC are internal nodes obeying
// flow conservation.
type BC struct {
	// Node is the port node, e.g. "in1.port1".
	Node NodeID
	// Pressure in pascals.
	Pressure float64
}

// Flow is the solved flow through one channel resistor.
type Flow struct {
	// Channel is the connection label ("c1" or "c1[2]" for fanout arms).
	Channel string
	// From, To are the terminal nodes; flow is positive from From to To.
	From, To NodeID
	// Q is the volumetric flow rate in m³/s.
	Q float64
}

// Solution holds a solved network state.
type Solution struct {
	// Pressure per node, in Pa.
	Pressure map[NodeID]float64
	// Flows per channel resistor (component internals excluded).
	Flows []Flow
	// Iterations the solver used.
	Iterations int
}

// solverTolerance is the relative residual at which iteration stops.
const solverTolerance = 1e-10

// maxIterations bounds the conjugate-gradient loop.
const maxIterations = 20000

// Solve computes node pressures under the boundary conditions by solving
// the network Laplacian with conjugate gradients (the matrix is symmetric
// positive definite once Dirichlet nodes are eliminated), then derives
// per-channel flows.
func (n *Network) Solve(bcs []BC) (*Solution, error) {
	if len(bcs) < 2 {
		return nil, fmt.Errorf("sim: need at least two boundary conditions, got %d", len(bcs))
	}
	fixed := make(map[int]float64, len(bcs))
	for _, bc := range bcs {
		idx, ok := n.nodeIndex[bc.Node]
		if !ok {
			return nil, fmt.Errorf("sim: boundary node %q is not in the network", bc.Node)
		}
		fixed[idx] = bc.Pressure
	}

	// Unknowns: non-fixed nodes, re-indexed densely.
	unknown := make([]int, 0, len(n.nodes)-len(fixed))
	toUnknown := make(map[int]int, len(n.nodes))
	for i := range n.nodes {
		if _, isFixed := fixed[i]; !isFixed {
			toUnknown[i] = len(unknown)
			unknown = append(unknown, i)
		}
	}

	// Assemble the reduced Laplacian L·p = b with conductances g = 1/R.
	// Sparse representation: per-row adjacency.
	type entry struct {
		col int
		g   float64
	}
	rows := make([][]entry, len(unknown))
	diag := make([]float64, len(unknown))
	b := make([]float64, len(unknown))
	for _, r := range n.resistors {
		ai, bi := n.nodeIndex[r.A], n.nodeIndex[r.B]
		g := 1 / r.R
		for _, pair := range [2][2]int{{ai, bi}, {bi, ai}} {
			u, v := pair[0], pair[1]
			ui, uUnknown := toUnknown[u]
			if !uUnknown {
				continue
			}
			diag[ui] += g
			if pv, vFixed := fixed[v]; vFixed {
				b[ui] += g * pv
			} else {
				rows[ui] = append(rows[ui], entry{col: toUnknown[v], g: g})
			}
		}
	}

	// A nonzero diagonal everywhere needs every unknown connected to
	// something; a floating node would make L singular.
	for i, dv := range diag {
		if dv == 0 {
			return nil, fmt.Errorf("sim: node %q is hydraulically floating", n.nodes[unknown[i]])
		}
	}

	mulA := func(x, out []float64) {
		for i := range out {
			s := diag[i] * x[i]
			for _, e := range rows[i] {
				s -= e.g * x[e.col]
			}
			out[i] = s
		}
	}

	// Conjugate gradient with Jacobi preconditioning.
	p := make([]float64, len(unknown)) // solution, start at 0
	r := make([]float64, len(unknown))
	copy(r, b)
	z := make([]float64, len(unknown))
	for i := range z {
		z[i] = r[i] / diag[i]
	}
	d := append([]float64(nil), z...)
	Ad := make([]float64, len(unknown))
	rz := dot(r, z)
	bNorm := math.Sqrt(dot(b, b))
	if bNorm == 0 {
		bNorm = 1
	}
	iters := 0
	for ; iters < maxIterations; iters++ {
		if math.Sqrt(dot(r, r))/bNorm < solverTolerance {
			break
		}
		mulA(d, Ad)
		dAd := dot(d, Ad)
		if dAd == 0 {
			break
		}
		alpha := rz / dAd
		for i := range p {
			p[i] += alpha * d[i]
			r[i] -= alpha * Ad[i]
		}
		for i := range z {
			z[i] = r[i] / diag[i]
		}
		rzNew := dot(r, z)
		beta := rzNew / rz
		rz = rzNew
		for i := range d {
			d[i] = z[i] + beta*d[i]
		}
	}

	sol := &Solution{Pressure: make(map[NodeID]float64, len(n.nodes)), Iterations: iters}
	for i, id := range n.nodes {
		if pv, isFixed := fixed[i]; isFixed {
			sol.Pressure[id] = pv
		} else {
			sol.Pressure[id] = p[toUnknown[i]]
		}
	}
	for _, res := range n.resistors {
		if res.Internal {
			continue
		}
		q := (sol.Pressure[res.A] - sol.Pressure[res.B]) / res.R
		sol.Flows = append(sol.Flows, Flow{
			Channel: res.Label, From: res.A, To: res.B, Q: q,
		})
	}
	sort.Slice(sol.Flows, func(i, j int) bool { return sol.Flows[i].Channel < sol.Flows[j].Channel })
	return sol, nil
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// FlowAt returns the solved flow of the named channel (first fanout arm
// for multi-sink nets), and whether it exists.
func (s *Solution) FlowAt(channel string) (Flow, bool) {
	for _, f := range s.Flows {
		if f.Channel == channel {
			return f, true
		}
	}
	return Flow{}, false
}
