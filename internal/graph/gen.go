package graph

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
)

// The stored generators of the families with no implicit form. Every one
// assigns pairwise-distinct edge weights: a seeded random permutation of
// 1..m, matching the paper's w.l.o.g. distinct-weight assumption while
// keeping weights independent of the topology's construction order.

// buildFrom builds the graph of n nodes and the given edges, weighted by a
// seeded permutation of 1..m in edge order.
func buildFrom(n int, edges []Edge, seed int64) (*Graph, error) {
	perm := rand.New(rand.NewSource(seed)).Perm(len(edges))
	b := NewBuilder(n)
	for i, e := range edges {
		b.AddEdge(e.U, e.V, Weight(perm[i]+1))
	}
	return b.Build()
}

// MaxStoredEdges caps every stored graph, whether a generator builds it or
// Materialize copies an implicit form, and the implicit star's cached hub
// list. A stored graph keeps each edge in its edge list and twice in
// adjacency, 48 bytes an edge, and building one through the Builder costs
// several times that in transient lists and maps. Past the cap a spec such
// as mat:ring:100000000 or complete:1000000 returns an error instead of
// exhausting memory. The largest stored graphs the module builds,
// mat:ring:1000000 and E12b's ba:200000,3, stay more than 30 times below
// it.
const MaxStoredEdges = 1 << 25

// edgeCount returns a*b + c, saturating at math.MaxUint64, so an edge count
// computed from hostile sizes cannot wrap below MaxStoredEdges.
func edgeCount(a, b, c uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	sum, carry := bits.Add64(lo, c, 0)
	if hi != 0 || carry != 0 {
		return math.MaxUint64
	}
	return sum
}

// checkStored returns an error if a stored graph of m edges would exceed
// MaxStoredEdges; format and args name the request in the error.
func checkStored(m uint64, format string, args ...any) error {
	if m <= MaxStoredEdges {
		return nil
	}
	return fmt.Errorf("graph: %s would store more than MaxStoredEdges (%d) edges",
		fmt.Sprintf(format, args...), MaxStoredEdges)
}

// Complete returns the complete graph K_n, for n(n-1)/2 <= MaxStoredEdges.
func Complete(n int, seed int64) (*Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("graph: complete needs n >= 2, got %d", n)
	}
	if err := checkStored(edgeCount(uint64(n), uint64(n-1), 0)/2, "complete:%d", n); err != nil {
		return nil, err
	}
	var edges []Edge
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, Edge{U: NodeID(i), V: NodeID(j)})
		}
	}
	return buildFrom(n, edges, seed)
}

// RandomConnected returns a connected graph on n nodes with exactly
// n-1+extra edges: a random attachment spanning tree plus extra distinct
// random chords. extra is clamped to the number of available non-edges
// (and a negative extra to 0).
func RandomConnected(n, extra int, seed int64) (*Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("graph: random connected needs n >= 2, got %d", n)
	}
	// A tree under the cap keeps n(n-1)/2 far from overflow; extra is then
	// clamped before it sizes anything.
	if err := checkStored(uint64(n-1), "random:%d,%d", n, extra); err != nil {
		return nil, err
	}
	extra = min(max(extra, 0), n*(n-1)/2-(n-1))
	if err := checkStored(uint64(n-1+extra), "random:%d,%d", n, extra); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[[2]NodeID]bool, n-1+extra)
	var edges []Edge
	add := func(u, v NodeID) bool {
		key := normPair(u, v)
		if u == v || seen[key] {
			return false
		}
		seen[key] = true
		edges = append(edges, Edge{U: u, V: v})
		return true
	}
	// Random spanning tree: attach each node (in random label order) to a
	// uniformly random already-attached node.
	order := rng.Perm(n)
	for i := 1; i < n; i++ {
		u := NodeID(order[i])
		v := NodeID(order[rng.Intn(i)])
		add(u, v)
	}
	for added := 0; added < extra; {
		u := NodeID(rng.Intn(n))
		v := NodeID(rng.Intn(n))
		if add(u, v) {
			added++
		}
	}
	return buildFrom(n, edges, seed+1)
}

// Ray returns the ray graph of the §5.2 lower bound: one distinguished
// center from which `rays` vertex-disjoint paths of length rayLen emanate.
// The center is node 0; n = 1 + rays*rayLen and the diameter is 2*rayLen.
func Ray(rays, rayLen int, seed int64) (*Graph, error) {
	if rays < 1 || rayLen < 1 {
		return nil, fmt.Errorf("graph: ray needs rays, rayLen >= 1, got %d, %d", rays, rayLen)
	}
	if err := checkStored(edgeCount(uint64(rays), uint64(rayLen), 0), "ray:%d,%d", rays, rayLen); err != nil {
		return nil, err
	}
	n := 1 + rays*rayLen
	var edges []Edge
	for r := 0; r < rays; r++ {
		prev := NodeID(0)
		for k := 0; k < rayLen; k++ {
			v := NodeID(1 + r*rayLen + k)
			edges = append(edges, Edge{U: prev, V: v})
			prev = v
		}
	}
	return buildFrom(n, edges, seed)
}
