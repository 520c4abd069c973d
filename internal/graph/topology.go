package graph

// topology.go defines Topology, the read-only graph abstraction every layer
// above this package consumes. Two families implement it:
//
//   - *Graph, the materialized form: O(n + m) memory, every query O(1) off
//     stored edge lists and weight-sorted adjacency slices.
//   - the implicit forms (implicit.go): ring, path, grid, torus, hypercube,
//     star, and binary tree whose adjacency, edge endpoints, and weights are
//     *computed* per query from the node id and a seed, costing O(1) memory
//     per query. They are what lets the step engine run 10⁷–10⁸-node
//     networks: the topology itself occupies a few dozen bytes regardless
//     of n.
//
// Every reader sees adjacency through one accessor, AdjView: the stored form
// hands out its own slice, the implicit forms compute the list into the
// caller's AdjScratch. No caller needs to know which form it reads, and
// none type-switches on it.
//
// The two forms are interchangeable: Materialize turns any Topology into a
// *Graph with identical node ids, edge ids, weights, and adjacency order,
// so for a fixed (topology spec, protocol, seed) the simulators produce
// bit-identical transcripts on either form — the cross-form half of the
// module's determinism contract, enforced by the differential suite in
// crossform_test.go.

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
)

// Topology is an immutable, connected, simple undirected weighted graph on
// nodes 0..N()-1 with edges 0..M()-1 and pairwise-distinct positive
// weights. Adjacency is always presented sorted by ascending edge weight —
// the paper's "ordered list of links" — and all methods are safe for
// concurrent use (the step engine queries from every worker).
//
// Implementations may compute answers on the fly. There is one read path
// for adjacency, AdjView, which never allocates once its scratch is sized;
// Adj is the allocating form for callers that keep the list.
type Topology interface {
	// N returns the number of nodes.
	N() int
	// M returns the number of edges.
	M() int
	// Degree returns the number of links incident to v.
	Degree(v NodeID) int
	// Adj returns v's incident links sorted by ascending weight, as a slice
	// the caller may keep but must not modify; implicit forms allocate it
	// on every call.
	Adj(v NodeID) []Half
	// AdjView returns v's incident links sorted by ascending weight without
	// allocating. The stored form returns its own slice and ignores s;
	// implicit forms compute the list into s. The result is read-only and
	// stays valid until s is passed to AdjView again.
	AdjView(v NodeID, s *AdjScratch) []Half
	// Edge returns the edge with the given id, including its weight.
	Edge(id int) Edge
}

// AdjScratch is caller-owned scratch for Topology.AdjView. The zero value
// is ready; once its buffers have grown to a node's degree, AdjView
// allocates nothing. Each AdjScratch serves one goroutine at a time.
type AdjScratch struct {
	nbrs   []nbr
	halves []Half
}

// AdjView returns v's stored adjacency; the scratch is unused.
func (g *Graph) AdjView(v NodeID, _ *AdjScratch) []Half { return g.adj[v] }

var _ Topology = (*Graph)(nil)

// Materialize builds the stored *Graph form of any topology: identical node
// ids, edge ids, weights, and (by the distinct-weight sort) adjacency
// order, so simulations on the result are transcript-identical to the
// implicit original. A *Graph materializes to itself.
func Materialize(t Topology) (*Graph, error) {
	if g, ok := t.(*Graph); ok {
		return g, nil
	}
	n, m := t.N(), t.M()
	if n <= 0 {
		return nil, fmt.Errorf("graph: materialize: n must be positive, got %d", n)
	}
	if err := checkStored(uint64(m), "materializing %d nodes", n); err != nil {
		return nil, err
	}
	g := &Graph{
		n:     n,
		edges: make([]Edge, m),
		adj:   make([][]Half, n),
	}
	deg := make([]int, n)
	for id := 0; id < m; id++ {
		e := t.Edge(id)
		if e.U == e.V || e.U < 0 || int(e.U) >= n || e.V < 0 || int(e.V) >= n {
			return nil, fmt.Errorf("graph: materialize: bad edge %d = {%d,%d}", id, e.U, e.V)
		}
		g.edges[id] = e
		deg[e.U]++
		deg[e.V]++
	}
	// One backing array per node, then the same sorted-by-weight order the
	// implicit form computes (weights are distinct, so the order is total).
	for v := range g.adj {
		g.adj[v] = make([]Half, 0, deg[v])
	}
	for id, e := range g.edges {
		g.adj[e.U] = append(g.adj[e.U], Half{To: e.V, Weight: e.Weight, EdgeID: int32(id)})
		g.adj[e.V] = append(g.adj[e.V], Half{To: e.U, Weight: e.Weight, EdgeID: int32(id)})
	}
	for v := range g.adj {
		sortHalves(g.adj[v])
	}
	return g, nil
}

// insertionSortMax is the longest adjacency list sortHalves insertion-sorts
// in place. Every implicit family but the star hub and the hypercube past
// dimension 12 stays at or below it; longer lists take the generic sort.
const insertionSortMax = 12

// sortHalves orders one adjacency list by ascending weight: lists of 2–4
// halves (the ring, path, grid and torus) by a compare-exchange network,
// longer ones by insertion or the generic sort. Weights are pairwise
// distinct, so every sort produces the one sorted order.
func sortHalves(adj []Half) {
	switch n := len(adj); {
	case n == 2:
		cx(&adj[0], &adj[1])
	case n == 3:
		a := (*[3]Half)(adj)
		cx(&a[0], &a[2])
		cx(&a[0], &a[1])
		cx(&a[1], &a[2])
	case n == 4:
		a := (*[4]Half)(adj)
		cx(&a[0], &a[1])
		cx(&a[2], &a[3])
		cx(&a[0], &a[2])
		cx(&a[1], &a[3])
		cx(&a[1], &a[2])
	case n > insertionSortMax:
		slices.SortFunc(adj, func(a, b Half) int { return cmp.Compare(a.Weight, b.Weight) })
	default:
		for i := 1; i < n; i++ {
			h, j := adj[i], i
			for ; j > 0 && adj[j-1].Weight > h.Weight; j-- {
				adj[j] = adj[j-1]
			}
			adj[j] = h
		}
	}
}

// cx is a compare-exchange: it leaves the lighter of two halves in *a. It
// swaps field by field so the compiler selects without branching: on
// random weights a branch mispredicts half the time, and the sort of a
// 4-half list took about 3× as long with one.
func cx(a, b *Half) {
	x, y := *a, *b
	to0, to1, e0, e1, w0, w1 := x.To, y.To, x.EdgeID, y.EdgeID, x.Weight, y.Weight
	if w1 < w0 {
		to0, to1 = to1, to0
		e0, e1 = e1, e0
		w0, w1 = w1, w0
	}
	*a = Half{To: to0, EdgeID: e0, Weight: w0}
	*b = Half{To: to1, EdgeID: e1, Weight: w1}
}

// ConnectedTopo reports whether t is connected (Graph.Connected for any
// Topology).
func ConnectedTopo(t Topology) bool {
	if t.N() == 0 {
		return false
	}
	return NewBFS(t, 0).Reached() == t.N()
}

// TopoHeapCost builds a topology with mk and returns it together with the
// heap growth its construction caused — the bytes/node measure of E12 and
// TestTopologyBytesPerNode. The double GC brackets the build so transient
// construction garbage is excluded; the delta is clamped at 0.
func TopoHeapCost(mk func() (Topology, error)) (Topology, uint64, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	t, err := mk()
	if err != nil {
		return nil, 0, err
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	var delta uint64
	if after.HeapAlloc > before.HeapAlloc {
		delta = after.HeapAlloc - before.HeapAlloc
	}
	runtime.KeepAlive(t)
	return t, delta, nil
}

// topoMix is the splitmix64-style hash behind the implicit forms' weights:
// three words mixed through the splitmix64 finalizer.
func topoMix(a, b, c uint64) uint64 {
	x := a*0x9e3779b97f4a7c15 + b*0xbf58476d1ce4e5b9 + c*0x94d049bb133111eb + 0x2545f4914f6cdd1d
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// implicitWeight computes the deterministic distinct weight of edge id
// {u, v}: the top bits are a seeded hash of the normalized pair (so weights
// look independent of the construction order, like the generators'
// permutation weights), and the low 31 bits are the edge id, which
// guarantees pairwise distinctness without any global bookkeeping. The +1
// keeps the hash half nonzero, so weights are strictly positive (≥ 2³¹)
// even when the retained hash bits are all zero; they fit in 62 bits, and
// edge ids must fit in 31.
func implicitWeight(seed int64, u, v NodeID, id int) Weight {
	if u > v {
		u, v = v, u
	}
	h := topoMix(uint64(seed), uint64(u)+1, uint64(v)+1)
	return Weight((int64(h>>34)+1)<<31 | int64(id))
}
