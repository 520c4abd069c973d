package graph

// implicit.go provides the implicit, O(1)-memory-per-query Topology forms:
// ring, path, grid, torus, hypercube, star, and binary tree. Each keeps a
// handful of integers — never an edge list — and computes degree, neighbor
// set, edge endpoints, and weights arithmetically from the node id, the
// canonical edge numbering, and a seed. Adjacency is presented sorted by
// ascending weight, exactly like *Graph: AdjView computes and sorts the
// (constant-size) neighbor set into the caller's AdjScratch per query. The
// only exception is the star's hub, whose n-1 links cannot be weight-ordered
// in O(1), so its sorted adjacency is cached once at construction (O(n) for
// one node versus O(n + m) for the whole materialized graph).
//
// Edge ids are canonical per family (documented on each constructor), and
// weights come from implicitWeight (topology.go), so Materialize yields a
// transcript-identical *Graph for any spec where both forms fit in memory.

import (
	"fmt"
	"math"
)

// implicitMaxEdges bounds implicit forms to edge ids representable in the
// low 31 bits of a weight (implicitWeight's distinctness guarantee).
const implicitMaxEdges = 1 << 31

// nbr is one computed incidence: a neighbor and the id of the shared edge.
type nbr struct {
	to NodeID
	id int
}

// Implicit is an implicit topology: n, m, a seed, and the three arithmetic
// queries of one family. All methods are pure (the optional hub cache is
// built at construction), hence safe for concurrent use.
type Implicit struct {
	spec string // canonical spec string, e.g. "ring:1024"
	n, m int
	seed int64

	deg  func(v NodeID) int
	nbrs func(v NodeID, buf []nbr) []nbr // v's incidences, any order
	ends func(id int) (u, v NodeID)      // endpoints of edge id, u < v except ring wrap

	hub    NodeID // node with a cached adjacency (-1 if none); the star's center
	hubAdj []Half // hub's sorted-by-weight adjacency
}

// N returns the number of nodes.
func (t *Implicit) N() int { return t.n }

// M returns the number of edges.
func (t *Implicit) M() int { return t.m }

// Degree returns the degree of v.
func (t *Implicit) Degree(v NodeID) int { return t.deg(v) }

// Edge returns the edge with the given id.
func (t *Implicit) Edge(id int) Edge {
	if id < 0 || id >= t.m {
		panic(fmt.Sprintf("graph: %s: edge id %d out of range [0,%d)", t.spec, id, t.m))
	}
	u, v := t.ends(id)
	return Edge{U: u, V: v, Weight: implicitWeight(t.seed, u, v, id)}
}

// weightOf is implicitWeight over one computed incidence.
func (t *Implicit) weightOf(v NodeID, b nbr) Weight {
	return implicitWeight(t.seed, v, b.to, b.id)
}

// AdjView computes v's links, sorted by ascending weight, into s; the
// star hub answers from its cached list instead.
func (t *Implicit) AdjView(v NodeID, s *AdjScratch) []Half {
	if v == t.hub {
		return t.hubAdj
	}
	s.nbrs = t.nbrs(v, s.nbrs[:0])
	s.halves = s.halves[:0]
	for _, b := range s.nbrs {
		s.halves = append(s.halves, Half{To: b.to, Weight: t.weightOf(v, b), EdgeID: int32(b.id)})
	}
	sortHalves(s.halves)
	return s.halves
}

// Adj returns v's links sorted by ascending weight, freshly allocated on
// every call except for the star hub, which returns its cached list.
func (t *Implicit) Adj(v NodeID) []Half {
	if v == t.hub {
		return t.hubAdj
	}
	d := t.deg(v)
	s := AdjScratch{nbrs: make([]nbr, 0, d), halves: make([]Half, 0, d)}
	return t.AdjView(v, &s)
}

var _ Topology = (*Implicit)(nil)

// newImplicit fills the family-independent fields and validates the size.
func newImplicit(spec string, n, m int, seed int64) (*Implicit, error) {
	if n > MaxNodes {
		return nil, fmt.Errorf("graph: %s: %d nodes exceed the NodeID cap of %d", spec, n, MaxNodes)
	}
	if m > implicitMaxEdges {
		return nil, fmt.Errorf("graph: %s: %d edges exceed the implicit cap of %d", spec, m, implicitMaxEdges)
	}
	return &Implicit{spec: spec, n: n, m: m, seed: seed, hub: -1}, nil
}

// ImplicitRing returns the implicit n-cycle: edge i joins i and (i+1) mod n.
func ImplicitRing(n int, seed int64) (*Implicit, error) {
	if n < 3 {
		return nil, fmt.Errorf("graph: ring needs n >= 3, got %d", n)
	}
	t, err := newImplicit(fmt.Sprintf("ring:%d", n), n, n, seed)
	if err != nil {
		return nil, err
	}
	t.deg = func(NodeID) int { return 2 }
	t.nbrs = func(v NodeID, buf []nbr) []nbr {
		prev, next := int(v)-1, int(v)+1
		if prev < 0 {
			prev = n - 1
		}
		if next == n {
			next = 0
		}
		return append(buf,
			nbr{to: NodeID(prev), id: prev},
			nbr{to: NodeID(next), id: int(v)})
	}
	t.ends = func(id int) (NodeID, NodeID) { return NodeID(id), NodeID((id + 1) % n) }
	return t, nil
}

// ImplicitPath returns the implicit n-node path: edge i joins i and i+1.
func ImplicitPath(n int, seed int64) (*Implicit, error) {
	if n < 2 {
		return nil, fmt.Errorf("graph: path needs n >= 2, got %d", n)
	}
	t, err := newImplicit(fmt.Sprintf("path:%d", n), n, n-1, seed)
	if err != nil {
		return nil, err
	}
	t.deg = func(v NodeID) int {
		if v == 0 || int(v) == n-1 {
			return 1
		}
		return 2
	}
	t.nbrs = func(v NodeID, buf []nbr) []nbr {
		if v > 0 {
			buf = append(buf, nbr{to: v - 1, id: int(v) - 1})
		}
		if int(v) < n-1 {
			buf = append(buf, nbr{to: v + 1, id: int(v)})
		}
		return buf
	}
	t.ends = func(id int) (NodeID, NodeID) { return NodeID(id), NodeID(id + 1) }
	return t, nil
}

// ImplicitGrid returns the implicit rows×cols mesh; node (r,c) has id
// r*cols+c. Horizontal edges come first — edge r*(cols-1)+c joins (r,c) and
// (r,c+1) — then vertical: edge rows*(cols-1) + r*cols+c joins (r,c) and
// (r+1,c).
func ImplicitGrid(rows, cols int, seed int64) (*Implicit, error) {
	if rows < 1 || cols < 1 || rows*cols < 2 {
		return nil, fmt.Errorf("graph: grid needs at least 2 nodes, got %dx%d", rows, cols)
	}
	h := rows * (cols - 1)
	m := h + (rows-1)*cols
	t, err := newImplicit(fmt.Sprintf("grid:%dx%d", rows, cols), rows*cols, m, seed)
	if err != nil {
		return nil, err
	}
	t.deg = func(v NodeID) int {
		r, c := int(v)/cols, int(v)%cols
		d := 0
		if c > 0 {
			d++
		}
		if c < cols-1 {
			d++
		}
		if r > 0 {
			d++
		}
		if r < rows-1 {
			d++
		}
		return d
	}
	t.nbrs = func(v NodeID, buf []nbr) []nbr {
		r, c := int(v)/cols, int(v)%cols
		if c > 0 {
			buf = append(buf, nbr{to: v - 1, id: r*(cols-1) + c - 1})
		}
		if c < cols-1 {
			buf = append(buf, nbr{to: v + 1, id: r*(cols-1) + c})
		}
		if r > 0 {
			buf = append(buf, nbr{to: v - NodeID(cols), id: h + (r-1)*cols + c})
		}
		if r < rows-1 {
			buf = append(buf, nbr{to: v + NodeID(cols), id: h + r*cols + c})
		}
		return buf
	}
	t.ends = func(id int) (NodeID, NodeID) {
		if id < h {
			r, c := id/(cols-1), id%(cols-1)
			u := NodeID(r*cols + c)
			return u, u + 1
		}
		id -= h
		u := NodeID(id)
		return u, u + NodeID(cols)
	}
	return t, nil
}

// ImplicitTorus returns the implicit rows×cols grid with wraparound links.
// Horizontal edge r*cols+c joins (r,c) and (r,(c+1) mod cols); vertical
// edge rows*cols + r*cols+c joins (r,c) and ((r+1) mod rows,c).
func ImplicitTorus(rows, cols int, seed int64) (*Implicit, error) {
	if rows < 3 || cols < 3 {
		return nil, fmt.Errorf("graph: torus needs rows, cols >= 3, got %dx%d", rows, cols)
	}
	n := rows * cols
	t, err := newImplicit(fmt.Sprintf("torus:%dx%d", rows, cols), n, 2*n, seed)
	if err != nil {
		return nil, err
	}
	t.deg = func(NodeID) int { return 4 }
	t.nbrs = func(v NodeID, buf []nbr) []nbr {
		// Wrap by compare: one remainder finds the column, and each
		// neighbour is v±1 or v±cols folded back into its row or column.
		u, c := int(v), int(v)%cols
		left, right, up, down := u-1, u+1, u-cols, u+cols
		if c == 0 {
			left += cols
		}
		if c == cols-1 {
			right -= cols
		}
		if up < 0 {
			up += n
		}
		if down >= n {
			down -= n
		}
		return append(buf,
			nbr{to: NodeID(left), id: left},
			nbr{to: NodeID(right), id: u},
			nbr{to: NodeID(up), id: n + up},
			nbr{to: NodeID(down), id: n + u})
	}
	t.ends = func(id int) (NodeID, NodeID) {
		if id < n {
			r, c := id/cols, id%cols
			return NodeID(id), NodeID(r*cols + (c+1)%cols)
		}
		id -= n
		r, c := id/cols, id%cols
		return NodeID(id), NodeID(((r+1)%rows)*cols + c)
	}
	return t, nil
}

// ImplicitHypercube returns the implicit dim-dimensional hypercube on 2^dim
// nodes, adjacent iff ids differ in one bit. Edge ids group by flipped bit:
// edge b*2^(dim-1) + squash(v, b) joins v (bit b clear) and v | 1<<b, where
// squash removes bit b from v.
func ImplicitHypercube(dim int, seed int64) (*Implicit, error) {
	if dim < 1 || dim > 30 {
		return nil, fmt.Errorf("graph: hypercube needs 1 <= dim <= 30, got %d", dim)
	}
	n := 1 << dim
	half := n >> 1
	t, err := newImplicit(fmt.Sprintf("hypercube:%d", dim), n, dim*half, seed)
	if err != nil {
		return nil, err
	}
	t.deg = func(NodeID) int { return dim }
	t.nbrs = func(v NodeID, buf []nbr) []nbr {
		for b := 0; b < dim; b++ {
			lowMask := (1 << b) - 1
			base := int(v) &^ (1 << b)
			squashed := (base & lowMask) | ((base >> (b + 1)) << b)
			buf = append(buf, nbr{to: v ^ NodeID(1<<b), id: b*half + squashed})
		}
		return buf
	}
	t.ends = func(id int) (NodeID, NodeID) {
		b, squashed := id/half, id%half
		lowMask := (1 << b) - 1
		u := (squashed & lowMask) | ((squashed >> b) << (b + 1))
		return NodeID(u), NodeID(u | 1<<b)
	}
	return t, nil
}

// ImplicitStar returns the implicit star with center 0: edge i joins 0 and
// i+1. The center's n-1 links cannot be weight-ordered in O(1), so its
// sorted adjacency is cached at construction — O(n) memory for the hub,
// O(1) for every leaf — and, like any stored list, capped by
// MaxStoredEdges.
func ImplicitStar(n int, seed int64) (*Implicit, error) {
	if n < 2 {
		return nil, fmt.Errorf("graph: star needs n >= 2, got %d", n)
	}
	if err := checkStored(uint64(n-1), "star:%d", n); err != nil {
		return nil, err
	}
	t, err := newImplicit(fmt.Sprintf("star:%d", n), n, n-1, seed)
	if err != nil {
		return nil, err
	}
	t.deg = func(v NodeID) int {
		if v == 0 {
			return n - 1
		}
		return 1
	}
	t.nbrs = func(v NodeID, buf []nbr) []nbr {
		// Only leaves take this path; the hub answers from hubAdj.
		return append(buf, nbr{to: 0, id: int(v) - 1})
	}
	t.ends = func(id int) (NodeID, NodeID) { return 0, NodeID(id + 1) }
	t.hub = 0
	t.hubAdj = make([]Half, 0, n-1)
	for i := 1; i < n; i++ {
		t.hubAdj = append(t.hubAdj, Half{
			To: NodeID(i), Weight: implicitWeight(seed, 0, NodeID(i), i-1), EdgeID: int32(i - 1),
		})
	}
	sortHalves(t.hubAdj)
	return t, nil
}

// ImplicitBinaryTree returns the implicit binary tree where node i has
// parent (i-1)/2: edge i joins (i)/2 — that is, (i+1-1)/2 — and i+1.
func ImplicitBinaryTree(n int, seed int64) (*Implicit, error) {
	if n < 2 {
		return nil, fmt.Errorf("graph: binary tree needs n >= 2, got %d", n)
	}
	t, err := newImplicit(fmt.Sprintf("btree:%d", n), n, n-1, seed)
	if err != nil {
		return nil, err
	}
	t.deg = func(v NodeID) int {
		d := 0
		if v > 0 {
			d++
		}
		if 2*int(v)+1 < n {
			d++
		}
		if 2*int(v)+2 < n {
			d++
		}
		return d
	}
	t.nbrs = func(v NodeID, buf []nbr) []nbr {
		if v > 0 {
			buf = append(buf, nbr{to: (v - 1) / 2, id: int(v) - 1})
		}
		if c := 2*int(v) + 1; c < n {
			buf = append(buf, nbr{to: NodeID(c), id: c - 1})
		}
		if c := 2*int(v) + 2; c < n {
			buf = append(buf, nbr{to: NodeID(c), id: c - 1})
		}
		return buf
	}
	t.ends = func(id int) (NodeID, NodeID) { return NodeID(id / 2), NodeID(id + 1) }
	return t, nil
}

// squareSides resolves the node-count form of a grid or torus spec
// (grid:N): a near-square rows×cols with rows*cols >= n.
func squareSides(n int) (rows, cols int) {
	side := int(math.Round(math.Sqrt(float64(n))))
	if side < 1 {
		side = 1
	}
	return side, (n + side - 1) / side
}
