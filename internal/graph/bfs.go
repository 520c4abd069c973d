package graph

// BFS holds the result of a breadth-first search from a root: parent
// pointers, hop distances and visit order. It is the reference implementation
// against which the distributed BFS protocols are tested.
type BFS struct {
	Root   NodeID
	Parent []NodeID // Parent[v] == -1 for the root and unreachable nodes
	Dist   []int    // Dist[v] == -1 for unreachable nodes
	Order  []NodeID // nodes in visit order (root first)
}

// NewBFS runs a breadth-first search over any topology from root.
func NewBFS(g Topology, root NodeID) *BFS {
	b := &BFS{
		Root:   root,
		Parent: make([]NodeID, g.N()),
		Dist:   make([]int, g.N()),
	}
	for v := range b.Parent {
		b.Parent[v] = -1
		b.Dist[v] = -1
	}
	b.Dist[root] = 0
	// Order doubles as the queue: nodes are visited in the order they are
	// enqueued, and at most n of them ever are.
	b.Order = append(make([]NodeID, 0, g.N()), root)
	var scratch AdjScratch
	for head := 0; head < len(b.Order); head++ {
		v := b.Order[head]
		for _, h := range g.AdjView(v, &scratch) {
			if b.Dist[h.To] == -1 {
				b.Dist[h.To] = b.Dist[v] + 1
				b.Parent[h.To] = v
				b.Order = append(b.Order, h.To)
			}
		}
	}
	return b
}

// Reached returns the number of nodes reachable from the root (including it).
func (b *BFS) Reached() int { return len(b.Order) }

// Eccentricity returns the maximum distance from the root to any reachable node.
func (b *BFS) Eccentricity() int {
	max := 0
	for _, d := range b.Dist {
		if d > max {
			max = d
		}
	}
	return max
}

// Diameter returns the exact hop diameter of a connected graph by running a
// BFS from every node. It is O(n·m) and intended for the modest sizes used in
// tests and experiments.
func Diameter(g Topology) int {
	d := 0
	for v := 0; v < g.N(); v++ {
		ecc := NewBFS(g, NodeID(v)).Eccentricity()
		if ecc > d {
			d = ecc
		}
	}
	return d
}

// DiameterLowerBound returns a lower bound on the diameter via a double
// sweep (two BFS passes); exact on trees and usually tight in practice.
func DiameterLowerBound(g Topology) int {
	first := NewBFS(g, 0)
	far := NodeID(0)
	for v, d := range first.Dist {
		if d > first.Dist[far] {
			far = NodeID(v)
		}
	}
	return NewBFS(g, far).Eccentricity()
}
