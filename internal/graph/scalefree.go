package graph

// scalefree.go adds the two heavy-tailed materialized generators motivated
// by the random-walk literature on scale-free networks (PAPERS.md,
// arXiv:0908.0976): Barabási–Albert preferential attachment and
// Watts–Strogatz small-world rewiring. Both produce connected simple graphs
// with the package's permutation weights, so every protocol runs on them
// unchanged.

import (
	"fmt"
	"math/rand"
	"slices"
)

// BarabasiAlbert returns a scale-free graph grown by preferential
// attachment: nodes 0..attach form a seed clique, then each new node v
// attaches to `attach` distinct existing nodes sampled proportionally to
// their degree. The result is connected with m = C(attach+1, 2) +
// (n-attach-1)*attach edges and a heavy-tailed degree sequence.
func BarabasiAlbert(n, attach int, seed int64) (*Graph, error) {
	if attach < 1 {
		return nil, fmt.Errorf("graph: barabasi-albert needs attach >= 1, got %d", attach)
	}
	if n < 2 || n-2 < attach {
		return nil, fmt.Errorf("graph: barabasi-albert needs n >= attach+2, got n=%d attach=%d", n, attach)
	}
	clique := edgeCount(uint64(attach), uint64(attach+1), 0) / 2
	if err := checkStored(edgeCount(uint64(n-attach-1), uint64(attach), clique), "ba:%d,%d", n, attach); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	var edges []Edge
	// targets is the degree-weighted urn: every edge contributes both its
	// endpoints, so sampling uniformly from it is preferential attachment.
	var targets []NodeID
	addEdge := func(u, v NodeID) {
		edges = append(edges, Edge{U: u, V: v})
		targets = append(targets, u, v)
	}
	// Seed clique on attach+1 nodes, so each early node already has degree
	// `attach` when growth starts.
	for i := 0; i <= attach; i++ {
		for j := i + 1; j <= attach; j++ {
			addEdge(NodeID(i), NodeID(j))
		}
	}
	picked := make(map[NodeID]bool, attach)
	order := make([]NodeID, 0, attach)
	for v := attach + 1; v < n; v++ {
		clear(picked)
		order = order[:0]
		for len(order) < attach {
			t := targets[rng.Intn(len(targets))]
			if !picked[t] {
				picked[t] = true
				order = append(order, t)
			}
		}
		// Attach in ascending target order so the edge list (and hence the
		// weight permutation) is independent of the draw order.
		slices.Sort(order)
		for _, t := range order {
			addEdge(t, NodeID(v))
		}
	}
	return buildFrom(n, edges, seed+1)
}

// WattsStrogatz returns a small-world graph: the n-node ring lattice where
// each node links to its k/2 nearest neighbors on each side, with every
// chord of offset >= 2 rewired to a uniform random non-neighbor with
// probability beta. The offset-1 ring is never rewired, so the graph stays
// connected — a deliberate deviation from the textbook model that keeps
// every protocol's connectivity assumption intact.
func WattsStrogatz(n, k int, beta float64, seed int64) (*Graph, error) {
	if k < 2 || k%2 != 0 {
		return nil, fmt.Errorf("graph: watts-strogatz needs even k >= 2, got %d", k)
	}
	if n < 2 || n-2 < k {
		return nil, fmt.Errorf("graph: watts-strogatz needs n >= k+2, got n=%d k=%d", n, k)
	}
	if beta < 0 || beta > 1 {
		return nil, fmt.Errorf("graph: watts-strogatz needs beta in [0,1], got %g", beta)
	}
	if err := checkStored(edgeCount(uint64(n), uint64(k/2), 0), "ws:%d,%d,%g", n, k, beta); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[[2]NodeID]bool, n*k/2)
	var edges []Edge
	has := func(u, v NodeID) bool { return u == v || seen[normPair(u, v)] }
	add := func(u, v NodeID) {
		seen[normPair(u, v)] = true
		edges = append(edges, Edge{U: u, V: v})
	}
	// Ring lattice: node v links to v+1 .. v+k/2 (mod n).
	for off := 1; off <= k/2; off++ {
		for v := 0; v < n; v++ {
			add(NodeID(v), NodeID((v+off)%n))
		}
	}
	// Rewire chords (offset >= 2 only, so i starts past the ring's n
	// edges): replace {v, v+off} by {v, w} in place, keeping m constant.
	for i := n; i < len(edges); i++ {
		if rng.Float64() >= beta {
			continue
		}
		u := edges[i].U
		w := NodeID(rng.Intn(n))
		for tries := 0; has(u, w) && tries < 4*n; tries++ {
			w = NodeID(rng.Intn(n))
		}
		if has(u, w) {
			continue // saturated neighborhood; keep the lattice chord
		}
		delete(seen, normPair(edges[i].U, edges[i].V))
		seen[normPair(u, w)] = true
		edges[i] = Edge{U: u, V: w}
	}
	return buildFrom(n, edges, seed+1)
}
