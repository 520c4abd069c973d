package graph

// spec.go is the one topology-spec grammar shared by the CLIs (mmnet,
// mmreplay, mmexp) and the test harnesses, so `-graph ring:10000000` means
// the same thing everywhere.
//
// Grammar:
//
//	spec     = ["mat:"] name ":" args
//	name     = ring|path|grid|torus|hypercube|star|btree|complete|random|ray|ba|ws
//	args     = int | int "x" int | int "," ... (per family, see below)
//
// Every spec carries its own size. The implicit-capable families (ring,
// path, grid, torus, hypercube, star, btree) build the implicit
// O(1)-memory form with hash-derived weights; the "mat:" prefix
// materializes the same topology into a stored *Graph (identical ids,
// weights, and transcripts — the cross-form determinism contract). The
// remaining families (complete, random, ray, ba, ws) are always
// materialized, with the generators' permutation weights.

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// SpecNames lists every topology family ParseSpec accepts, in the order the
// -graph flag documents them. cmd/mmnet's coverage test runs each one, so a
// generator cannot be added here without being reachable from the CLI.
func SpecNames() []string {
	return []string{
		"ring", "path", "grid", "torus", "hypercube", "star", "btree",
		"complete", "random", "ray", "ba", "ws",
	}
}

// SpecHelp is the -graph flag usage string.
func SpecHelp() string {
	return "topology: " + strings.Join(SpecNames(), "|") +
		" with its size, e.g. ring:10000000, grid:200x500, random:256,256, ba:5000,3, ws:5000,6,0.1 " +
		"(implicit O(1)-memory form where available; mat: prefix materializes it)"
}

// ParseSpec parses a topology spec ("ring:1024"). A bare family name is
// rejected: every spec carries its own size.
func ParseSpec(spec string, seed int64) (Topology, error) {
	materialize := false
	if rest, ok := strings.CutPrefix(spec, "mat:"); ok {
		materialize, spec = true, rest
	}
	name, args, hasArgs := strings.Cut(spec, ":")
	if !hasArgs && slices.Contains(SpecNames(), name) {
		return nil, fmt.Errorf("graph: spec %q needs arguments (e.g. %s:1024)", name, name)
	}
	t, err := buildSpec(name, args, seed)
	if err != nil {
		return nil, err
	}
	if materialize {
		return Materialize(t)
	}
	return t, nil
}

func buildSpec(name, args string, seed int64) (Topology, error) {
	bad := func(want string) error {
		return fmt.Errorf("graph: spec %s:%s: want %s:%s", name, args, name, want)
	}
	switch name {
	case "ring", "path", "star", "btree", "complete":
		n, err := strconv.Atoi(args)
		if err != nil {
			return nil, bad("N")
		}
		switch name {
		case "ring":
			return ImplicitRing(n, seed)
		case "path":
			return ImplicitPath(n, seed)
		case "star":
			return ImplicitStar(n, seed)
		case "btree":
			return ImplicitBinaryTree(n, seed)
		default:
			return Complete(n, seed)
		}
	case "grid", "torus":
		rows, cols, err := parseSides(args)
		if err != nil {
			return nil, bad("RxC or N")
		}
		if name == "grid" {
			return ImplicitGrid(rows, cols, seed)
		}
		return ImplicitTorus(rows, cols, seed)
	case "hypercube":
		dim, err := strconv.Atoi(args)
		if err != nil {
			return nil, bad("DIM")
		}
		return ImplicitHypercube(dim, seed)
	case "random":
		p, err := parseInts(args, 2)
		if err != nil {
			return nil, bad("N,EXTRA")
		}
		return RandomConnected(p[0], p[1], seed)
	case "ray":
		p, err := parseInts(args, 2)
		if err != nil {
			return nil, bad("RAYS,LEN")
		}
		return Ray(p[0], p[1], seed)
	case "ba":
		p, err := parseInts(args, 2)
		if err != nil {
			return nil, bad("N,ATTACH")
		}
		return BarabasiAlbert(p[0], p[1], seed)
	case "ws":
		var n, k int
		var beta float64
		parts := strings.Split(args, ",")
		if len(parts) != 3 {
			return nil, bad("N,K,BETA")
		}
		var err1, err2, err3 error
		n, err1 = strconv.Atoi(parts[0])
		k, err2 = strconv.Atoi(parts[1])
		beta, err3 = strconv.ParseFloat(parts[2], 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, bad("N,K,BETA")
		}
		return WattsStrogatz(n, k, beta, seed)
	default:
		return nil, fmt.Errorf("graph: unknown topology %q (want %s)", name, strings.Join(SpecNames(), "|"))
	}
}

// parseSides parses "RxC" or a bare node count (resolved near-square).
func parseSides(s string) (rows, cols int, err error) {
	if r, c, ok := strings.Cut(s, "x"); ok {
		rows, err1 := strconv.Atoi(r)
		cols, err2 := strconv.Atoi(c)
		if err1 != nil || err2 != nil {
			return 0, 0, fmt.Errorf("bad sides %q", s)
		}
		return rows, cols, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, 0, err
	}
	rows, cols = squareSides(n)
	return rows, cols, nil
}

func parseInts(s string, want int) ([]int, error) {
	parts := strings.Split(s, ",")
	if len(parts) != want {
		return nil, fmt.Errorf("want %d comma-separated ints, got %q", want, s)
	}
	out := make([]int, want)
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}
