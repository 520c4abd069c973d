// Synchronizer: §7.1 — the multiaccess channel as a synchronizer. A
// synchronous aggregation algorithm (BFS + convergecast + broadcast) runs
// unchanged on an asynchronous point-to-point network: every message is
// acknowledged, senders hold a busy tone while unacknowledged, and an idle
// slot is the global clock pulse starting the next round. The network is
// made asynchronous by a seeded delay plan that holds each message back one
// slot with probability 1/2. Corollary 4: at most 2× the messages and a
// constant time factor per round.
package main

import (
	"flag"
	"fmt"
	"log"
	"sync"

	"repro/internal/async"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/sim"
)

func main() {
	maxN := flag.Int("n", 400, "largest network size in the sweep")
	flag.Parse()
	plan, err := fault.Parse("seed:99;delay:*@1-/p0.5/d1")
	if err != nil {
		log.Fatal(err)
	}
	sim.DefaultFaults = plan
	for _, n := range sweepSizes([]int{25, 100}, *maxN) {
		g, err := graph.ImplicitGrid(n/5, 5, 3)
		if err != nil {
			log.Fatal(err)
		}
		results := make([]int64, g.N())
		var mu sync.Mutex
		readings := func(v graph.NodeID) int64 { return int64(v) + 1 }
		res, err := async.Sync(g, 99, 50*g.N()+500, async.SumDemo(readings, results, &mu))
		if err != nil {
			log.Fatal(err)
		}
		want := int64(g.N()) * int64(g.N()+1) / 2
		if results[0] != want {
			log.Fatalf("n=%d: got %d, want %d", g.N(), results[0], want)
		}
		fmt.Printf("n=%4d: sum=%-7d rounds=%-4d time=%-5d slots/round=%.2f  msgs=%d acks=%d overhead=%.2fx\n",
			g.N(), results[0], res.Rounds, res.Metrics.Rounds,
			float64(res.Metrics.Rounds)/float64(res.Rounds), res.AlgMsgs, res.AckMsgs, res.Overhead())
	}
	fmt.Println("\nunder the seeded delay plan the runs compute the same value as the")
	fmt.Println("synchronous algorithm, with exactly 2x messages and O(1) slots per round (Cor. 4).")
}

// sweepSizes keeps the default rungs below max and ends the sweep at max
// itself, so -n is honored exactly as its help text promises.
func sweepSizes(defaults []int, max int) []int {
	var sizes []int
	for _, s := range defaults {
		if s < max {
			sizes = append(sizes, s)
		}
	}
	return append(sizes, max)
}
