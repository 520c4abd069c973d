// Census: determining how many stations share the network when n is not
// known in advance (§7.3/§7.4). The deterministic algorithm interleaves the
// partition with channel probes and computes n exactly; the Greenberg–Ladner
// protocol estimates n within a constant factor in O(log n) slots.
//
// Every protocol here is a step machine on the simulator's one engine: the
// §7.3 count's partition phases and channel probes, the §7.4 estimator, and
// the finale's census on a ring three orders of magnitude larger than the
// small network — the regime the engine's sleep/wake scheduling is built
// for, where only the wavefront's nodes step each round.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/size"
)

func main() {
	nFlag := flag.Int("n", 150, "stations in the small network")
	bigFlag := flag.Int("big", 200_000, "stations in the native-census ring finale")
	flag.Parse()

	n := *nFlag
	g, err := graph.RandomConnected(n, 2*n, 11)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("network of (secretly) %d stations, simulated on the %s engine\n",
		n, sim.EngineStep)

	exact, err := size.Exact(g, 1, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("§7.3 deterministic count: n = %d after %d partition phases (%d rounds, %d messages)\n",
		exact.N, exact.Phases, exact.Metrics.Rounds, exact.Metrics.Messages)

	fmt.Println("§7.4 randomized estimates (5 runs, native step machines):")
	for s := int64(0); s < 5; s++ {
		est, err := size.Estimate(g, s)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  seed %d: 2^k = %-5d (ratio %.2f, %d slots)\n",
			s, est.Estimate, float64(est.Estimate)/float64(n), est.Rounds)
	}

	// The native step census at a scale no goroutine-per-node engine
	// reaches: every node sleeps until the BFS wavefront arrives, so the
	// engine does O(n + m) work regardless of the 10⁵ rounds the wave needs.
	big := *bigFlag
	bigRing, err := graph.ImplicitRing(big, 7)
	if err != nil {
		log.Fatal(err)
	}
	t0 := time.Now()
	census, err := size.Census(bigRing, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("native step census of a %d-node ring: n = %d in %d rounds, %d messages (%v wall)\n",
		big, census.N, census.Metrics.Rounds, census.Metrics.Messages, time.Since(t0).Round(time.Millisecond))
	fmt.Println("estimates land within a constant factor of n w.h.p.; the exact")
	fmt.Println("count costs Õ(√n) time but no prior knowledge beyond the id length.")
}
