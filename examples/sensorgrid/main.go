// Sensorgrid: the workload the paper's introduction motivates — a large
// sensor mesh whose readings must be aggregated everywhere. Compares the
// three architectures of §5 head to head on a ring (worst case for pure
// point-to-point: d = n/2) and prints who wins at each size.
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/globalfunc"
	"repro/internal/graph"
)

func main() {
	maxN := flag.Int("n", 1024, "largest network size in the sweep")
	flag.Parse()
	sizes := sweepSizes([]int{64, 256}, *maxN)
	readings := func(v graph.NodeID) int64 { return (int64(v)*31 + 7) % 100 }

	fmt.Println("total of all sensor readings, ring topology (d = n/2):")
	fmt.Printf("%6s  %6s  %14s  %14s  %14s\n", "n", "d", "multimedia", "p2p only", "bus only")
	for _, n := range sizes {
		g, err := graph.ImplicitRing(n, 1)
		if err != nil {
			log.Fatal(err)
		}
		mm, err := globalfunc.Multimedia(g, 1, globalfunc.Sum, readings,
			globalfunc.VariantRandomized, globalfunc.StageMetcalfeBoggs)
		if err != nil {
			log.Fatal(err)
		}
		p2p, err := globalfunc.PointToPoint(g, 1, globalfunc.Sum, readings)
		if err != nil {
			log.Fatal(err)
		}
		bus, err := globalfunc.BroadcastOnly(g, 1, globalfunc.Sum, readings,
			globalfunc.StageCapetanakis)
		if err != nil {
			log.Fatal(err)
		}
		if mm.Value != p2p.Value || mm.Value != bus.Value {
			log.Fatalf("disagreement: %d %d %d", mm.Value, p2p.Value, bus.Value)
		}
		fmt.Printf("%6d  %6d  %8d rounds  %8d rounds  %8d rounds\n",
			n, n/2, mm.Total.Rounds, p2p.Total.Rounds, bus.Total.Rounds)
	}
	fmt.Println("\nthe multimedia combination scales as Õ(√n); each single medium")
	fmt.Println("is bound below by Ω(d) (point-to-point) or Ω(n) (bus) — Theorem 2.")
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
