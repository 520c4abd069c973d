// Benchmarks that regenerate every experiment table (DESIGN.md §5): one
// bench per table/claim, each running the quick parameter sweep per
// iteration. Run the full sweeps with `go run ./cmd/mmexp -full`.
package repro

import (
	"io"
	"testing"

	"repro/internal/exp"
	"repro/internal/globalfunc"
	"repro/internal/graph"
	"repro/internal/mst"
	"repro/internal/partition"
	"repro/internal/sim"
	"repro/internal/size"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for _, e := range exp.All() {
		if e.ID != id {
			continue
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := e.Run(io.Discard, false); err != nil {
				b.Fatal(err)
			}
		}
		return
	}
	b.Fatalf("experiment %s not registered", id)
}

func BenchmarkE1DeterministicPartition(b *testing.B) { benchExperiment(b, "E1") }
func BenchmarkE2RandomizedPartition(b *testing.B)    { benchExperiment(b, "E2") }
func BenchmarkE3GlobalSensitive(b *testing.B)        { benchExperiment(b, "E3") }
func BenchmarkE4BalancedVariant(b *testing.B)        { benchExperiment(b, "E4") }
func BenchmarkE5MST(b *testing.B)                    { benchExperiment(b, "E5") }
func BenchmarkE6Synchronizer(b *testing.B)           { benchExperiment(b, "E6") }
func BenchmarkE7NetworkSize(b *testing.B)            { benchExperiment(b, "E7") }
func BenchmarkE8RayLowerBound(b *testing.B)          { benchExperiment(b, "E8") }
func BenchmarkE9EngineScaling(b *testing.B)          { benchExperiment(b, "E9") }
func BenchmarkA2MonteCarloVsLasVegas(b *testing.B)   { benchExperiment(b, "A2") }
func BenchmarkA3GlobalStageProtocols(b *testing.B)   { benchExperiment(b, "A3") }
func BenchmarkA4MWOETesting(b *testing.B)            { benchExperiment(b, "A4") }

// Micro-benchmarks of the individual algorithms at a fixed size, reporting
// the paper's cost measures as custom metrics.

func ringGraph(b *testing.B, n int) *graph.Graph {
	b.Helper()
	g, err := graph.Ring(n, 1)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func BenchmarkPartitionDeterministic256(b *testing.B) {
	g := ringGraph(b, 256)
	var rounds, msgs int64
	for i := 0; i < b.N; i++ {
		_, met, _, err := partition.Deterministic(g, 1)
		if err != nil {
			b.Fatal(err)
		}
		rounds, msgs = int64(met.Rounds), met.Messages
	}
	b.ReportMetric(float64(rounds), "rounds")
	b.ReportMetric(float64(msgs), "p2p-msgs")
}

func BenchmarkPartitionRandomized256(b *testing.B) {
	g := ringGraph(b, 256)
	var rounds, msgs int64
	for i := 0; i < b.N; i++ {
		_, met, _, err := partition.Randomized(g, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		rounds, msgs = int64(met.Rounds), met.Messages
	}
	b.ReportMetric(float64(rounds), "rounds")
	b.ReportMetric(float64(msgs), "p2p-msgs")
}

func BenchmarkGlobalSum256(b *testing.B) {
	g := ringGraph(b, 256)
	in := func(v graph.NodeID) int64 { return int64(v) }
	var rounds int64
	for i := 0; i < b.N; i++ {
		res, err := globalfunc.Multimedia(g, int64(i), globalfunc.Sum, in,
			globalfunc.VariantRandomized, globalfunc.StageMetcalfeBoggs)
		if err != nil {
			b.Fatal(err)
		}
		rounds = int64(res.Total.Rounds)
	}
	b.ReportMetric(float64(rounds), "rounds")
}

func BenchmarkMST256(b *testing.B) {
	g, err := graph.RandomConnected(256, 512, 3)
	if err != nil {
		b.Fatal(err)
	}
	var rounds int64
	for i := 0; i < b.N; i++ {
		res, err := mst.Multimedia(g, 1)
		if err != nil {
			b.Fatal(err)
		}
		rounds = int64(res.Total.Rounds)
	}
	b.ReportMetric(float64(rounds), "rounds")
}

// Engine benchmarks: round throughput of a fixed-round relay protocol —
// every node sends one message per round for relayRounds rounds — and a
// sleep/wake census wavefront, both on a 10⁵-node ring.

const (
	relayNodes  = 100_000
	relayRounds = 20
)

type relayMachine struct{ c *sim.StepCtx }

func (m relayMachine) Step(in sim.Input) bool {
	if in.Round == relayRounds {
		return true
	}
	m.c.Send(0, in.Round)
	return false
}

func (m relayMachine) Result() any { return nil }

func BenchmarkEngineRelayStepNative100k(b *testing.B) {
	g := ringGraph(b, relayNodes)
	prog := func(c *sim.StepCtx) sim.Machine { return relayMachine{c: c} }
	b.ResetTimer()
	var rounds int
	for i := 0; i < b.N; i++ {
		res, err := sim.RunStep(g, prog)
		if err != nil {
			b.Fatal(err)
		}
		if res.Metrics.Messages != relayNodes*relayRounds {
			b.Fatalf("messages = %d", res.Metrics.Messages)
		}
		rounds += res.Metrics.Rounds
	}
	b.StopTimer()
	b.ReportMetric(float64(rounds)/b.Elapsed().Seconds(), "rounds/sec")
}

// BenchmarkEngineCensusStepNative100k measures a sleep/wake wavefront
// census on a 10⁵-node ring: only the wavefront's nodes step each round,
// where stepping every node would cost n·rounds ≈ 1.5·10¹⁰ node-rounds.
func BenchmarkEngineCensusStepNative100k(b *testing.B) {
	g := ringGraph(b, relayNodes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := size.Census(g, 1)
		if err != nil {
			b.Fatal(err)
		}
		if res.N != relayNodes {
			b.Fatalf("census = %d", res.N)
		}
	}
}
