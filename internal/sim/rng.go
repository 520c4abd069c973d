package sim

// rng.go holds the per-node RNG machinery: the seed derivation that turns
// (master seed, node id) into a private stream, and the SplitMix64 stream
// arithmetic that makes RNG positions checkpointable.
//
// # Derivation
//
// Historically per-node seeds were derived as seed*1_000_003 + id —
// a linear map that collides across runs as soon as n exceeds 1,000,003:
// the run with master seed s shares node RNG streams with the run seeded
// s+1, shifted by 1,000,003 node ids, exactly the n > 10⁶ regime the
// implicit topologies opened. nodeSeed now mixes the pair through the
// keyed splitmix64 finalizer (fault.Mix64, the same primitive behind the
// injector's coins and the implicit topologies' weights), so distinct
// (seed, id) pairs give independent streams at any network size.
//
// # Stream
//
// Each node's stream is SplitMix64: the whole stream state is one 64-bit
// word that advances by a fixed odd gamma per draw, with a finalizer mix on
// output. The engine keeps the (state word, draw count) pair per node in
// its shards and serves it through a shared rand.Rand (step.go's shardRNG).
// Two properties pay for the stream change (which moved the RNG-drawing
// goldens once, like the nodeSeed derivation change before it):
//
//   - Memory: the per-node RNG is two words (state + draw count) instead of
//     math/rand's ~4.9 KB rngSource array — the difference between 10⁸
//     drawing nodes fitting in RAM or not.
//   - O(1) positioning: state after k draws is seed + k·gamma, so a resume
//     jumps to the checkpointed position arithmetically instead of
//     discarding k draws one by one.
//
// Every rand.Rand generator method advances the source by at least one call
// and each source call is one gamma step, so the draw count alone pins the
// position — bit-identical continuation without serializing internals.

import (
	"repro/internal/fault"
	"repro/internal/graph"
)

// rngSalt keys the per-node seed derivation so node RNG streams are
// independent of the injector's coins and the topology weights, which mix
// the same words through the same finalizer.
const rngSalt = 0x6e0de5eed

// nodeSeed derives node id's private RNG seed from the master seed — the
// single derivation every run and resume shares.
func nodeSeed(seed int64, id graph.NodeID) int64 {
	return int64(fault.Mix64(uint64(seed), uint64(id), rngSalt))
}

// restartSalt keys the incarnation derivation of nodeSeedAt, independent of
// every other use of the finalizer.
const restartSalt = 0x4e57a47

// nodeSeedAt derives the RNG seed of node id's k-th incarnation: a
// crash-restarted node draws from a fresh stream, never replaying or
// continuing the dead incarnation's randomness. Incarnation 0 is exactly
// nodeSeed — pre-restart behavior (and every committed golden) is
// untouched. Part of the determinism contract: every worker count and every
// resume derive the same incarnation streams.
func nodeSeedAt(seed int64, id graph.NodeID, incarnation int) int64 {
	if incarnation == 0 {
		return nodeSeed(seed, id)
	}
	return int64(fault.Mix64(uint64(nodeSeed(seed, id)), uint64(incarnation), restartSalt))
}

// splitmixGamma is Weyl increment of the SplitMix64 sequence (the golden
// ratio in 0.64 fixed point, forced odd), as in Steele, Lea & Flood,
// "Fast Splittable Pseudorandom Number Generators" (OOPSLA 2014).
const splitmixGamma = 0x9e3779b97f4a7c15

// splitmix64 finalizes one state word into one output word.
func splitmix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// rngWordAt returns the SplitMix64 state word of a stream seeded with seed
// after draws outputs — the O(1) position arithmetic checkpoint resume uses
// to reposition a node's RNG slot.
func rngWordAt(seed int64, draws uint64) uint64 {
	return uint64(seed) + draws*splitmixGamma
}
