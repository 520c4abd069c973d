// Package resolve implements the multiaccess-channel conflict-resolution
// protocols the paper builds on: the deterministic tree-splitting algorithm
// of Capetanakis (1979) used to schedule fragment cores, the randomized
// contention scheme in the style of Metcalfe–Boggs (1976), and the
// bit-by-bit deterministic election sketched in §2. (The Greenberg–Ladner
// size estimator of §7.4 lives in internal/size.)
//
// Every protocol is a lock-step sub-routine embedded in a node's machine as
// a per-round component (step.go): all nodes must enter it in the same
// round; all nodes exit it in the same round and return identical results,
// because the only information used is the globally-visible sequence of
// slot resolutions.
package resolve

import (
	"repro/internal/sim"
)

// ScheduledItem is one successful channel acquisition: the contender's id
// and the payload it broadcast.
type ScheduledItem struct {
	ID      int
	Payload sim.Payload
}

// wire is the slot payload used by the scheduling protocols.
type wire struct {
	ID   int
	Data sim.Payload
}
