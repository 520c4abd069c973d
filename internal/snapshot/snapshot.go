// Package snapshot realizes the §2 observation that global snapshots
// (Chandy–Lamport 1985) are trivial in a multimedia network: the channel
// lets every node hear the same mark in the same round, so all nodes record
// their state at one common round boundary — a consistent cut with no
// marker flooding over the point-to-point network.
//
// When several nodes want a snapshot simultaneously, the §2 deterministic
// election resolves the contention first; the winner's mark round is the
// cut. The whole protocol costs O(log n) slots and no point-to-point
// messages.
package snapshot

import (
	"fmt"

	"repro/internal/graph"
)

// Cut describes one completed snapshot.
type Cut struct {
	Initiator graph.NodeID
	Round     int // the common round at which every node recorded its state
}

// Consistent verifies that a set of per-node cuts agree (same initiator and
// round) — the defining property the channel makes trivial.
func Consistent(cuts []Cut) error {
	for i := 1; i < len(cuts); i++ {
		if cuts[i] != cuts[0] {
			return fmt.Errorf("snapshot: node %d recorded %+v, node 0 %+v", i, cuts[i], cuts[0])
		}
	}
	return nil
}
