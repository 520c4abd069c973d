// Package async implements §7.1: the multiaccess channel as a synchronizer
// for an asynchronous point-to-point network.
//
// The synchronizer protocol is the paper's: every algorithm message is
// acknowledged, a node keeps a busy tone on the channel while any of its
// messages is unacknowledged, and an idle slot — heard by everyone
// simultaneously — is a clock pulse that starts the next simulated
// synchronous round. Synchronous algorithms therefore run unchanged: each
// node's RoundFunc is invoked once per pulse with the messages sent to it in
// the previous round.
//
// Sync runs the protocol on the step engine, where a slot is one engine
// round, under the process-wide sim.DefaultFaults. Without a plan the
// network is synchronous; a seeded delay plan such as delay:*@1-/p0.5/d1
// makes it asynchronous, holding messages back for up to d slots, and skew:
// rules slow one node's clock.
//
// Corollary 4's claims are directly measurable: acknowledgements exactly
// double the message complexity, and each simulated round costs at most
// 2d+3 slots — a message, its acknowledgement and the pulse.
package async

import (
	"errors"

	"repro/internal/graph"
	"repro/internal/sim"
)

// RoundFunc is a synchronous algorithm: invoked at every clock pulse with
// the round number and the messages sent to this node in the previous
// round. State lives in per-node closures created by the factory passed to
// Sync.
type RoundFunc func(api Port, round int, inbox []sim.Message)

// Port is the node handle a RoundFunc drives. Sync's port sends through the
// synchronizer; the package tests' lock-step reference implements it with
// plain synchronous rounds.
type Port interface {
	ID() graph.NodeID
	N() int
	Adj() []graph.Half
	Degree() int
	Send(link int, payload any)
	SendTo(to graph.NodeID, payload any)
	Halt()
}

// ErrRoundBudget is returned when the pulse budget is exhausted (a node
// neither sending nor halting forever).
var ErrRoundBudget = errors.New("async: round budget exhausted")
