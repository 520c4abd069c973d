package sim

// Channel-as-synchronizer barrier (§7.1). The paper notes that its
// synchronizer "can serve as a mechanism to detect the global termination of
// each phase and each step in a phase"; this file implements that mechanism
// for the synchronous engine.
//
// Protocol: while a node is active in the current step — it sent a message
// this round or declares pending work — it transmits a busy tone on the
// channel. Because delivery is synchronous (exactly one round), a sender's
// busy tone covers its in-flight message: if the slot of round t is idle,
// then no message was sent at round t and no node was active at round t, so
// when all nodes observe the idle slot at round t+1 the step has globally
// terminated. The idle slot is the paper's "clock pulse".

// SentThisRound reports whether this node queued any point-to-point message
// in the current round.
func (c *Ctx) SentThisRound() bool { return len(c.out) > 0 }

// IsPulse reports whether in carries a barrier pulse (the previous slot was
// idle).
func (in Input) IsPulse() bool { return in.Slot.State == SlotIdle }

// BarrierStep runs one barrier-synchronized step of a protocol. Each round
// it calls handle with the round's input; handle performs the node's sends
// for the round and reports whether the node is still active. Nodes that
// sent a message are treated as active regardless of handle's return value,
// which guarantees no message is in flight when the barrier fires. All nodes
// return from BarrierStep in the same round; the returned Input is the first
// one carrying the pulse (its Msgs are necessarily empty).
func BarrierStep(c *Ctx, in Input, handle func(Input) bool) Input {
	for {
		active := handle(in)
		if active || c.SentThisRound() {
			c.Busy()
		}
		in = c.Tick()
		if in.IsPulse() {
			return in
		}
	}
}
