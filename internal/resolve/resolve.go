// Package resolve implements the multiaccess-channel conflict-resolution
// protocols the paper builds on: the deterministic tree-splitting algorithm
// of Capetanakis (1979) used to schedule fragment cores, the randomized
// contention scheme in the style of Metcalfe–Boggs (1976), and the
// bit-by-bit deterministic election sketched in §2. (The Greenberg–Ladner
// size estimator of §7.4 lives in internal/size.)
//
// Every protocol is a lock-step sub-routine embedded in a node program: all
// nodes must enter it in the same round; all nodes exit it in the same round
// and return identical results, because the only information used is the
// globally-visible sequence of slot resolutions. This file holds the
// blocking forms the goroutine programs of internal/partition call; step.go
// holds the per-round components native machines embed.
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

// Capetanakis runs the deterministic tree-splitting resolution over the id
// space [0, idSpace). A node participates as a contender iff contending is
// true, with the given distinct id and payload. It returns the schedule —
// every contender's id and payload, identical at every node — and the input
// of the round in which the protocol ended.
//
// The protocol maintains a stack of id intervals, initially {[0, idSpace)},
// replicated at every node from the public slot outcomes: contenders in the
// top interval transmit; idle pops, success records and pops, collision
// splits the interval in two. With k contenders it uses O(k·log(idSpace/k))
// slots, the bound the paper cites for scheduling fragment cores.
func Capetanakis(c *sim.Ctx, in sim.Input, idSpace int, contending bool, myID int, payload sim.Payload) ([]ScheduledItem, sim.Input) {
	sched, _, out := CapetanakisBounded(c, in, idSpace, contending, myID, payload, 0)
	return sched, out
}

// CapetanakisBounded is Capetanakis with a slot budget: if maxSlots > 0 the
// protocol gives up after that many slots and complete reports whether the
// resolution finished. The §7.3 size-computation algorithm uses it to probe
// whether at most 2^i fragments remain after phase i.
func CapetanakisBounded(c *sim.Ctx, in sim.Input, idSpace int, contending bool, myID int, payload sim.Payload, maxSlots int) (sched []ScheduledItem, complete bool, out sim.Input) {
	if idSpace < 1 {
		idSpace = 1
	}
	type interval struct{ lo, hi int }
	stack := []interval{{0, idSpace}}
	for slots := 0; len(stack) > 0; slots++ {
		if maxSlots > 0 && slots >= maxSlots {
			return sched, false, in
		}
		top := stack[len(stack)-1]
		if contending && myID >= top.lo && myID < top.hi {
			c.Broadcast(wire{ID: myID, Data: payload})
		}
		in = c.Tick()
		switch in.Slot.State {
		case sim.SlotIdle:
			stack = stack[:len(stack)-1]
		case sim.SlotSuccess:
			w := in.Slot.Payload.(wire)
			sched = append(sched, ScheduledItem{ID: w.ID, Payload: w.Data})
			if contending && w.ID == myID {
				contending = false
			}
			stack = stack[:len(stack)-1]
		case sim.SlotCollision:
			mid := top.lo + (top.hi-top.lo)/2
			stack[len(stack)-1] = interval{mid, top.hi}
			stack = append(stack, interval{top.lo, mid})
		}
	}
	return sched, true, in
}

// MetcalfeBoggs runs randomized contention resolution with paired slots:
// even slots carry data transmissions (each unscheduled contender transmits
// with probability 1/k̂), odd slots carry a liveness busy tone from every
// still-unscheduled contender. The first idle liveness slot ends the
// protocol, so termination is exact without any shared knowledge beyond the
// slot sequence. k̂ starts at max(1, estimate) and adapts multiplicatively
// (collision ×2, idle ÷2, success −1), which recovers from bad estimates.
//
// If maxPairs > 0 the protocol gives up after that many slot pairs; done
// reports whether every contender was scheduled (used by the Las Vegas
// partition verifier, §4). With an accurate estimate the expected number of
// pairs is O(k), matching the O(1) expected slots per root the paper cites.
func MetcalfeBoggs(c *sim.Ctx, in sim.Input, estimate int, contending bool, myID int, payload sim.Payload, maxPairs int) (sched []ScheduledItem, done bool, out sim.Input) {
	khat := estimate
	if khat < 1 {
		khat = 1
	}
	for pair := 0; maxPairs <= 0 || pair < maxPairs; pair++ {
		// Contend slot.
		if contending && c.Rand().Float64() < 1/float64(khat) {
			c.Broadcast(wire{ID: myID, Data: payload})
		}
		in = c.Tick()
		switch in.Slot.State {
		case sim.SlotSuccess:
			w := in.Slot.Payload.(wire)
			sched = append(sched, ScheduledItem{ID: w.ID, Payload: w.Data})
			if contending && w.ID == myID {
				contending = false
			}
			if khat > 1 {
				khat--
			}
		case sim.SlotCollision:
			khat *= 2
		case sim.SlotIdle:
			if khat > 1 {
				khat /= 2
			}
		}
		// Liveness slot.
		if contending {
			c.Busy()
		}
		in = c.Tick()
		if in.Slot.State == sim.SlotIdle {
			return sched, true, in
		}
	}
	return sched, false, in
}
