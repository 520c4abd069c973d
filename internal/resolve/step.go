package resolve

// step.go provides the conflict-resolution sub-protocols as per-round
// components a sim.Machine embeds.
//
// Usage pattern: the machine calls Begin once, in the round the protocol
// starts (its first transmission is staged in that round), then feeds every
// subsequent round's Input through Poll until it reports done. When Poll
// reports done the machine continues its own next stage in the same Step
// call with the same Input.

import (
	"repro/internal/sim"
)

// interval is one id range on the Capetanakis splitting stack.
type interval struct{ lo, hi int }

// CapetanakisStep is the deterministic tree-splitting resolution over the id
// space [0, idSpace). A node participates as a contender iff contending is
// true, with the given distinct id and payload. After Poll reports done,
// Sched holds the schedule — every contender's id and payload, identical at
// every node — and Complete reports whether the resolution finished within
// the slot budget.
//
// The protocol maintains a stack of id intervals, initially {[0, idSpace)},
// replicated at every node from the public slot outcomes: contenders in the
// top interval transmit; idle pops, success records and pops, collision
// splits the interval in two. With k contenders it uses O(k·log(idSpace/k))
// slots, the bound the paper cites for scheduling fragment cores. A
// positive slot budget makes it give up after that many slots; the §7.3
// size computation uses it to probe whether at most 2^i fragments remain
// after phase i.
type CapetanakisStep struct {
	c *sim.StepCtx

	Sched    []ScheduledItem
	Complete bool

	idSpace    int
	contending bool
	myID       int
	payload    sim.Payload
	maxSlots   int

	stack []interval
	slots int
}

// NewCapetanakisStep returns the component in its pre-Begin state;
// maxSlots <= 0 means no budget.
func NewCapetanakisStep(c *sim.StepCtx, idSpace int, contending bool, myID int, payload sim.Payload, maxSlots int) *CapetanakisStep {
	if idSpace < 1 {
		idSpace = 1
	}
	return &CapetanakisStep{
		c: c, idSpace: idSpace, contending: contending, myID: myID,
		payload: payload, maxSlots: maxSlots,
	}
}

// Begin stages the first slot's transmission; call it once, in the round
// the protocol starts. It returns true if the protocol is over before its
// first slot (a zero slot budget).
func (s *CapetanakisStep) Begin() (done bool) {
	s.stack = []interval{{0, s.idSpace}}
	return s.transmit()
}

// transmit opens one slot: finish if the stack is empty, give up if the
// budget is spent, otherwise contend in the top interval.
func (s *CapetanakisStep) transmit() (done bool) {
	if len(s.stack) == 0 {
		s.Complete = true
		return true
	}
	if s.maxSlots > 0 && s.slots >= s.maxSlots {
		return true
	}
	top := s.stack[len(s.stack)-1]
	if s.contending && s.myID >= top.lo && s.myID < top.hi {
		s.c.Broadcast(wire{ID: s.myID, Data: s.payload})
	}
	return false
}

// Poll consumes one slot outcome and stages the next slot's transmission.
// When it reports done the caller proceeds in the same round.
func (s *CapetanakisStep) Poll(in sim.Input) (done bool) {
	s.slots++
	top := s.stack[len(s.stack)-1]
	switch in.Slot.State {
	case sim.SlotIdle:
		s.stack = s.stack[:len(s.stack)-1]
	case sim.SlotSuccess:
		w := in.Slot.Payload.(wire)
		s.Sched = append(s.Sched, ScheduledItem{ID: w.ID, Payload: w.Data})
		if s.contending && w.ID == s.myID {
			s.contending = false
		}
		s.stack = s.stack[:len(s.stack)-1]
	case sim.SlotCollision:
		mid := top.lo + (top.hi-top.lo)/2
		s.stack[len(s.stack)-1] = interval{mid, top.hi}
		s.stack = append(s.stack, interval{top.lo, mid})
	}
	return s.transmit()
}

// ElectionStep is the bit-by-bit deterministic leader election of §2 over
// the id space [0, idSpace): in each slot the surviving contenders whose
// current id bit is 1 transmit a busy tone; a non-idle slot eliminates the
// bit-0 survivors. After ⌈log idSpace⌉ slots the unique survivor is the
// contender with the maximum id, and every node reconstructs that id from
// the public slot outcomes. A leading liveness slot distinguishes "no
// contenders" (OK false). Takes O(log idSpace) slots, the paper's O(log n)
// deterministic election. After Poll reports done, Leader and OK hold the
// result.
type ElectionStep struct {
	c *sim.StepCtx

	Leader int
	OK     bool

	idSpace    int
	contending bool
	myID       int

	surviving bool
	bit       int // bit index awaiting its slot outcome; -1 = liveness slot
}

// NewElectionStep returns the component in its pre-Begin state.
func NewElectionStep(c *sim.StepCtx, idSpace int, contending bool, myID int) *ElectionStep {
	return &ElectionStep{c: c, idSpace: idSpace, contending: contending, myID: myID, bit: -1}
}

// Begin stages the liveness slot's transmission.
func (s *ElectionStep) Begin() {
	if s.contending {
		s.c.Busy()
	}
}

// Poll consumes one slot outcome and stages the next bit's transmission.
func (s *ElectionStep) Poll(in sim.Input) (done bool) {
	if s.bit == -1 {
		// Liveness outcome: an idle slot means no contenders.
		if in.Slot.State == sim.SlotIdle {
			return true
		}
		s.OK = true
		s.surviving = s.contending
		bits := 0
		for 1<<bits < s.idSpace {
			bits++
		}
		s.bit = bits // decremented to the first data bit below
	} else {
		if in.Slot.State != sim.SlotIdle {
			s.Leader |= 1 << s.bit
			if s.surviving && s.myID&(1<<s.bit) == 0 {
				s.surviving = false
			}
		}
	}
	s.bit--
	if s.bit < 0 {
		return true
	}
	if s.surviving && s.myID&(1<<s.bit) != 0 {
		s.c.Busy()
	}
	return false
}

// MetcalfeBoggsStep is randomized contention resolution with paired slots:
// even slots carry data transmissions (each unscheduled contender transmits
// with probability 1/k̂), odd slots carry a liveness busy tone from every
// still-unscheduled contender. The first idle liveness slot ends the
// protocol, so termination is exact without any shared knowledge beyond the
// slot sequence. k̂ starts at max(1, estimate) and adapts multiplicatively
// (collision ×2, idle ÷2, success −1), which recovers from bad estimates.
// With an accurate estimate the expected number of pairs is O(k), matching
// the O(1) expected slots per root the paper cites.
//
// After Poll reports done, Sched holds the schedule and Done whether every
// contender was scheduled within the pair budget (maxPairs > 0; the Las
// Vegas partition verifier of §4 uses it).
type MetcalfeBoggsStep struct {
	c *sim.StepCtx

	Sched []ScheduledItem
	Done  bool

	contending bool
	myID       int
	payload    sim.Payload
	maxPairs   int

	khat     int
	pair     int
	liveness bool // the outcome being awaited is a liveness slot
}

// NewMetcalfeBoggsStep returns the component in its pre-Begin state;
// maxPairs <= 0 means no budget.
func NewMetcalfeBoggsStep(c *sim.StepCtx, estimate int, contending bool, myID int, payload sim.Payload, maxPairs int) *MetcalfeBoggsStep {
	khat := estimate
	if khat < 1 {
		khat = 1
	}
	return &MetcalfeBoggsStep{c: c, khat: khat, contending: contending, myID: myID, payload: payload, maxPairs: maxPairs}
}

// Begin stages the first contend slot. It returns true if the pair budget
// is zero.
func (s *MetcalfeBoggsStep) Begin() (done bool) { return s.contend() }

// contend stages one contend-slot transmission, or finishes if the pair
// budget is spent.
func (s *MetcalfeBoggsStep) contend() (done bool) {
	if s.maxPairs > 0 && s.pair >= s.maxPairs {
		return true
	}
	if s.contending && s.c.Rand().Float64() < 1/float64(s.khat) {
		s.c.Broadcast(wire{ID: s.myID, Data: s.payload})
	}
	s.liveness = false
	return false
}

// Poll consumes one slot outcome and stages the next transmission.
func (s *MetcalfeBoggsStep) Poll(in sim.Input) (done bool) {
	if !s.liveness {
		switch in.Slot.State {
		case sim.SlotSuccess:
			w := in.Slot.Payload.(wire)
			s.Sched = append(s.Sched, ScheduledItem{ID: w.ID, Payload: w.Data})
			if s.contending && w.ID == s.myID {
				s.contending = false
			}
			if s.khat > 1 {
				s.khat--
			}
		case sim.SlotCollision:
			s.khat *= 2
		case sim.SlotIdle:
			if s.khat > 1 {
				s.khat /= 2
			}
		}
		if s.contending {
			s.c.Busy()
		}
		s.liveness = true
		return false
	}
	if in.Slot.State == sim.SlotIdle {
		s.Done = true
		return true
	}
	s.pair++
	return s.contend()
}
