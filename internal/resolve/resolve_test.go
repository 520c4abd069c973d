package resolve

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
)

// scheduler is the Begin/Poll surface of the scheduling components.
type scheduler interface {
	Begin() (done bool)
	Poll(in sim.Input) (done bool)
}

// schedMachine drives one scheduling component from round 0 and records
// result() in the round it reports done.
type schedMachine struct {
	s      scheduler
	result func() any
	out    any
}

func (m *schedMachine) Step(in sim.Input) bool {
	var done bool
	if in.Round == 0 {
		done = m.s.Begin()
	} else {
		done = m.s.Poll(in)
	}
	if done {
		m.out = m.result()
	}
	return done
}

func (m *schedMachine) Result() any { return m.out }

// capetanakis builds node c's machine for an unbounded Capetanakis run
// that records result(schedule).
func capetanakis(c *sim.StepCtx, contending bool, payload sim.Payload, result func([]ScheduledItem) any) sim.Machine {
	s := NewCapetanakisStep(c, c.N(), contending, int(c.ID()), payload, 0)
	return &schedMachine{s: s, result: func() any { return result(s.Sched) }}
}

// metcalfeBoggs builds node c's machine for a Metcalfe–Boggs run that
// records result(schedule, done).
func metcalfeBoggs(c *sim.StepCtx, estimate int, contending bool, payload sim.Payload, maxPairs int, result func([]ScheduledItem, bool) any) sim.Machine {
	s := NewMetcalfeBoggsStep(c, estimate, contending, int(c.ID()), payload, maxPairs)
	return &schedMachine{s: s, result: func() any { return result(s.Sched, s.Done) }}
}

// runProtocol executes one resolution protocol on a ring of n nodes and
// returns per-node results plus metrics.
func runProtocol(t *testing.T, n int, seed int64, prog sim.StepProgram) *sim.Result {
	t.Helper()
	g, err := graph.ImplicitRing(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunStep(g, prog, sim.WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func schedIDs(s []ScheduledItem) []int {
	ids := make([]int, len(s))
	for i, it := range s {
		ids[i] = it.ID
	}
	return ids
}

func TestCapetanakisSchedulesAllContenders(t *testing.T) {
	tests := []struct {
		name       string
		n          int
		contenders []int
	}{
		{"none", 8, nil},
		{"single", 8, []int{3}},
		{"two adjacent ids", 8, []int{4, 5}},
		{"all", 8, []int{0, 1, 2, 3, 4, 5, 6, 7}},
		{"sparse", 16, []int{0, 7, 15}},
		{"extremes", 16, []int{0, 15}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			isC := make(map[int]bool)
			for _, c := range tt.contenders {
				isC[c] = true
			}
			res := runProtocol(t, tt.n, 1, func(c *sim.StepCtx) sim.Machine {
				id := int(c.ID())
				return capetanakis(c, isC[id], fmt.Sprintf("p%d", id), func(s []ScheduledItem) any {
					return fmt.Sprint(schedIDs(s))
				})
			})
			// The schedule order is protocol-determined but identical
			// everywhere; it must contain exactly the contenders.
			got := res.Results[0].(string)
			for v := 1; v < tt.n; v++ {
				if res.Results[v] != got {
					t.Fatalf("node %d schedule %v != node 0 schedule %v", v, res.Results[v], got)
				}
			}
			res2 := runProtocol(t, tt.n, 1, func(c *sim.StepCtx) sim.Machine {
				return capetanakis(c, isC[int(c.ID())], nil, func(s []ScheduledItem) any {
					ids := schedIDs(s)
					sort.Ints(ids)
					return fmt.Sprint(ids)
				})
			})
			want := append([]int(nil), tt.contenders...)
			sort.Ints(want)
			if res2.Results[0].(string) != fmt.Sprint(want) {
				t.Errorf("scheduled ids = %v, want %v", res2.Results[0], want)
			}
		})
	}
}

func TestCapetanakisPayloadsDelivered(t *testing.T) {
	res := runProtocol(t, 8, 1, func(c *sim.StepCtx) sim.Machine {
		id := int(c.ID())
		return capetanakis(c, id == 2 || id == 6, id*100, func(s []ScheduledItem) any {
			sum := 0
			for _, it := range s {
				sum += it.Payload.(int)
			}
			return sum
		})
	})
	for v, r := range res.Results {
		if r != 800 {
			t.Errorf("node %d payload sum = %v, want 800", v, r)
		}
	}
}

func TestCapetanakisSlotBound(t *testing.T) {
	// With k contenders out of n ids the tree algorithm uses
	// O(k log(n/k) + k) slots; check a generous concrete bound.
	n := 64
	for _, k := range []int{1, 4, 16, 64} {
		res := runProtocol(t, n, 1, func(c *sim.StepCtx) sim.Machine {
			return capetanakis(c, int(c.ID())%(n/k) == 0, nil, func([]ScheduledItem) any { return nil })
		})
		slots := res.Metrics.Rounds
		bound := 4*k*(1+int(math.Log2(float64(n/k)+1))) + 8
		if slots > bound {
			t.Errorf("k=%d: %d slots exceeds bound %d", k, slots, bound)
		}
	}
}

func TestMetcalfeBoggsSchedulesAll(t *testing.T) {
	for _, k := range []int{0, 1, 3, 10} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			res := runProtocol(t, 16, 42, func(c *sim.StepCtx) sim.Machine {
				id := int(c.ID())
				return metcalfeBoggs(c, k, id < k, id, 0, func(s []ScheduledItem, done bool) any {
					if !done {
						return "unbounded MB reported not done"
					}
					ids := schedIDs(s)
					sort.Ints(ids)
					return fmt.Sprint(ids)
				})
			})
			want := make([]int, k)
			for i := range want {
				want[i] = i
			}
			for v, r := range res.Results {
				if r != fmt.Sprint(want) {
					t.Errorf("node %d schedule %v, want %v", v, r, want)
				}
			}
		})
	}
}

func TestMetcalfeBoggsExpectedLinear(t *testing.T) {
	// Average slot pairs over seeds should be within a small constant of k.
	n, k := 64, 32
	total := 0
	const seeds = 10
	for s := int64(0); s < seeds; s++ {
		res := runProtocol(t, n, s, func(c *sim.StepCtx) sim.Machine {
			return metcalfeBoggs(c, k, int(c.ID()) < k, nil, 0, func([]ScheduledItem, bool) any { return nil })
		})
		total += res.Metrics.Rounds
	}
	avgPairs := float64(total) / seeds / 2
	if avgPairs > 8*float64(k) {
		t.Errorf("avg pairs %.1f > 8k = %d", avgPairs, 8*k)
	}
}

func TestMetcalfeBoggsBounded(t *testing.T) {
	// With a 1-pair budget and many contenders, done must be false (w.h.p.
	// there is a collision, and certainly not all 8 can be scheduled).
	res := runProtocol(t, 16, 7, func(c *sim.StepCtx) sim.Machine {
		return metcalfeBoggs(c, 8, int(c.ID()) < 8, nil, 1, func(_ []ScheduledItem, done bool) any { return done })
	})
	for v, r := range res.Results {
		if r != false {
			t.Errorf("node %d: done = %v, want false", v, r)
		}
	}
}

// electTestMachine runs the election with the given contention and
// records [leader, ok].
type electTestMachine struct {
	e   *ElectionStep
	out any
}

func (m *electTestMachine) Step(in sim.Input) bool {
	if in.Round == 0 {
		m.e.Begin()
		return false
	}
	if !m.e.Poll(in) {
		return false
	}
	m.out = [2]int{m.e.Leader, b2i(m.e.OK)}
	return true
}

func (m *electTestMachine) Result() any { return m.out }

// runElection runs the election on a ring of n nodes.
func runElection(t *testing.T, n int, contending func(id int) bool) *sim.Result {
	t.Helper()
	g, err := graph.ImplicitRing(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunStep(g, func(c *sim.StepCtx) sim.Machine {
		id := int(c.ID())
		return &electTestMachine{e: NewElectionStep(c, c.N(), contending(id), id)}
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestElection(t *testing.T) {
	tests := []struct {
		name       string
		contenders []int
		wantLeader int
		wantOK     bool
	}{
		{"none", nil, 0, false},
		{"single", []int{5}, 5, true},
		{"pair", []int{3, 11}, 11, true},
		{"max id", []int{0, 7, 15}, 15, true},
		{"zero only", []int{0}, 0, true},
		{"all", []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}, 15, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			isC := make(map[int]bool)
			for _, c := range tt.contenders {
				isC[c] = true
			}
			res := runElection(t, 16, func(id int) bool { return isC[id] })
			for v, r := range res.Results {
				got := r.([2]int)
				if got[1] != b2i(tt.wantOK) {
					t.Fatalf("node %d ok = %d, want %v", v, got[1], tt.wantOK)
				}
				if tt.wantOK && got[0] != tt.wantLeader {
					t.Fatalf("node %d leader = %d, want %d", v, got[0], tt.wantLeader)
				}
			}
		})
	}
}

func TestElectionSlotCount(t *testing.T) {
	// 1 liveness slot + ⌈log2 n⌉ bit slots, plus the trailing round in
	// which the machines halt.
	res := runElection(t, 32, func(int) bool { return true })
	if res.Metrics.Rounds != 1+5+1 {
		t.Errorf("rounds = %d, want 7", res.Metrics.Rounds)
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
