package async

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
)

// refPort is the Port of the lock-step reference: sends go straight into
// the next round's inboxes, with no channel and no acknowledgements.
type refPort struct {
	g      graph.Topology
	id     graph.NodeID
	next   [][]sim.Message
	sent   int64
	halted bool
}

func (p *refPort) ID() graph.NodeID  { return p.id }
func (p *refPort) N() int            { return p.g.N() }
func (p *refPort) Adj() []graph.Half { return p.g.Adj(p.id) }
func (p *refPort) Degree() int       { return p.g.Degree(p.id) }
func (p *refPort) Halt()             { p.halted = true }

func (p *refPort) Send(link int, payload any) {
	h := p.g.Adj(p.id)[link]
	p.next[h.To] = append(p.next[h.To], sim.Message{From: p.id, EdgeID: int(h.EdgeID), Payload: payload})
	p.sent++
}

func (p *refPort) SendTo(to graph.NodeID, payload any) {
	for l, h := range p.Adj() {
		if h.To == to {
			p.Send(l, payload)
			return
		}
	}
	panic(fmt.Sprintf("node %d is not adjacent to %d", p.id, to))
}

// sortInbox orders an inbox by (sender, edge id).
func sortInbox(box []sim.Message) {
	slices.SortFunc(box, func(a, b sim.Message) int {
		return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.EdgeID, b.EdgeID))
	})
}

// lockStep is the sequential reference of the §7.1 synchronizer: the
// RoundFuncs run in plain synchronous rounds, each live node once per round
// on the messages sent to it in the round before, its inbox sorted by
// (sender, edge id). A node that halts leaves after its round. That is the
// execution the synchronizer must reproduce; lockStep returns what
// SyncResult reports of it: the simulated rounds (one past the last round
// in which a node halted) and the algorithm messages.
func lockStep(t *testing.T, g graph.Topology, maxRounds int, factory func(graph.NodeID) RoundFunc) (rounds int, msgs int64) {
	t.Helper()
	ports := make([]*refPort, g.N())
	funcs := make([]RoundFunc, g.N())
	for v := range ports {
		ports[v] = &refPort{g: g, id: graph.NodeID(v)}
		funcs[v] = factory(graph.NodeID(v))
	}
	inbox := make([][]sim.Message, g.N())
	for r, live := 0, g.N(); live > 0; r++ {
		if r > maxRounds {
			t.Fatalf("lock-step reference: %d nodes still live after %d rounds", live, maxRounds)
		}
		next := make([][]sim.Message, g.N())
		for v, p := range ports {
			if p.halted {
				continue
			}
			p.next = next
			funcs[v](p, r, inbox[v])
			if p.halted {
				live--
				rounds = r + 1
			}
		}
		for _, box := range next {
			sortInbox(box)
		}
		inbox = next
	}
	for _, p := range ports {
		msgs += p.sent
	}
	return rounds, msgs
}

// traced wraps factory so that each call of a node's RoundFunc logs its
// round and inbox. The log sorts a copy of the inbox: under delays the
// synchronizer hands a round's messages over in arrival order.
func traced(factory func(graph.NodeID) RoundFunc, logs [][]string) func(graph.NodeID) RoundFunc {
	return func(id graph.NodeID) RoundFunc {
		rf := factory(id)
		return func(api Port, round int, inbox []sim.Message) {
			box := slices.Clone(inbox)
			sortInbox(box)
			logs[id] = append(logs[id], fmt.Sprintf("round %d: %#v", round, box))
			rf(api, round, inbox)
		}
	}
}

// TestSyncMatchesLockStep checks the synchronizer against the lock-step
// reference running the same algorithm, on the synchronous network and on
// asynchronous ones: every node must see the same messages in the same
// simulated round and compute the same value, in the same simulated rounds
// with the same algorithm messages.
func TestSyncMatchesLockStep(t *testing.T) {
	for _, spec := range []string{"random:40,70", "ring:16", "grid:16", "ring:64", "grid:64", "star:15", "path:2"} {
		g, err := graph.ParseSpec(spec, 11)
		if err != nil {
			t.Fatal(err)
		}
		n, budget := g.N(), 50*g.N()+500
		inputs := func(v graph.NodeID) int64 { return int64(v) + 1 }
		var mu sync.Mutex
		refResults, refLogs := make([]int64, n), make([][]string, n)
		rounds, msgs := lockStep(t, g, budget, traced(SumDemo(inputs, refResults, &mu), refLogs))
		if refResults[0] != wantSum(n) {
			t.Fatalf("%s: lock-step reference sum = %d, want %d", spec, refResults[0], wantSum(n))
		}
		for _, nw := range networks {
			t.Run(spec+"/"+nw.name, func(t *testing.T) {
				results, logs := make([]int64, n), make([][]string, n)
				res, err := syncUnder(t, nw.dsl, g, budget, traced(SumDemo(inputs, results, &mu), logs))
				if err != nil {
					t.Fatal(err)
				}
				if res.Rounds != rounds || res.AlgMsgs != msgs {
					t.Errorf("synchronizer: %d rounds, %d messages; lock-step: %d rounds, %d messages", res.Rounds, res.AlgMsgs, rounds, msgs)
				}
				for v := range n {
					if results[v] != refResults[v] {
						t.Fatalf("node %d computed %d, lock-step %d", v, results[v], refResults[v])
					}
					if !slices.Equal(logs[v], refLogs[v]) {
						t.Fatalf("node %d saw\n%s\nlock-step:\n%s", v, strings.Join(logs[v], "\n"), strings.Join(refLogs[v], "\n"))
					}
				}
			})
		}
	}
}
