package async

import (
	"sync"

	"repro/internal/graph"
	"repro/internal/sim"
)

// SumDemo builds a synchronous BFS-aggregation algorithm (the globalfunc
// point-to-point baseline restated as a RoundFunc): node 0 floods an
// explore wave, partial sums converge back up the BFS tree, and the total
// is broadcast down. It is the workload of the §7.1 experiment: the same
// rounds-based code runs through the channel synchronizer on a synchronous
// network and on an asynchronous one.
//
// results[v] receives node v's final value; the slice must have length n
// and is written under mu.
func SumDemo(inputs func(graph.NodeID) int64, results []int64, mu *sync.Mutex) func(graph.NodeID) RoundFunc {
	type explore struct{}
	type ack struct{ Child bool }
	type value struct{ V int64 }
	type result struct{ V int64 }

	return func(id graph.NodeID) RoundFunc {
		adopted := id == 0
		parentLink := -1
		acksPending := 0
		explored := false
		var childLinks []int
		reports := 0
		partial := inputs(id)
		sentUp := false
		done := false

		return func(api Port, round int, inbox []sim.Message) {
			if done {
				api.Halt()
				return
			}
			linkOf := func(edgeID int) int {
				for l, h := range api.Adj() {
					if int(h.EdgeID) == edgeID {
						return l
					}
				}
				return -1
			}
			sendExplores := func(skip map[int]bool) {
				for l := 0; l < api.Degree(); l++ {
					if !skip[l] {
						api.Send(l, explore{})
						acksPending++
					}
				}
				explored = true
			}
			if id == 0 && round == 0 {
				sendExplores(nil)
			}

			// Adoption: least sender among this round's explores.
			bestLink := -1
			var bestFrom graph.NodeID
			skip := make(map[int]bool)
			for _, m := range inbox {
				if _, ok := m.Payload.(explore); ok {
					l := linkOf(m.EdgeID)
					skip[l] = true
					if bestLink == -1 || m.From < bestFrom {
						bestLink, bestFrom = l, m.From
					}
				}
			}
			adoptedNow := false
			if bestLink != -1 && !adopted {
				adopted = true
				adoptedNow = true
				parentLink = bestLink
				sendExplores(skip)
			}

			parentBusy := false
			for _, m := range inbox {
				l := linkOf(m.EdgeID)
				switch p := m.Payload.(type) {
				case explore:
					api.Send(l, ack{Child: adoptedNow && l == parentLink})
					if l == parentLink {
						parentBusy = true
					}
				case ack:
					acksPending--
					if p.Child {
						childLinks = append(childLinks, l)
					}
				case value:
					partial += p.V
					reports++
				case result:
					for _, cl := range childLinks {
						api.Send(cl, result{V: p.V})
					}
					mu.Lock()
					results[id] = p.V
					mu.Unlock()
					done = true
				}
			}
			if adopted && explored && acksPending == 0 && !sentUp &&
				reports == len(childLinks) && !parentBusy && !done {
				sentUp = true
				if id == 0 {
					for _, cl := range childLinks {
						api.Send(cl, result{V: partial})
					}
					mu.Lock()
					results[id] = partial
					mu.Unlock()
					done = true
				} else {
					api.Send(parentLink, value{V: partial})
				}
			}
			if done {
				api.Halt()
			}
		}
	}
}
