// Package globalfunc implements §5: computing global sensitive functions in
// a multimedia network. A global sensitive function is F(x₁,…,xₙ) = x₁●…●xₙ
// for a commutative semigroup (X,●) whose value cannot be determined from
// any n-1 of its inputs (sum, min, max, xor over the integers are the
// canonical examples).
//
// The multimedia algorithm is two-stage: a local stage computes each
// partition tree's partial result in parallel by convergecast on the
// point-to-point network, then a global stage schedules the tree roots on
// the multiaccess channel — deterministically with Capetanakis tree
// splitting (O(√n·log n) time) or randomized with Metcalfe–Boggs contention
// (O(√n) expected time). The two baselines realize the paper's lower-bound
// models: a pure point-to-point network needs Ω(d) time, a pure broadcast
// network Ω(n).
package globalfunc

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/forest"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/resolve"
	"repro/internal/sim"
)

// Op is a commutative semigroup operation over int64.
type Op struct {
	Name    string
	Combine func(a, b int64) int64
}

// The canonical global sensitive functions of §5.
var (
	Sum = Op{Name: "sum", Combine: func(a, b int64) int64 { return a + b }}
	Min = Op{Name: "min", Combine: func(a, b int64) int64 {
		if a < b {
			return a
		}
		return b
	}}
	Max = Op{Name: "max", Combine: func(a, b int64) int64 {
		if a > b {
			return a
		}
		return b
	}}
	Xor = Op{Name: "xor", Combine: func(a, b int64) int64 { return a ^ b }}
)

// Inputs assigns each node its input element.
type Inputs func(v graph.NodeID) int64

// Reference computes the function sequentially (ground truth for tests).
func Reference(g graph.Topology, op Op, in Inputs) int64 {
	acc := in(0)
	for v := 1; v < g.N(); v++ {
		acc = op.Combine(acc, in(graph.NodeID(v)))
	}
	return acc
}

// Variant selects the partitioning algorithm feeding the multimedia
// computation.
type Variant int

// Partition variants.
const (
	// VariantDeterministic uses the §3 partition at the standard √n balance.
	VariantDeterministic Variant = iota + 1
	// VariantBalanced uses the §5.1 improved balance: the deterministic
	// partition is stopped at fragments of size √(n·log n/log* n), making
	// the local and global stages both O(√(n·log n·log* n)).
	VariantBalanced
	// VariantRandomized uses the §4 Las Vegas partition, whose verified
	// core schedule lets the global stage run with an exact contender count.
	VariantRandomized
)

// Stage selects the channel-scheduling protocol of the global stage.
type Stage int

// Global-stage protocols.
const (
	StageCapetanakis   Stage = iota + 1 // deterministic tree splitting
	StageMetcalfeBoggs                  // randomized contention
)

// Result reports a distributed computation's outcome and costs.
type Result struct {
	Value     int64
	Trees     int         // partition trees = channel contenders
	Partition sim.Metrics // stage-1 costs (zero for the baselines)
	Compute   sim.Metrics // local+global stage costs
	Total     sim.Metrics
}

// ErrDisagreement is returned when nodes finish with unequal values — a
// protocol bug by construction, surfaced defensively.
var ErrDisagreement = errors.New("globalfunc: nodes disagree on the result")

// collectValue checks that every node finished with the same int64 result.
func collectValue(results []any) (int64, error) {
	val, ok := results[0].(int64)
	if !ok {
		return 0, fmt.Errorf("globalfunc: node 0 recorded %T, want int64", results[0])
	}
	for v, r := range results {
		if r != val {
			return 0, fmt.Errorf("%w: node %d has %v, node 0 has %v", ErrDisagreement, v, r, val)
		}
	}
	return val, nil
}

// Multimedia computes the function on the multimedia network: partition,
// local convergecast, global channel scheduling.
func Multimedia(g graph.Topology, seed int64, op Op, in Inputs, variant Variant, stage Stage) (*Result, error) {
	n := g.N()
	var (
		f    *forest.Forest
		pm   *sim.Metrics
		info *partition.RandomizedInfo
		err  error
	)
	switch variant {
	case VariantDeterministic:
		f, pm, _, err = partition.Deterministic(g, seed)
	case VariantBalanced:
		f, pm, _, err = partition.DeterministicPhases(g, seed, BalancedPhaseCount(n))
	case VariantRandomized:
		f, pm, info, err = partition.RandomizedLasVegas(g, seed)
	default:
		return nil, fmt.Errorf("globalfunc: unknown variant %d", variant)
	}
	if err != nil {
		return nil, fmt.Errorf("globalfunc: partition: %w", err)
	}

	estimate := partition.SqrtN(n)
	if info != nil && len(info.RootOrder) > 0 {
		estimate = len(info.RootOrder)
	}
	res, err := sim.RunStep(g, stageProgram(f, op, in, stage, estimate), sim.WithSeed(seed+1))
	if err != nil {
		return nil, fmt.Errorf("globalfunc: compute: %w", err)
	}
	val, err := collectValue(res.Results)
	if err != nil {
		return nil, err
	}
	out := &Result{Value: val, Trees: f.Trees(), Partition: *pm, Compute: res.Metrics}
	out.Total = *pm
	out.Total.Add(&res.Metrics)
	return out, nil
}

// stageShared is the per-run state every stageMachine points at.
type stageShared struct {
	f        *forest.Forest // nil: no local stage, every node contends
	kids     [][]graph.NodeID
	op       Op
	stage    Stage
	estimate int // Metcalfe–Boggs contender estimate
	slab     sim.Slab[stageMachine]
}

// stageProgram runs the local stage — the trees of f convergecast their
// partials to the roots under the §7.1 barrier — and, in the round of the
// barrier's pulse, starts the global stage: the roots schedule their
// partials on the channel and every node combines the schedule. With a nil
// forest there is no local stage: every node contends with its own input
// from round 0, the broadcast-only baseline.
func stageProgram(f *forest.Forest, op Op, in Inputs, stage Stage, estimate int) sim.StepProgram {
	sh := &stageShared{f: f, op: op, stage: stage, estimate: estimate}
	if f != nil {
		sh.kids = f.Children()
	}
	return func(c *sim.StepCtx) sim.Machine {
		m := sh.slab.Alloc(c.N())
		*m = stageMachine{c: c, sh: sh, partial: in(c.ID())}
		if f != nil {
			m.b = sim.NewStepBarrier(c)
		}
		return m
	}
}

// globalStage is the channel-scheduling component of the global stage.
type globalStage interface {
	Begin() (done bool)
	Poll(in sim.Input) (done bool)
}

// stageMachine is one node of the §5 computation.
type stageMachine struct {
	c  *sim.StepCtx
	sh *stageShared
	b  *sim.StepBarrier

	partial int64
	reports int
	sentUp  bool

	global globalStage
	sched  *[]resolve.ScheduledItem // the global stage's schedule
	result any
}

func (m *stageMachine) Step(in sim.Input) bool {
	switch {
	case m.global != nil:
		if !m.global.Poll(in) {
			return false
		}
		return m.finish()
	case m.sh.f == nil:
		return m.beginGlobal(true)
	case !m.b.Step(in, m.convergecast):
		return false
	default:
		// The pulse: every partial has reached its root.
		return m.beginGlobal(m.sh.f.Parent[m.c.ID()] == -1)
	}
}

// convergecast is the local stage's barrier handler: fold the children's
// partials and report up once every child has.
func (m *stageMachine) convergecast(step sim.Input) bool {
	for _, msg := range step.Msgs {
		m.partial = m.sh.op.Combine(m.partial, msg.Payload.(int64))
		m.reports++
	}
	id := m.c.ID()
	if !m.sentUp && m.reports == len(m.sh.kids[id]) {
		m.sentUp = true
		if p := m.sh.f.Parent[id]; p != -1 {
			m.c.SendTo(p, m.partial)
		}
	}
	return false
}

// beginGlobal starts the channel schedule in the current round.
func (m *stageMachine) beginGlobal(contending bool) bool {
	id := int(m.c.ID())
	switch m.sh.stage {
	case StageCapetanakis:
		s := resolve.NewCapetanakisStep(m.c, m.c.N(), contending, id, m.partial, 0)
		m.global, m.sched = s, &s.Sched
	case StageMetcalfeBoggs:
		s := resolve.NewMetcalfeBoggsStep(m.c, m.sh.estimate, contending, id, m.partial, 0)
		m.global, m.sched = s, &s.Sched
	default:
		m.c.Failf("unknown stage %d", m.sh.stage)
	}
	if m.global.Begin() {
		return m.finish()
	}
	return false
}

// finish combines the scheduled partials into the node's result.
func (m *stageMachine) finish() bool {
	sched := *m.sched
	if m.sh.f == nil && len(sched) != m.c.N() {
		m.c.Failf("node %d heard %d of %d inputs", m.c.ID(), len(sched), m.c.N())
	}
	acc := sched[0].Payload.(int64)
	for _, s := range sched[1:] {
		acc = m.sh.op.Combine(acc, s.Payload.(int64))
	}
	m.result = acc
	return true
}

func (m *stageMachine) Result() any { return m.result }

// BalancedPhaseCount is the §5.1 balance: stop the deterministic partition
// once fragments reach size √(n·log₂n / log*n), so the global stage's
// O(#roots·log n) scheduling matches the local stage's O(radius).
func BalancedPhaseCount(n int) int {
	logStar := 1
	v := float64(n)
	for v > 2 {
		logStar++
		v = math.Log2(v)
		if logStar > 6 {
			break
		}
	}
	size := math.Sqrt(float64(n) * math.Log2(float64(n)) / float64(logStar))
	p := int(math.Ceil(math.Log2(size)))
	if p < 1 {
		p = 1
	}
	return p
}
