package resolve

import (
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
)

// TestElectMaxID checks Elect against the sequential answer (the registry
// fixtures pin its exact transcripts): with every node contending, the
// leader is the maximum id, found in one liveness slot plus ⌈log₂ n⌉ bit
// slots and the halting round, with no point-to-point traffic.
func TestElectMaxID(t *testing.T) {
	for _, n := range []int{3, 7, 33, 64} {
		g, err := graph.Ring(n, 1)
		if err != nil {
			t.Fatal(err)
		}
		leader, met, err := Elect(g, 1)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		bits := 0
		for 1<<bits < n {
			bits++
		}
		if leader != n-1 || met.Rounds != bits+2 || met.Messages != 0 {
			t.Errorf("n=%d: leader %d in %d rounds (%d messages), want %d in %d rounds",
				n, leader, met.Rounds, met.Messages, n-1, bits+2)
		}
	}
}

// capProbe runs Capetanakis with a subset of contenders on both engines and
// compares schedule and metrics.
func TestCapetanakisStepEquivalence(t *testing.T) {
	g, err := graph.Ring(24, 1)
	if err != nil {
		t.Fatal(err)
	}
	contender := func(id graph.NodeID) bool { return id%3 == 0 }

	goRes, err := sim.Run(g, func(c *sim.Ctx) error {
		sched, _ := Capetanakis(c, sim.Input{}, c.N(), contender(c.ID()), int(c.ID()), int(c.ID())*10)
		c.SetResult(sched)
		return nil
	}, sim.WithSeed(1), sim.WithEngine(sim.EngineGoroutine))
	if err != nil {
		t.Fatal(err)
	}

	stRes, err := sim.RunStep(g, func(c *sim.StepCtx) sim.Machine {
		return &capTestMachine{c: c, s: NewCapetanakisStep(c, c.N(), contender(c.ID()), int(c.ID()), int(c.ID())*10, 0)}
	}, sim.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(goRes.Results, stRes.Results) {
		t.Errorf("schedules diverge:\n goroutine: %#v\n step:      %#v", goRes.Results, stRes.Results)
	}
	if !reflect.DeepEqual(goRes.Metrics, stRes.Metrics) {
		t.Errorf("metrics diverge:\n goroutine: %+v\n step:      %+v", goRes.Metrics, stRes.Metrics)
	}
}

type capTestMachine struct {
	c     *sim.StepCtx
	s     *CapetanakisStep
	sched any
}

func (m *capTestMachine) Step(in sim.Input) bool {
	if in.Round == 0 {
		if m.s.Begin() {
			m.sched = m.s.Sched
			return true
		}
		return false
	}
	if !m.s.Poll(in) {
		return false
	}
	m.sched = m.s.Sched
	return true
}

func (m *capTestMachine) Result() any { return m.sched }

// TestMetcalfeBoggsStepEquivalence compares the randomized contention
// component draw-for-draw with the blocking form.
func TestMetcalfeBoggsStepEquivalence(t *testing.T) {
	g, err := graph.Ring(16, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{1, 7, 99} {
		goRes, err := sim.Run(g, func(c *sim.Ctx) error {
			sched, done, _ := MetcalfeBoggs(c, sim.Input{}, 4, c.ID()%2 == 0, int(c.ID()), nil, 0)
			c.SetResult([]any{sched, done})
			return nil
		}, sim.WithSeed(seed), sim.WithEngine(sim.EngineGoroutine))
		if err != nil {
			t.Fatal(err)
		}
		stRes, err := sim.RunStep(g, func(c *sim.StepCtx) sim.Machine {
			return &mbTestMachine{s: NewMetcalfeBoggsStep(c, 4, c.ID()%2 == 0, int(c.ID()), nil, 0)}
		}, sim.WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(goRes.Results, stRes.Results) {
			t.Errorf("seed %d: schedules diverge", seed)
		}
		if !reflect.DeepEqual(goRes.Metrics, stRes.Metrics) {
			t.Errorf("seed %d: metrics diverge:\n goroutine: %+v\n step:      %+v", seed, goRes.Metrics, stRes.Metrics)
		}
	}
}

type mbTestMachine struct {
	s   *MetcalfeBoggsStep
	out any
}

func (m *mbTestMachine) Step(in sim.Input) bool {
	if in.Round == 0 {
		if m.s.Begin() {
			m.out = []any{m.s.Sched, m.s.Done}
			return true
		}
		return false
	}
	if !m.s.Poll(in) {
		return false
	}
	m.out = []any{m.s.Sched, m.s.Done}
	return true
}

func (m *mbTestMachine) Result() any { return m.out }
