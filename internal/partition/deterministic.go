package partition

import (
	"math"
	"math/bits"

	"repro/internal/coloring"
	"repro/internal/forest"
	"repro/internal/graph"
	"repro/internal/sim"
)

// The deterministic partitioning algorithm (§3). The spanning forest is
// grown in phases; at the start of phase i every fragment (a rooted subtree
// of the MST) has size ≥ 2^i and radius ≤ 2^{i+3}-1. Each phase:
//
//	Step 1    count fragment sizes by broadcast-and-respond; a fragment is
//	          active iff ⌊log2 size⌋ equals the phase number.
//	Step 2    each active fragment finds its minimum-weight outgoing edge
//	          (MWOE) GHS-style: nodes test edges in weight order, same-
//	          fragment edges are rejected once and forever, and the minimum
//	          is convergecast to the core. The selected edges define the
//	          directed fragment graph F; mutually-selected edges are
//	          resolved toward the higher core id.
//	Step 3    three-color F by distributed Cole–Vishkin / GPS, each core
//	          simulating one vertex of F; core-to-core hops travel across
//	          fragment trees and the selected MWOE links.
//	Steps 4-5 recolor so the red vertices form an MIS of F containing every
//	          root (per internal/coloring's combinatorial specification).
//	Step 6    cut the edge out of every red non-leaf vertex of F; each
//	          resulting subtree (radius ≤ 4) becomes one new fragment whose
//	          core is the subtree root's core.
//	Step 7    physically merge: broadcast the new fragment name, then
//	          re-root every non-root fragment at its MWOE endpoint and
//	          attach it across the selected link.
//
// Steps are synchronized with the channel barrier of §7.1 (the paper's
// "synchronizer as termination detector" alternative), so no step needs a
// precomputed worst-case length. A phase is one table of barrier steps
// (phaseSteps), built once per run and shared by every node; a node walks
// it with one sim.StepBarrier and parks while it is passive within a step,
// so a phase costs O(work), not O(n · rounds).

// DeterministicInfo reports auxiliary facts about a deterministic run.
type DeterministicInfo struct {
	Phases   int // phases executed (may stop early when one fragment spans the graph)
	CVSteps  int // Cole–Vishkin iterations per phase
	Finished bool
}

// Payload kinds for the generic up/down value pushes.
const (
	pkColor  uint8 = iota + 1 // CV / shift-down color push (parent -> children)
	pkColor2                  // second color push within one step group
	pkChildC                  // child color push (children -> parent)
	pkRed                     // child-is-red OR push (children -> parent)
	pkChase                   // step-6 new-core pointer chase (parent -> children)
)

// Message payloads of the deterministic partition.
type (
	dCount  struct{}        // down: request subtree sizes
	dSize   struct{ N int } // up: subtree size
	dActive struct {        // down: phase activity / early-exit
		Active bool
		Done   bool
	}
	dTest  struct{ Frag graph.NodeID } // edge test (GHS)
	dReply struct {                    // test reply
		Accept bool
		Frag   graph.NodeID
	}
	dMin struct { // up: subtree minimum outgoing edge
		Valid  bool
		W      graph.Weight
		Edge   int
		Target graph.NodeID
	}
	dChosen struct{}                    // routed core -> MWOE endpoint
	dHook   struct{ Frag graph.NodeID } // across the selected edge
	dUnhook struct{}                    // across: mutual edge dropped
	dInfo   struct {                    // up: chosen node's hook report
		Mutual bool
		Other  graph.NodeID
	}
	dHasKids struct{ Has bool }  // up: fragment has surviving incoming hooks
	dDrop    struct{ Drop bool } // down: fragment dropped its out-edge
	dPushD   struct {            // parent-value push, traveling down a tree
		Kind uint8
		V    int64
	}
	dCross struct { // parent-value push, crossing an MWOE link
		Kind uint8
		V    int64
	}
	dPushU struct { // parent-value push, traveling up the child's tree
		Kind uint8
		V    int64
	}
	dChildU struct { // child-value push (down to chosen, across, then up)
		Kind uint8
		V    int64
	}
	dNewFrag struct{ Core graph.NodeID } // down: adopt new fragment name
	dReroot  struct{}                    // routed core -> chosen; flips the path
	dAttach  struct{}                    // across: sender became your tree child
)

const noWeight = graph.Weight(math.MaxInt64)

// Per-link flags of a dNode. Delivery sorts every inbox by (sender, edge),
// so the order in which a scan over these flags stages its sends never
// reaches a transcript.
const (
	linkChild    uint8 = 1 << iota // tree child edge
	linkRejected                   // known intra-fragment forever (GHS reject)
	linkHook                       // a child fragment hooked in this phase
)

// stepOp names one barrier step of a phase.
type stepOp uint8

// The barrier steps of a phase, in the order phaseSteps lays them out.
const (
	opCount       stepOp = iota // Step 1: fragment sizes, broadcast-and-respond
	opActive                    // Step 1: broadcast activity and the early-exit flag
	opMWOE                      // Step 2: minimum-weight outgoing edge
	opHook                      // Step 2b: route CHOSEN; hook across the MWOE
	opMutual                    // Step 2c: convergecast the mutuality report
	opDrop                      // Step 2d: broadcast the drop decision
	opHasKids                   // Step 2e: convergecast whether hooks survive
	opCV                        // Step 3: one Cole–Vishkin color push
	opShift                     // Step 3: shift-down color push
	opKidColor                  // Step 3: children's colors up
	opRecolor                   // Step 3: color push, then recolor color arg
	opRootRed                   // Step 4: make every F-root red
	opPromoteDown               // Step 5: parents' colors down
	opPromoteUp                 // Step 5: children's red flags up, then promote color arg
	opChase                     // Step 6: new-core chase, hop arg
	opNewFrag                   // Step 7a: broadcast the new fragment identity
	opReroot                    // Step 7b: merge physically
)

// phaseStep is one entry of the phase table.
type phaseStep struct {
	op  stepOp
	arg int64
}

// phaseSteps lays out one phase: the Step 1-2 broadcasts and convergecasts,
// cvIters Cole–Vishkin pushes, three shift-down/recolor groups eliminating
// colors 5, 4 and 3, the Step 4 root push, the two Step 5 promotions (blue,
// then green), five Step 6 chase hops (subtree depth ≤ 4), and Step 7.
func phaseSteps(cvIters int) []phaseStep {
	steps := []phaseStep{{op: opCount}, {op: opActive}, {op: opMWOE}, {op: opHook},
		{op: opMutual}, {op: opDrop}, {op: opHasKids}}
	for range cvIters {
		steps = append(steps, phaseStep{op: opCV})
	}
	for drop := int64(5); drop >= 3; drop-- {
		steps = append(steps, phaseStep{op: opShift}, phaseStep{op: opKidColor}, phaseStep{op: opRecolor, arg: drop})
	}
	steps = append(steps, phaseStep{op: opRootRed})
	for _, promote := range []int64{int64(coloring.Blue), int64(coloring.Green)} {
		steps = append(steps, phaseStep{op: opPromoteDown}, phaseStep{op: opPromoteUp, arg: promote})
	}
	for hop := range 5 {
		steps = append(steps, phaseStep{op: opChase, arg: int64(hop)})
	}
	return append(steps, phaseStep{op: opNewFrag}, phaseStep{op: opReroot})
}

// dNode is one node's state in the deterministic partition: its place in
// the fragment forest, the current phase's state, and the scratch of the
// barrier step in progress.
type dNode struct {
	c            *sim.StepCtx
	b            *sim.StepBarrier
	steps        []phaseStep // the run's shared phase table
	parallelMWOE bool        // the A4 ablation's parallel edge testing

	frag       graph.NodeID   // fragment identity == core's node id
	parentEdge int            // -1 at cores
	parentLink int            // local link of parentEdge
	links      []uint8        // per-link flags
	hookFrom   []graph.NodeID // per-link hooking fragment; allocated on the first hook
	children   int            // links flagged linkChild
	hooks      int            // links flagged linkHook

	// Per-phase state.
	phase     int // the paper's i
	step      int // index into steps
	done      bool
	size      int
	active    bool
	cand      dMin // own accepted outgoing candidate
	best      dMin // subtree minimum
	downEdge  int  // child edge toward the subtree minimum; -1 = self
	outEdge   int  // fragment's selected MWOE (valid at the chosen node)
	chosen    bool
	mutual    bool
	mutualOth graph.NodeID
	hasKids   bool // fragment has F-children (post-unhook), known at core
	hasOut    bool // fragment selected an MWOE, known at core
	dropOut   bool // fragment's out-edge dropped (mutual loser or step-6 cut)
	inF       bool
	isFRoot   bool
	color     int64
	newCore   graph.NodeID
	keepOut   bool  // reroot: this core re-roots its fragment across the MWOE
	pv        int64 // Step 5: the F-parent's color from the preceding push
	hasPv     bool
	kid       int64 // Step 3: the F-children's color from the preceding push
	hasKid    bool

	// Scratch of the step in progress.
	started  bool
	replied  bool
	reports  int
	sum      int
	acc      int64
	accSet   bool
	value    int64 // the value this core pushes
	got      int64 // the value the push delivered to this core
	ok       bool
	adj      []graph.Half // MWOE: incident links by ascending weight
	nextLink int
	awaiting int // edge id of the outstanding test
	wantTest int // edge id of a test not yet sent (deferred if the link is busy)
	pending  int // parallel MWOE: tests awaiting a reply
	testDone bool
}

// init makes nd a singleton fragment with its core at c's node.
func (nd *dNode) init(c *sim.StepCtx, steps []phaseStep, parallelMWOE bool) {
	*nd = dNode{
		c:            c,
		b:            sim.NewStepBarrier(c),
		steps:        steps,
		parallelMWOE: parallelMWOE,
		frag:         c.ID(),
		parentEdge:   -1,
		parentLink:   -1,
		links:        make([]uint8, c.Degree()),
	}
}

func (nd *dNode) isCore() bool { return nd.parentEdge == -1 }

// keepsOut reports whether this node's fragment still owns a live out-edge.
// At the core it is authoritative; at the chosen node the chosen flag plus
// the broadcast drop decision give the same answer.
func (nd *dNode) keepsOut() bool {
	if nd.isCore() {
		return nd.hasOut && !nd.dropOut
	}
	return nd.chosen && !nd.dropOut
}

// sendChildren sends p on every tree child edge.
func (nd *dNode) sendChildren(p sim.Payload) {
	for l, f := range nd.links {
		if f&linkChild != 0 {
			nd.c.Send(l, p)
		}
	}
}

// setChild adds or removes link l from the tree children.
func (nd *dNode) setChild(l int, child bool) {
	if was := nd.links[l]&linkChild != 0; was == child {
		return
	}
	nd.links[l] ^= linkChild
	if child {
		nd.children++
	} else {
		nd.children--
	}
}

// beginPhase resets the per-phase state and sets up the phase's first step.
func (nd *dNode) beginPhase(i int) {
	nd.phase = i
	nd.done = false
	nd.active = false
	if nd.hooks > 0 {
		for l := range nd.links {
			nd.links[l] &^= linkHook
		}
		nd.hooks = 0
	}
	nd.chosen = false
	nd.mutual = false
	nd.mutualOth = -1
	nd.hasKids = false
	nd.hasOut = false
	nd.dropOut = false
	nd.inF = false
	nd.isFRoot = false
	nd.outEdge = -1
	nd.newCore = -1
	nd.setup(0)
}

// setup enters step i of the phase table: it resets the step scratch and
// runs the code the step starts with (the values a core pushes are fixed
// here, as is the Step 6 cut before the first chase hop).
func (nd *dNode) setup(i int) {
	nd.step = i
	nd.started, nd.replied = false, false
	nd.reports, nd.sum = 0, 1 // the count includes self
	nd.acc, nd.accSet = 0, false
	nd.got, nd.ok = 0, false
	st := nd.steps[i]
	switch st.op {
	case opMWOE:
		if nd.parallelMWOE {
			nd.beginParallelMWOE()
		} else {
			nd.beginMWOE()
		}
	case opCV, opShift, opKidColor, opRecolor, opPromoteDown:
		nd.value = nd.color
	case opRootRed:
		nd.value = encodeRootColor(nd.isFRoot, nd.color)
	case opPromoteUp:
		nd.value = b2i64(nd.color == int64(coloring.Red))
	case opChase:
		if st.arg == 0 && nd.isCore() && nd.inF {
			// Step 6: red non-leaf vertices cut their out-edge and root new
			// fragments; the chase carries the new core name down the
			// surviving F-edges.
			redInternal := nd.color == int64(coloring.Red) && nd.hasKids
			if nd.isFRoot || redInternal {
				nd.newCore = nd.frag
			}
			if redInternal {
				nd.dropOut = true // the out-edge (if any) is cut for merging
			}
		}
		nd.value = int64(nd.newCore)
	case opReroot:
		nd.keepOut = nd.isCore() && nd.hasOut && !nd.dropOut
	}
}

// handle is the barrier handler of the step in progress.
func (nd *dNode) handle(in sim.Input) bool {
	switch op := nd.steps[nd.step].op; op {
	case opCount:
		nd.countRound(in)
	case opActive, opDrop, opNewFrag:
		nd.bcastRound(in, op)
	case opMWOE:
		if nd.parallelMWOE {
			return nd.parallelMWOERound(in)
		}
		return nd.mwoeRound(in)
	case opHook:
		nd.hookRound(in)
	case opMutual, opHasKids:
		nd.convUpRound(in, op)
	case opKidColor:
		nd.pushToParentRound(in, pkChildC, func(a, b int64) int64 { return a })
	case opPromoteUp:
		nd.pushToParentRound(in, pkRed, func(a, b int64) int64 { return a | b })
	case opChase:
		nd.pushToChildrenRound(in, pkChase)
	case opReroot:
		nd.rerootRound(in)
	default: // the color pushes down F
		nd.pushToChildrenRound(in, pkColor)
	}
	return false
}

// pulse runs, in the round of the step's barrier pulse, the code that
// follows the step, and sets up the next one. It reports whether the phase
// is over: after the reroot, or early when one fragment spans the network.
func (nd *dNode) pulse() (phaseOver bool) {
	st := nd.steps[nd.step]
	coreInF := nd.isCore() && nd.inF
	switch st.op {
	case opActive:
		if nd.done {
			return true
		}
	case opMWOE:
		nd.adj = nil
		if nd.isCore() {
			nd.hasOut = nd.active && nd.best.Valid
		}
	case opMutual:
		// The higher core of a mutually selected edge roots the F-tree and
		// drops its out-edge.
		if nd.isCore() {
			nd.dropOut = nd.hasOut && nd.mutual && nd.frag > nd.mutualOth
		}
	case opHasKids:
		if nd.isCore() {
			keepOut := nd.hasOut && !nd.dropOut
			nd.inF = keepOut || nd.hasKids
			nd.isFRoot = nd.inF && !keepOut
		}
		// Initial colors are core ids.
		nd.color = int64(nd.frag)
	case opCV:
		if coreInF {
			father := nd.color ^ 1 // F-roots pretend bit 0 differs
			if nd.ok {
				father = nd.got
			}
			nd.color = cvColor(nd.color, father)
		}
	case opShift:
		// Take the F-parent's color; roots take the smallest color
		// different from their own.
		if coreInF {
			if nd.ok {
				nd.color = nd.got
			} else {
				nd.color = smallestColorExcept(nd.color)
			}
		}
	case opKidColor:
		nd.kid, nd.hasKid = nd.got, nd.ok
	case opRecolor:
		// Vertices colored arg pick the smallest color in {0,1,2} free of
		// their F-parent's and F-children's (uniform) colors.
		if coreInF && nd.color == st.arg {
			var forbidden [8]bool
			if nd.ok && nd.got >= 0 && nd.got < 8 {
				forbidden[nd.got] = true
			}
			if nd.hasKid && nd.kid >= 0 && nd.kid < 8 {
				forbidden[nd.kid] = true
			}
			for x := int64(0); x < 3; x++ {
				if !forbidden[x] {
					nd.color = x
					break
				}
			}
		}
	case opRootRed:
		// Every F-root becomes (or stays) red; its children move off red
		// while keeping the coloring legal.
		if coreInF {
			if !nd.ok {
				nd.color = int64(coloring.Red)
			} else {
				parentIsRoot, parentColor := decodeRootColor(nd.got)
				if parentIsRoot && parentColor == int64(coloring.Red) {
					nd.color = thirdColor(int64(coloring.Red), nd.color)
				} else {
					nd.color = parentColor
				}
			}
		}
	case opPromoteDown:
		nd.pv, nd.hasPv = nd.got, nd.ok
	case opPromoteUp:
		// Vertices colored arg with no red neighbor turn red.
		if coreInF && nd.color == st.arg {
			redNbr := (nd.hasPv && nd.pv == int64(coloring.Red)) || (nd.ok && nd.got == 1)
			if !redNbr {
				nd.color = int64(coloring.Red)
			}
		}
	case opChase:
		if coreInF && nd.newCore == -1 && nd.ok && nd.got != -1 {
			nd.newCore = graph.NodeID(nd.got)
		}
	case opReroot:
		return true
	}
	nd.setup(nd.step + 1)
	return false
}

// outcome is the node's final view of the partition.
func (nd *dNode) outcome() NodeOutcome {
	parent := graph.NodeID(-1)
	if nd.parentEdge != -1 {
		parent = nd.c.Topo().Edge(nd.parentEdge).Other(nd.c.ID())
	}
	return NodeOutcome{Parent: parent, ParentEdge: nd.parentEdge, Root: nd.frag}
}

// cvStepsFor returns the number of Cole–Vishkin iterations that reduce any
// coloring with values below n to values below six.
func cvStepsFor(n int) int {
	maxVal := n - 1
	steps := 0
	for maxVal > 5 {
		maxVal = 2*(bits.Len(uint(maxVal))-1) + 1
		steps++
	}
	return steps
}

// cvColor mirrors the Cole–Vishkin step of internal/coloring for the
// distributed fragment version.
func cvColor(own, father int64) int64 {
	k := bits.TrailingZeros64(uint64(own ^ father))
	return int64(k)<<1 | (own >> uint(k) & 1)
}

// detShared is the per-run state every detMachine points at.
type detShared struct {
	steps        []phaseStep
	cvIters      int
	phases       int
	parallelMWOE bool
	info         DeterministicInfo // node 0's report
	slab         sim.Slab[detMachine]
}

// detMachine runs a fixed number of phases of the deterministic partition.
type detMachine struct {
	dNode
	sh     *detShared
	result any
}

func (sh *detShared) program(c *sim.StepCtx) sim.Machine {
	m := sh.slab.Alloc(c.N())
	m.sh = sh
	m.init(c, sh.steps, sh.parallelMWOE)
	m.beginPhase(0)
	return m
}

func (m *detMachine) Step(in sim.Input) bool {
	if m.sh.phases <= 0 {
		return m.finish(0)
	}
	for m.b.Step(in, m.handle) {
		if !m.pulse() {
			continue // the next step starts in this pulse round
		}
		if m.done || m.phase+1 == m.sh.phases {
			return m.finish(m.phase + 1)
		}
		m.beginPhase(m.phase + 1)
	}
	return false
}

// finish records the outcome (and, at node 0, the run's info) and halts.
func (m *detMachine) finish(phases int) bool {
	m.result = m.outcome()
	if m.c.ID() == 0 {
		m.sh.info = DeterministicInfo{Phases: phases, CVSteps: m.sh.cvIters, Finished: true}
	}
	return true
}

func (m *detMachine) Result() any { return m.result }

// runDeterministic runs `phases` phases of the deterministic partition.
func runDeterministic(g graph.Topology, seed int64, phases int, parallelMWOE bool) (*forest.Forest, *sim.Metrics, *DeterministicInfo, error) {
	cvIters := cvStepsFor(g.N())
	sh := &detShared{steps: phaseSteps(cvIters), cvIters: cvIters, phases: phases, parallelMWOE: parallelMWOE}
	f, met, err := runAndBuild(g, sh.program, sim.WithSeed(seed))
	if err != nil {
		return nil, nil, nil, err
	}
	info := sh.info
	return f, met, &info, nil
}

// DeterministicPhaseCount returns the paper's phase budget ⌈log2(n)/2⌉,
// which yields fragments of size ≥ √n and radius O(√n).
func DeterministicPhaseCount(n int) int {
	p := (bits.Len(uint(n-1)) + 1) / 2
	if p < 1 {
		p = 1
	}
	return p
}

// DeterministicPhases runs the §3 algorithm for the given number of phases
// and returns the resulting spanning forest (every tree a subtree of the
// MST), run metrics, and info.
func DeterministicPhases(g graph.Topology, seed int64, phases int) (*forest.Forest, *sim.Metrics, *DeterministicInfo, error) {
	return runDeterministic(g, seed, phases, false)
}

// Deterministic runs the §3 partition with the paper's standard balance
// point: ⌈log2(n)/2⌉ phases, giving O(√n) trees of radius O(√n).
func Deterministic(g graph.Topology, seed int64) (*forest.Forest, *sim.Metrics, *DeterministicInfo, error) {
	return DeterministicPhases(g, seed, DeterministicPhaseCount(g.N()))
}

// Boruvka runs the same fragment machinery to completion (⌈log2 n⌉ phases
// plus early exit), producing the full MST as a single tree. This is the
// pure point-to-point baseline for the §6 experiment: it uses the channel
// only for the §7.1 barrier, never for data.
func Boruvka(g graph.Topology, seed int64) (*forest.Forest, *sim.Metrics, *DeterministicInfo, error) {
	phases := bits.Len(uint(g.N()-1)) + 1
	return DeterministicPhases(g, seed, phases)
}
