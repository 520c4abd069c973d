package fault

import (
	"strings"
	"testing"

	"repro/internal/graph"
)

func testGraph(t *testing.T) graph.Topology {
	t.Helper()
	g, err := graph.ImplicitRing(10, 1)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestParseRoundTrip(t *testing.T) {
	cases := []string{
		"crash:7@10",
		"crash:1@5/p0.5",
		"drop:3@5-",
		"drop:*@2-9/p0.25",
		"delay:1@3-6/d2",
		"dup:0@4",
		"jam:4-12/p0.5",
		"seed:42;crashfrac:0.1@1-20",
		"crash:1@2;jam:3;drop:2@1-/p0.75",
	}
	for _, dsl := range cases {
		p, err := Parse(dsl)
		if err != nil {
			t.Fatalf("Parse(%q): %v", dsl, err)
		}
		if got := p.String(); got != dsl {
			t.Errorf("Parse(%q).String() = %q", dsl, got)
		}
		p2, err := Parse(p.String())
		if err != nil {
			t.Fatalf("re-Parse(%q): %v", p.String(), err)
		}
		if p2.String() != p.String() {
			t.Errorf("round trip unstable: %q vs %q", p.String(), p2.String())
		}
	}
}

// FuzzParsePlan holds the fault DSL to two properties: a plan that parses
// renders to a string that parses back to the same string (Parse then
// String is a fixed point after one step), and compiling any parsed plan
// returns an injector or an error, never a panic.
func FuzzParsePlan(f *testing.F) {
	for _, s := range []string{
		// The registry chaos plan and the differential fault plans.
		"seed:5;crash:5@4;jam:2-3;drop:0@2-8/p0.5",
		"seed:3;crash:2@3",
		"seed:7;jam:1-6/p0.5",
		"seed:9;drop:*@2-12/p0.3",
		"seed:11;crash:4@5;jam:3-4;dup:*@2-9/p0.2/d2",
		"seed:13;delay:*@1-14/p0.4/d3",
		"seed:15;partition:2@3-8",
		"seed:19;crash:3@4;restart:3@9",
		"seed:21;drop:*@2-4/e8/p0.5;jam:3-4/e6",
		"seed:23;partition:3@2-5;crash:2@3;restart:2@10;delay:*@1-12/p0.2/d2",
		// The crash-restart plans of the chaos smoke.
		"seed:7;crash:5@2;restart:5@4",
		"seed:7;crash:5@1;restart:5@2",
		// The examples in parse.go's header.
		"crash:7@10", "drop:3@5-", "delay:*@1-/d2/p0.1", "jam:4-12/p0.5",
		"seed:42;crashfrac:0.1@1-20", "partition:3@10-19", "jam:5-8/e20",
		"crash:7@10;restart:7@25", "skew:2@5-30/d3",
		// A single round at MaxInt once rendered as an open window, which
		// a crash rejects.
		"crash:1@9223372036854775807",
	} {
		f.Add(s)
	}
	g, err := graph.ImplicitRing(16, 1)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := Parse(s)
		if err != nil {
			return
		}
		s1 := p.String()
		p1, err := Parse(s1)
		if err != nil {
			t.Fatalf("Parse(%q).String() = %q does not parse: %v", s, s1, err)
		}
		if s2 := p1.String(); s2 != s1 {
			t.Fatalf("Parse(%q).String() = %q, but it renders again as %q", s, s1, s2)
		}
		_, _ = CompileFor(p, g, Caps{Skew: true}) // an error is fine; a panic fails
	})
}

func TestParseEmpty(t *testing.T) {
	for _, s := range []string{"", "  ", ";;", " ; "} {
		p, err := Parse(s)
		if err != nil {
			t.Errorf("Parse(%q): %v", s, err)
		}
		if p != nil {
			t.Errorf("Parse(%q) = %v, want nil plan", s, p)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, s := range []string{
		"bogus:1@2",      // unknown kind
		"crash:1",        // missing round
		"crash:x@2",      // bad node
		"crash:1@2-5",    // crash takes a single round
		"drop:a@1",       // bad edge
		"drop:1@x",       // bad round
		"jam:1/q3",       // unknown option
		"delay:1@2/dx",   // bad lag
		"drop:1@2/pzero", // bad probability
		"seed:abc",       // bad seed
	} {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", s)
		}
	}
}

func TestCompileValidation(t *testing.T) {
	g := testGraph(t) // n=10, m=10
	for _, tc := range []struct {
		rule Rule
		want string
	}{
		{Rule{Kind: Crash, Node: 10, From: 1}, "outside graph"},
		{Rule{Kind: Crash, Node: 3, From: 0}, "round window"},
		{Rule{Kind: Drop, Edge: 10, From: 1}, "outside graph"},
		{Rule{Kind: Drop, Edge: 1, From: 5, Until: 3}, "empty"},
		{Rule{Kind: Jam, From: 1, Prob: 1.5}, "probability"},
		{Rule{Kind: Delay, Edge: 1, From: 1, Lag: -2}, "lag"},
		{Rule{Kind: CrashFrac, Frac: 1.5, From: 1}, "fraction"},
		{Rule{Kind: CrashFrac, Frac: 0.5, From: 1, Until: Forever}, "bounded"},
		{Rule{Kind: CrashFrac, Frac: 0.5, From: 1, Prob: 0.3}, "not allowed"},
		{Rule{Kind: CrashFrac, Frac: 0.5, From: 1, Lag: 2}, "lag"},
		{Rule{Kind: Crash, Node: 1, From: 1, Lag: 2}, "lag"},
	} {
		_, err := Compile((&Plan{}).Add(tc.rule), g)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Compile(%+v) err = %v, want mention of %q", tc.rule, err, tc.want)
		}
	}
	if inj, err := Compile(nil, g); inj != nil || err != nil {
		t.Errorf("Compile(nil) = %v, %v, want nil, nil", inj, err)
	}
}

func TestMsgFateWindows(t *testing.T) {
	g := testGraph(t)
	inj, err := Compile((&Plan{}).Add(
		Rule{Kind: Drop, Edge: 3, From: 5, Until: 8},
		Rule{Kind: Delay, Edge: 4, From: 2, Lag: 3},
	), g)
	if err != nil {
		t.Fatal(err)
	}
	//mmlint:commutative independent pure-function assertions per round
	for round, want := range map[int]Fate{4: Deliver, 5: DropMsg, 8: DropMsg, 9: Deliver} {
		if fate, _ := inj.MsgFate(3, 0, 1, round); fate != want {
			t.Errorf("edge 3 round %d: fate %v, want %v", round, fate, want)
		}
	}
	if fate, lag := inj.MsgFate(4, 1, 2, 2); fate != DelayMsg || lag != 3 {
		t.Errorf("edge 4 round 2: (%v, %d), want (DelayMsg, 3)", fate, lag)
	}
	if fate, _ := inj.MsgFate(4, 1, 2, 3); fate != Deliver {
		t.Errorf("edge 4 round 3 (single-round window): not Deliver")
	}
	if fate, _ := inj.MsgFate(0, 0, 1, 5); fate != Deliver {
		t.Errorf("unfaulted edge affected")
	}
}

func TestWildcardAndProbDeterminism(t *testing.T) {
	g := testGraph(t)
	mk := func() *Injector {
		inj, err := Compile(&Plan{Seed: 7, Rules: []Rule{
			{Kind: Drop, Edge: AllEdges, From: 1, Until: Forever, Prob: 0.5},
		}}, g)
		if err != nil {
			t.Fatal(err)
		}
		return inj
	}
	a, b := mk(), mk()
	drops := 0
	for edge := 0; edge < g.M(); edge++ {
		for round := 1; round <= 50; round++ {
			fa, _ := a.MsgFate(edge, graph.NodeID(edge), graph.NodeID((edge+1)%g.N()), round)
			fb, _ := b.MsgFate(edge, graph.NodeID(edge), graph.NodeID((edge+1)%g.N()), round)
			if fa != fb {
				t.Fatalf("nondeterministic fate at edge %d round %d", edge, round)
			}
			if fa == DropMsg {
				drops++
			}
		}
	}
	// 500 coin flips at p=0.5: expect a comfortable middle band.
	if drops < 150 || drops > 350 {
		t.Errorf("drops = %d of 500, want roughly half", drops)
	}
}

func TestJammedWindows(t *testing.T) {
	g := testGraph(t)
	inj, err := Compile((&Plan{}).Add(Rule{Kind: Jam, From: 4, Until: 6}), g)
	if err != nil {
		t.Fatal(err)
	}
	//mmlint:commutative independent pure-function assertions per round
	for round, want := range map[int]bool{3: false, 4: true, 6: true, 7: false} {
		if got := inj.Jammed(round); got != want {
			t.Errorf("Jammed(%d) = %v, want %v", round, got, want)
		}
	}
	var nilInj *Injector
	if nilInj.Jammed(4) || nilInj.HasMsgFaults() || nilInj.CrashesAt(4) != nil {
		t.Errorf("nil injector injects")
	}
}

func TestCrashFracCompile(t *testing.T) {
	g := testGraph(t)
	mk := func(seed int64) map[int][]graph.NodeID {
		inj, err := Compile(&Plan{Seed: seed, Rules: []Rule{
			{Kind: CrashFrac, Frac: 0.3, From: 2, Until: 5},
		}}, g)
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[int][]graph.NodeID)
		for r := 0; r <= 10; r++ {
			if nodes := inj.CrashesAt(r); len(nodes) > 0 {
				out[r] = nodes
			}
		}
		return out
	}
	a, b := mk(3), mk(3)
	total := 0
	seen := map[graph.NodeID]bool{}
	//mmlint:commutative order-free aggregation: total count plus set-membership checks
	for r, nodes := range a {
		if r < 2 || r > 5 {
			t.Errorf("crash scheduled at round %d outside [2, 5]", r)
		}
		for _, v := range nodes {
			if seen[v] {
				t.Errorf("node %d crashes twice", v)
			}
			seen[v] = true
			total++
		}
	}
	if total != 3 {
		t.Errorf("crashed %d of 10 nodes at frac 0.3, want 3", total)
	}
	if len(a) != len(b) {
		t.Fatalf("same seed, different schedules")
	}
	//mmlint:commutative per-key comparison of two schedules; order-free
	for r := range a {
		if len(a[r]) != len(b[r]) {
			t.Fatalf("same seed, different schedule at round %d", r)
		}
		for i := range a[r] {
			if a[r][i] != b[r][i] {
				t.Fatalf("same seed, different victims at round %d", r)
			}
		}
	}
}

// TestCrashProbCompile checks the compile-time coin on probabilistic crash
// rules: the same plan always picks the same survivors, p=1 always crashes,
// and intermediate probabilities thin the schedule.
func TestCrashProbCompile(t *testing.T) {
	g := testGraph(t)
	count := func(seed int64, prob float64) int {
		p := &Plan{Seed: seed}
		for v := 0; v < g.N(); v++ {
			p.Add(Rule{Kind: Crash, Node: graph.NodeID(v), From: 1, Prob: prob})
		}
		inj, err := Compile(p, g)
		if err != nil {
			t.Fatal(err)
		}
		return len(inj.CrashesAt(1))
	}
	if got := count(1, 1); got != 10 {
		t.Errorf("p=1 crashed %d of 10", got)
	}
	got := count(1, 0.5)
	if got == 0 || got == 10 {
		t.Errorf("p=0.5 crashed %d of 10, want a proper subset", got)
	}
	if again := count(1, 0.5); again != got {
		t.Errorf("same seed, different crash count: %d vs %d", got, again)
	}
}

func TestFromFlag(t *testing.T) {
	for _, dsl := range []string{"", "seed:9"} {
		if p, err := FromFlag(dsl); err != nil || p != nil {
			t.Errorf("FromFlag(%q) = %v, %v, want nil, nil", dsl, p, err)
		}
	}
	if _, err := FromFlag("nope:1@2"); err == nil {
		t.Error("FromFlag accepted an unknown rule kind")
	}
	for _, tc := range []struct{ dsl, want string }{
		{"drop:1@2", "seed:1;drop:1@2"},
		{"seed:9;drop:1@2", "seed:9;drop:1@2"},
	} {
		p, err := FromFlag(tc.dsl)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.String(); got != tc.want {
			t.Errorf("FromFlag(%q) = %q, want %q", tc.dsl, got, tc.want)
		}
	}
}

func TestNextCrashAfter(t *testing.T) {
	g := testGraph(t)
	p := (&Plan{Seed: 1}).Add(
		Rule{Kind: Crash, Node: 2, From: 5},
		Rule{Kind: Crash, Node: 3, From: 5},
		Rule{Kind: Crash, Node: 7, From: 40},
	)
	inj, err := Compile(p, g)
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range []struct {
		after int
		want  int
		ok    bool
	}{
		{0, 5, true}, {4, 5, true}, {5, 40, true}, {39, 40, true}, {40, 0, false},
	} {
		if got, ok := inj.NextCrashAfter(tt.after); got != tt.want || ok != tt.ok {
			t.Errorf("NextCrashAfter(%d) = %d, %v, want %d, %v", tt.after, got, ok, tt.want, tt.ok)
		}
	}
	var nilInj *Injector
	if _, ok := nilInj.NextCrashAfter(0); ok {
		t.Error("nil injector reported a crash")
	}
}

func TestNextClearSlotAndCountJammed(t *testing.T) {
	g := testGraph(t)
	inj, err := Compile((&Plan{Seed: 1}).Add(Rule{Kind: Jam, From: 3, Until: 8}), g)
	if err != nil {
		t.Fatal(err)
	}
	if s, ok := inj.NextClearSlot(1, 20); !ok || s != 1 {
		t.Errorf("NextClearSlot(1,20) = %d, %v, want 1, true", s, ok)
	}
	if s, ok := inj.NextClearSlot(3, 20); !ok || s != 9 {
		t.Errorf("NextClearSlot(3,20) = %d, %v, want 9, true", s, ok)
	}
	if _, ok := inj.NextClearSlot(3, 8); ok {
		t.Error("NextClearSlot found a clear slot inside the jam window")
	}
	if n := inj.CountJammed(1, 20); n != 6 {
		t.Errorf("CountJammed(1,20) = %d, want 6", n)
	}
	if n := inj.CountJammed(5, 6); n != 2 {
		t.Errorf("CountJammed(5,6) = %d, want 2", n)
	}
	if n := inj.CountJammed(9, 100); n != 0 {
		t.Errorf("CountJammed(9,100) = %d, want 0", n)
	}

	// A probabilistic jam: the count must agree with per-round evaluation.
	inj, err = Compile((&Plan{Seed: 9}).Add(Rule{Kind: Jam, From: 1, Until: Forever, Prob: 0.4}), g)
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for s := 10; s <= 500; s++ {
		if inj.Jammed(s) {
			want++
		}
	}
	if got := inj.CountJammed(10, 500); got != want {
		t.Errorf("CountJammed(10,500) = %d, want %d", got, want)
	}
	if want == 0 || want == 491 {
		t.Errorf("degenerate probabilistic jam count %d", want)
	}

	var nilInj *Injector
	if s, ok := nilInj.NextClearSlot(4, 9); !ok || s != 4 {
		t.Errorf("nil NextClearSlot = %d, %v, want 4, true", s, ok)
	}
	if nilInj.CountJammed(1, 1000) != 0 {
		t.Error("nil injector counted jams")
	}
	if nilInj.HasJams() {
		t.Error("nil injector has jams")
	}
}

// TestFastForwardWindowBoundaries table-tests the window arithmetic that
// checkpoint-mid-fast-forward leans on: NextClearSlot and CountJammed at
// inclusive boundaries (both ends of [from, until] count), degenerate
// from==until windows, jam-window edges, and open-ended rules.
func TestFastForwardWindowBoundaries(t *testing.T) {
	g := testGraph(t)
	compile := func(p *Plan) *Injector {
		t.Helper()
		inj, err := Compile(p, g)
		if err != nil {
			t.Fatal(err)
		}
		return inj
	}
	certain := compile((&Plan{Seed: 1}).Add(Rule{Kind: Jam, From: 3, Until: 8}))
	point := compile((&Plan{Seed: 1}).Add(Rule{Kind: Jam, From: 5})) // Until 0 => From: one round
	open := compile((&Plan{Seed: 1}).Add(Rule{Kind: Jam, From: 4, Until: Forever}))
	twoWin := compile((&Plan{Seed: 1}).Add(
		Rule{Kind: Jam, From: 2, Until: 3},
		Rule{Kind: Jam, From: 7, Until: 9},
	))

	clearCases := []struct {
		name        string
		inj         *Injector
		from, until int
		want        int
		ok          bool
	}{
		{"empty range from>until", certain, 9, 8, 0, false},
		{"degenerate clear", certain, 2, 2, 2, true},
		{"degenerate jammed: lower window edge", certain, 3, 3, 0, false},
		{"degenerate jammed: upper window edge", certain, 8, 8, 0, false},
		{"degenerate just past window", certain, 9, 9, 9, true},
		{"range starts at window start", certain, 3, 20, 9, true},
		{"range starts at window end", certain, 8, 20, 9, true},
		{"range ends exactly at first clear", certain, 3, 9, 9, true},
		{"range ends one short of clear", certain, 3, 8, 0, false},
		{"point jam skipped", point, 5, 6, 6, true},
		{"point jam only slot", point, 5, 5, 0, false},
		{"before point jam", point, 4, 9, 4, true},
		{"open-ended jam covers range", open, 4, 1000, 0, false},
		{"open-ended jam starts after from", open, 3, 1000, 3, true},
		{"gap between two windows", twoWin, 2, 9, 4, true},
		{"second window edge", twoWin, 7, 10, 10, true},
	}
	for _, tt := range clearCases {
		if got, ok := tt.inj.NextClearSlot(tt.from, tt.until); got != tt.want || ok != tt.ok {
			t.Errorf("%s: NextClearSlot(%d,%d) = %d, %v, want %d, %v",
				tt.name, tt.from, tt.until, got, ok, tt.want, tt.ok)
		}
	}

	countCases := []struct {
		name        string
		inj         *Injector
		from, until int
		want        int64
	}{
		{"empty range from>until", certain, 8, 3, 0},
		{"degenerate jammed lower edge", certain, 3, 3, 1},
		{"degenerate jammed upper edge", certain, 8, 8, 1},
		{"degenerate clear below", certain, 2, 2, 0},
		{"degenerate clear above", certain, 9, 9, 0},
		{"exact window", certain, 3, 8, 6},
		{"window plus margins", certain, 1, 20, 6},
		{"clips left", certain, 5, 20, 4},
		{"clips right", certain, 0, 5, 3},
		{"disjoint below", certain, 0, 2, 0},
		{"disjoint above", certain, 9, 1000, 0},
		{"point jam hit", point, 5, 5, 1},
		{"point jam in range", point, 1, 10, 1},
		{"open-ended full range", open, 0, 100, 97},
		{"open-ended degenerate at start", open, 4, 4, 1},
		{"two windows spanned", twoWin, 0, 100, 5},
		{"two windows gap only", twoWin, 4, 6, 0},
		{"clip inside second window", twoWin, 8, 8, 1},
	}
	for _, tt := range countCases {
		if got := tt.inj.CountJammed(tt.from, tt.until); got != tt.want {
			t.Errorf("%s: CountJammed(%d,%d) = %d, want %d", tt.name, tt.from, tt.until, got, tt.want)
		}
	}

	// The two functions must agree: counting N jammed slots in [from, until]
	// means NextClearSlot skips exactly those N when they prefix the range.
	for from := 0; from <= 12; from++ {
		for until := from; until <= 12; until++ {
			var brute int64
			firstClear, fok := 0, false
			for s := from; s <= until; s++ {
				if twoWin.Jammed(s) {
					brute++
				} else if !fok {
					firstClear, fok = s, true
				}
			}
			if got := twoWin.CountJammed(from, until); got != brute {
				t.Errorf("CountJammed(%d,%d) = %d, brute %d", from, until, got, brute)
			}
			if got, ok := twoWin.NextClearSlot(from, until); got != firstClear || ok != fok {
				t.Errorf("NextClearSlot(%d,%d) = %d, %v, brute %d, %v", from, until, got, ok, firstClear, fok)
			}
		}
	}
}
