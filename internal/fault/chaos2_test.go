package fault

// chaos2_test.go covers the v2 rule families — partition, restart, skew,
// and the /eN recurrence — at the plan and injector level: grammar round
// trips, exact rejection messages (the CLI surfaces these verbatim, so they
// are pinned byte for byte), seeded group stability, restart scheduling
// queries, and recurring-window slot arithmetic.

import (
	"reflect"
	"testing"

	"repro/internal/graph"
)

func TestParseRoundTripChaos2(t *testing.T) {
	cases := []string{
		"partition:3@10-19",
		"partition:2@3-6/e12",
		"crash:7@10;restart:7@25",
		"skew:2@5-30/d3",
		"jam:5-8/e20",
		"drop:*@2-4/e10/p0.25",
		"seed:7;partition:2@5-9;crash:1@3;restart:1@12",
	}
	for _, dsl := range cases {
		p, err := Parse(dsl)
		if err != nil {
			t.Fatalf("Parse(%q): %v", dsl, err)
		}
		if got := p.String(); got != dsl {
			t.Errorf("Parse(%q).String() = %q", dsl, got)
		}
	}
}

// TestParseErrorsChaos2Exact pins the v2 rejection messages byte for byte:
// mmnet prints them verbatim, so a wording change is a user-visible change.
func TestParseErrorsChaos2Exact(t *testing.T) {
	cases := []struct{ in, want string }{
		{"partition:x@1-5", `fault: parse "partition:x@1-5": bad group count "x"`},
		{"partition:@1-5", `fault: parse "partition:@1-5": bad group count ""`},
		{"partition:2", `fault: parse "partition:2": want target@rounds`},
		{"jam:2-3/e0", `fault: parse "jam:2-3/e0": zero or negative period "e0" (want /eN with N ≥ 1)`},
		{"jam:2-3/e-4", `fault: parse "jam:2-3/e-4": zero or negative period "e-4" (want /eN with N ≥ 1)`},
		{"jam:2-3/ex", `fault: parse "jam:2-3/ex": bad period "ex"`},
		{"restart:7@25-30", `fault: parse "restart:7@25-30": restart takes a single round, not a window`},
		{"restart:y@25", `fault: parse "restart:y@25": bad node "y"`},
		{"skew:2@5-30/q1", `fault: parse "skew:2@5-30/q1": unknown option "q1" (want /dN, /pF, or /eN)`},
	}
	for _, tc := range cases {
		_, err := Parse(tc.in)
		if err == nil {
			t.Errorf("Parse(%q) succeeded, want error", tc.in)
			continue
		}
		if err.Error() != tc.want {
			t.Errorf("Parse(%q) error:\n got:  %s\n want: %s", tc.in, err, tc.want)
		}
	}
}

// TestCompileValidationChaos2Exact pins the compile-time rejections the
// parser cannot catch: cross-rule restart ordering, capability gating,
// topology bounds, and recurrence well-formedness.
func TestCompileValidationChaos2Exact(t *testing.T) {
	g := testGraph(t) // n=10, m=10
	cases := []struct{ in, want string }{
		{"jam:2-/e5", "fault: rule 0 (jam:2-/e5): recurring rule needs a bounded round window"},
		{"jam:2-9/e4", "fault: rule 0 (jam:2-9/e4): period 4 shorter than the 8-round window it repeats"},
		{"skew:2@5", "fault: rule 0 (skew:2@5/d1): skew applies only to synchronizer runs (the §7.1 async layer)"},
		{"partition:1@1-5", "fault: rule 0 (partition:1@1-5): partition needs at least 2 groups, got 1"},
		{"partition:99@1-5", "fault: rule 0 (partition:99@1-5): partition into 99 groups outside graph of 10 nodes"},
		{"partition:2@3-6/p0.5", "fault: rule 0 (partition:2@3-6/p0.5): partition is all-or-nothing; /p is not allowed"},
		{"restart:7@25", "fault: rule 0 (restart:7@25): restart of node 7 needs a crash:7@R rule at an earlier round"},
		{"crash:7@30;restart:7@25", "fault: rule 1 (restart:7@25): restart of node 7 needs a crash:7@R rule at an earlier round"},
		{"crash:6@3;restart:7@25", "fault: rule 1 (restart:7@25): restart of node 7 needs a crash:7@R rule at an earlier round"},
		{"crash:7@3;restart:7@25/e4", "fault: rule 1 (restart:7@25/e4): restart takes no /e recurrence"},
	}
	for _, tc := range cases {
		p, err := Parse(tc.in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", tc.in, err)
		}
		_, err = Compile(p, g)
		if err == nil {
			t.Errorf("Compile(%q) succeeded, want error", tc.in)
			continue
		}
		if err.Error() != tc.want {
			t.Errorf("Compile(%q) error:\n got:  %s\n want: %s", tc.in, err, tc.want)
		}
	}
	// The same plan under the synchronizer capability compiles.
	p, err := Parse("skew:2@5")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CompileFor(p, g, Caps{Skew: true}); err != nil {
		t.Errorf("CompileFor(skew, Caps{Skew}) = %v, want nil", err)
	}
}

// TestPartitionGroupStability checks the seeded group assignment: the cut
// is a symmetric equivalence over nodes (same-group pairs always deliver),
// identical across compiles, active exactly inside the window, and the
// plan seed actually moves the grouping.
func TestPartitionGroupStability(t *testing.T) {
	g := testGraph(t) // n=10
	n := g.N()
	cut := func(seed int64) [][]bool {
		p := (&Plan{Seed: seed}).Add(Rule{Kind: Partition, Groups: 2, From: 3, Until: 5})
		inj, err := Compile(p, g)
		if err != nil {
			t.Fatal(err)
		}
		m := make([][]bool, n)
		for u := 0; u < n; u++ {
			m[u] = make([]bool, n)
			for v := 0; v < n; v++ {
				if u == v {
					continue
				}
				fate, _ := inj.MsgFate(0, graph.NodeID(u), graph.NodeID(v), 4)
				m[u][v] = fate == PartitionDrop
				if out, _ := inj.MsgFate(0, graph.NodeID(u), graph.NodeID(v), 2); out == PartitionDrop {
					t.Fatalf("seed %d: cut active before the window", seed)
				}
				if out, _ := inj.MsgFate(0, graph.NodeID(u), graph.NodeID(v), 6); out == PartitionDrop {
					t.Fatalf("seed %d: cut active after the window heals", seed)
				}
			}
		}
		return m
	}
	m1 := cut(1)
	if !reflect.DeepEqual(m1, cut(1)) {
		t.Fatal("same plan compiled to different groups")
	}
	// Symmetry and transitivity: the cut matrix must be exactly "u and v
	// are in different groups" for a 2-coloring of the nodes.
	group0 := []int{0}
	for v := 1; v < len(m1); v++ {
		if m1[0][v] != m1[v][0] {
			t.Fatalf("asymmetric cut between 0 and %d", v)
		}
		if !m1[0][v] {
			group0 = append(group0, v)
		}
	}
	for _, u := range group0 {
		for _, v := range group0 {
			if u != v && m1[u][v] {
				t.Errorf("nodes %d and %d share node 0's group but are cut", u, v)
			}
		}
	}
	anyCut, moved := false, false
	for v := 1; v < len(m1); v++ {
		anyCut = anyCut || m1[0][v]
	}
	for seed := int64(2); seed <= 8 && !moved; seed++ {
		moved = !reflect.DeepEqual(m1, cut(seed))
	}
	if !anyCut {
		t.Error("seed 1 produced a degenerate single-group split")
	}
	if !moved {
		t.Error("grouping is seed-independent")
	}
}

// TestRestartQueries covers the injector's restart schedule surface the
// engine's revival and fast-forward paths lean on.
func TestRestartQueries(t *testing.T) {
	g := testGraph(t)
	p, err := Parse("crash:3@4;restart:3@9;crash:5@4;restart:5@12")
	if err != nil {
		t.Fatal(err)
	}
	inj, err := Compile(p, g)
	if err != nil {
		t.Fatal(err)
	}
	if !inj.HasRestarts() {
		t.Fatal("HasRestarts = false")
	}
	if got := inj.RestartsAt(9); !reflect.DeepEqual(got, []graph.NodeID{3}) {
		t.Errorf("RestartsAt(9) = %v, want [3]", got)
	}
	if got := inj.RestartsAt(12); !reflect.DeepEqual(got, []graph.NodeID{5}) {
		t.Errorf("RestartsAt(12) = %v, want [5]", got)
	}
	if got := inj.RestartsAt(5); len(got) != 0 {
		t.Errorf("RestartsAt(5) = %v, want none", got)
	}
	for _, tt := range []struct {
		after int
		want  int
		ok    bool
	}{
		{0, 9, true}, {8, 9, true}, {9, 12, true}, {11, 12, true}, {12, 0, false},
	} {
		if got, ok := inj.NextRestartAfter(tt.after); got != tt.want || ok != tt.ok {
			t.Errorf("NextRestartAfter(%d) = %d, %v, want %d, %v", tt.after, got, ok, tt.want, tt.ok)
		}
	}
	var nilInj *Injector
	if nilInj.HasRestarts() {
		t.Error("nil injector has restarts")
	}
	if _, ok := nilInj.NextRestartAfter(0); ok {
		t.Error("nil injector scheduled a restart")
	}
	if got := nilInj.RestartsAt(9); got != nil {
		t.Errorf("nil RestartsAt = %v", got)
	}
}

// TestCountJammedRecurring checks the recurring-window slot arithmetic the
// step engine's fast-forward depends on: counts agree with per-round
// evaluation and the open-ended tail of a /eN rule never stops firing.
func TestCountJammedRecurring(t *testing.T) {
	g := testGraph(t)
	p, err := Parse("jam:2-3/e5")
	if err != nil {
		t.Fatal(err)
	}
	inj, err := Compile(p, g)
	if err != nil {
		t.Fatal(err)
	}
	// Jammed at 2,3 then every 5: 2,3,7,8,...,97,98 — 40 slots in [1,100].
	if n := inj.CountJammed(1, 100); n != 40 {
		t.Errorf("CountJammed(1,100) = %d, want 40", n)
	}
	var want int64
	for s := 1; s <= 123456; s++ {
		if inj.Jammed(s) {
			want++
		}
	}
	if got := inj.CountJammed(1, 123456); got != want {
		t.Errorf("CountJammed(1,123456) = %d, want %d (per-round evaluation)", got, want)
	}
	// The recurrence never heals for good: far beyond the base window, the
	// next occurrence is still ahead.
	if n := inj.CountJammed(1_000_002, 1_000_003); n != 2 {
		t.Errorf("CountJammed(1000002,1000003) = %d, want 2", n)
	}
	if s, ok := inj.NextClearSlot(2, 100); !ok || s != 4 {
		t.Errorf("NextClearSlot(2,100) = %d, %v, want 4, true", s, ok)
	}
}
