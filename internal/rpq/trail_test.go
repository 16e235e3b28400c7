package rpq

import (
	"testing"

	"gcore/internal/ast"
	"gcore/internal/ppg"
)

func TestTrailSearchDiamond(t *testing.T) {
	g := diamondGraph(t)
	e := NewEngine(g, nil)
	nfa := mustCompile(t, rxStar(rxLabel("e")))
	count, visits, err := e.CountTrails(1, 4, nfa, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if visits == 0 {
		t.Fatal("no visits")
	}
	if count != 2 {
		t.Errorf("trails 1→4 = %d, want 2", count)
	}
}

// Trails may revisit nodes but not edges: on two parallel 2-cycles,
// trails through the shared node exist that simple paths miss.
func TestTrailsVsSimplePaths(t *testing.T) {
	g := ppg.New("eight")
	// A figure-eight: 1↔2 and 1↔3 plus 2→4.
	for i := 1; i <= 4; i++ {
		if err := g.AddNode(&ppg.Node{ID: ppg.NodeID(i)}); err != nil {
			t.Fatal(err)
		}
	}
	pairs := [][2]ppg.NodeID{{1, 2}, {2, 1}, {1, 3}, {3, 1}, {2, 4}}
	for i, p := range pairs {
		if err := g.AddEdge(&ppg.Edge{ID: ppg.EdgeID(10 + i), Src: p[0], Dst: p[1], Labels: ppg.NewLabels("e")}); err != nil {
			t.Fatal(err)
		}
	}
	e := NewEngine(g, nil)
	nfa := mustCompile(t, rxStar(rxLabel("e")))
	// 1→4 trails: [1,2,4] and [1,3,1,2,4] (revisits node 1 but no
	// edge) and [1,2,1,3,1,2,4]? — no: edge 1→2 reused. So 2 trails.
	trails, _, err := e.CountTrails(1, 4, nfa, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if trails != 2 {
		t.Errorf("trails = %d, want 2", trails)
	}
	// Simple paths cannot revisit node 1: only [1,2,4].
	simple, _, err := e.CountSimplePaths(1, 4, nfa, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if simple != 1 {
		t.Errorf("simple paths = %d, want 1", simple)
	}
	// Walks are unbounded; the k-shortest search still terminates and
	// finds the 2-hop walk first.
	res, err := walks(e.ShortestPaths(1, nfa, 3))
	if err != nil {
		t.Fatal(err)
	}
	if res[4][0].Hops != 2 {
		t.Errorf("shortest walk = %+v", res[4][0])
	}
	if len(res[4]) != 3 {
		t.Errorf("3-shortest walks to 4 = %d", len(res[4]))
	}
}

func TestTrailBudgetAndViews(t *testing.T) {
	g := diamondGraph(t)
	e := NewEngine(g, nil)
	nfa := mustCompile(t, rxStar(rxLabel("e")))
	_, visits, err := e.CountTrails(1, 4, nfa, 3)
	if err != nil || visits > 3 {
		t.Errorf("budget: visits=%d err=%v", visits, err)
	}
	vnfa := mustCompile(t, &ast.Regex{Op: ast.RxView, Label: "v"})
	if _, _, err := e.CountTrails(1, 4, vnfa, 10); err == nil {
		t.Error("views must be rejected")
	}
	// Missing source: nothing to count.
	if c, _, err := e.CountTrails(99, 4, nfa, 10); err != nil || c != 0 {
		t.Error("missing source must count zero")
	}
}

func TestDestinations(t *testing.T) {
	g := lineGraph(t, 4)
	e := NewEngine(g, nil)
	nfa := mustCompile(t, rxPlus(rxLabel("a")))
	ap, err := e.AllPaths(1, nfa)
	if err != nil {
		t.Fatal(err)
	}
	dsts := ap.Destinations()
	if len(dsts) != 3 || dsts[0] != 2 || dsts[2] != 4 {
		t.Errorf("destinations = %v", dsts)
	}
}
