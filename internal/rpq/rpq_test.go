package rpq

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"gcore/internal/ast"
	"gcore/internal/ppg"
)

// rx helpers for building regexes in tests.
func rxLabel(l string) *ast.Regex { return &ast.Regex{Op: ast.RxLabel, Label: l} }
func rxInv(l string) *ast.Regex   { return &ast.Regex{Op: ast.RxInvLabel, Label: l} }
func rxNode(l string) *ast.Regex  { return &ast.Regex{Op: ast.RxNodeLabel, Label: l} }
func rxStar(r *ast.Regex) *ast.Regex {
	return &ast.Regex{Op: ast.RxStar, Subs: []*ast.Regex{r}}
}
func rxPlus(r *ast.Regex) *ast.Regex {
	return &ast.Regex{Op: ast.RxPlus, Subs: []*ast.Regex{r}}
}
func rxOpt(r *ast.Regex) *ast.Regex {
	return &ast.Regex{Op: ast.RxOpt, Subs: []*ast.Regex{r}}
}
func rxCat(rs ...*ast.Regex) *ast.Regex {
	return &ast.Regex{Op: ast.RxConcat, Subs: rs}
}
func rxAlt(rs ...*ast.Regex) *ast.Regex {
	return &ast.Regex{Op: ast.RxAlt, Subs: rs}
}

func mustCompile(t *testing.T, rx *ast.Regex) *NFA {
	t.Helper()
	n, err := Compile(rx)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// lineGraph builds 1 -a-> 2 -a-> 3 … with label a, plus a b-labelled
// shortcut 1 -b-> n.
func lineGraph(t *testing.T, n int) *ppg.Graph {
	t.Helper()
	g := ppg.New("line")
	for i := 1; i <= n; i++ {
		if err := g.AddNode(&ppg.Node{ID: ppg.NodeID(i), Labels: ppg.NewLabels("N")}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < n; i++ {
		if err := g.AddEdge(&ppg.Edge{ID: ppg.EdgeID(100 + i), Src: ppg.NodeID(i), Dst: ppg.NodeID(i + 1), Labels: ppg.NewLabels("a")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.AddEdge(&ppg.Edge{ID: 999, Src: 1, Dst: ppg.NodeID(n), Labels: ppg.NewLabels("b")}); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestShortestPathsLine(t *testing.T) {
	g := lineGraph(t, 5)
	e := NewEngine(g, nil)
	nfa := mustCompile(t, rxStar(rxLabel("a")))
	res, err := walks(e.ShortestPaths(1, nfa, 1))
	if err != nil {
		t.Fatal(err)
	}
	// Every node reachable, including node 1 itself via the empty path.
	if len(res) != 5 {
		t.Fatalf("destinations = %d, want 5", len(res))
	}
	self := res[1][0]
	if self.Hops != 0 || len(self.Edges) != 0 || len(self.Nodes) != 1 {
		t.Errorf("empty path = %+v", self)
	}
	p5 := res[5][0]
	if p5.Hops != 4 || p5.Cost != 4 {
		t.Errorf("path to 5 = %+v", p5)
	}
	wantNodes := []ppg.NodeID{1, 2, 3, 4, 5}
	for i, n := range wantNodes {
		if p5.Nodes[i] != n {
			t.Fatalf("nodes = %v", p5.Nodes)
		}
	}
}

func TestShortestPrefersFewerHops(t *testing.T) {
	g := lineGraph(t, 5)
	e := NewEngine(g, nil)
	// (a|b)*: the b shortcut reaches node 5 in one hop.
	nfa := mustCompile(t, rxStar(rxAlt(rxLabel("a"), rxLabel("b"))))
	res, err := walks(e.ShortestPaths(1, nfa, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res[5][0].Hops != 1 || res[5][0].Edges[0] != 999 {
		t.Errorf("shortcut not taken: %+v", res[5][0])
	}
}

func TestKShortest(t *testing.T) {
	g := lineGraph(t, 5)
	e := NewEngine(g, nil)
	nfa := mustCompile(t, rxStar(rxAlt(rxLabel("a"), rxLabel("b"))))
	res, err := walks(e.ShortestPaths(1, nfa, 3))
	if err != nil {
		t.Fatal(err)
	}
	got := res[5]
	if len(got) != 2 {
		t.Fatalf("paths to 5 = %d, want exactly 2 (shortcut and line)", len(got))
	}
	if got[0].Hops != 1 || got[1].Hops != 4 {
		t.Errorf("k-shortest order wrong: %+v", got)
	}
	if _, err := e.ShortestPaths(1, nfa, 0); err == nil {
		t.Error("k=0 must error")
	}
}

func TestInverseEdges(t *testing.T) {
	g := lineGraph(t, 3)
	e := NewEngine(g, nil)
	// From node 3 backwards over a⁻.
	nfa := mustCompile(t, rxStar(rxInv("a")))
	res, err := walks(e.ShortestPaths(3, nfa, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("reachable = %d", len(res))
	}
	p1 := res[1][0]
	if p1.Hops != 2 || p1.Nodes[0] != 3 || p1.Nodes[2] != 1 {
		t.Errorf("backward path = %+v", p1)
	}
}

func TestNodeLabelTest(t *testing.T) {
	g := ppg.New("g")
	for i, ls := range []ppg.Labels{ppg.NewLabels("A"), ppg.NewLabels("B"), ppg.NewLabels("A")} {
		if err := g.AddNode(&ppg.Node{ID: ppg.NodeID(i + 1), Labels: ls}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= 2; i++ {
		if err := g.AddEdge(&ppg.Edge{ID: ppg.EdgeID(10 + i), Src: ppg.NodeID(i), Dst: ppg.NodeID(i + 1), Labels: ppg.NewLabels("e")}); err != nil {
			t.Fatal(err)
		}
	}
	e := NewEngine(g, nil)
	// e !B e: middle node must carry label B.
	ok := mustCompile(t, rxCat(rxLabel("e"), rxNode("B"), rxLabel("e")))
	res, err := walks(e.ShortestPaths(1, ok, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res[3]) != 1 {
		t.Error("path through B-labelled node not found")
	}
	// e !A e: middle node lacks label A → no path.
	bad := mustCompile(t, rxCat(rxLabel("e"), rxNode("A"), rxLabel("e")))
	res, err = walks(e.ShortestPaths(1, bad, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res[3]) != 0 {
		t.Error("node test should have blocked the path")
	}
}

func TestReachable(t *testing.T) {
	g := lineGraph(t, 4)
	e := NewEngine(g, nil)
	nfa := mustCompile(t, rxPlus(rxLabel("a")))
	got, err := e.Reachable(2, nfa)
	if err != nil {
		t.Fatal(err)
	}
	// a+ from node 2: nodes 3 and 4 (not 2: plus needs ≥1 edge).
	if len(got) != 2 || got[0] != 3 || got[1] != 4 {
		t.Errorf("reachable = %v", got)
	}
	// From a missing node: nothing.
	got, err = e.Reachable(99, nfa)
	if err != nil || len(got) != 0 {
		t.Errorf("reachable from missing = %v, %v", got, err)
	}
}

// diamondGraph: 1→2→4 and 1→3→4, all label e.
func diamondGraph(t *testing.T) *ppg.Graph {
	t.Helper()
	g := ppg.New("diamond")
	for i := 1; i <= 4; i++ {
		if err := g.AddNode(&ppg.Node{ID: ppg.NodeID(i)}); err != nil {
			t.Fatal(err)
		}
	}
	edges := [][2]ppg.NodeID{{1, 2}, {1, 3}, {2, 4}, {3, 4}}
	for i, e := range edges {
		if err := g.AddEdge(&ppg.Edge{ID: ppg.EdgeID(10 + i), Src: e[0], Dst: e[1], Labels: ppg.NewLabels("e")}); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestAllPathsProjection(t *testing.T) {
	g := diamondGraph(t)
	e := NewEngine(g, nil)
	nfa := mustCompile(t, rxStar(rxLabel("e")))
	ap, err := e.AllPaths(1, nfa)
	if err != nil {
		t.Fatal(err)
	}
	nodes, edges, ok := ap.Projection(4)
	if !ok {
		t.Fatal("4 must be reachable")
	}
	if len(nodes) != 4 || len(edges) != 4 {
		t.Errorf("projection = %v nodes %v edges; want all 4 and 4", nodes, edges)
	}
	// Projection to 2 must contain only the 1→2 edge.
	nodes, edges, ok = ap.Projection(2)
	if !ok || len(nodes) != 2 || len(edges) != 1 || edges[0] != 10 {
		t.Errorf("projection to 2 = %v, %v", nodes, edges)
	}
	if _, _, ok := ap.Projection(99); ok {
		t.Error("missing node cannot be projected")
	}
}

func TestAllPathsProjectionWithCycle(t *testing.T) {
	// 1→2, 2→1 cycle plus 2→3: infinitely many conforming walks, but
	// the projection stays finite and polynomial — the tractability
	// argument of §3 for ALL.
	g := ppg.New("cycle")
	for i := 1; i <= 3; i++ {
		if err := g.AddNode(&ppg.Node{ID: ppg.NodeID(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i, pair := range [][2]ppg.NodeID{{1, 2}, {2, 1}, {2, 3}} {
		if err := g.AddEdge(&ppg.Edge{ID: ppg.EdgeID(10 + i), Src: pair[0], Dst: pair[1], Labels: ppg.NewLabels("e")}); err != nil {
			t.Fatal(err)
		}
	}
	e := NewEngine(g, nil)
	nfa := mustCompile(t, rxStar(rxLabel("e")))
	ap, err := e.AllPaths(1, nfa)
	if err != nil {
		t.Fatal(err)
	}
	nodes, edges, ok := ap.Projection(3)
	if !ok || len(nodes) != 3 || len(edges) != 3 {
		t.Errorf("cycle projection = %v, %v", nodes, edges)
	}
}

// viewResolverFunc adapts a function to the ViewResolver interface.
type viewResolverFunc func(name string, from ppg.NodeID) ([]Segment, error)

func (f viewResolverFunc) Segments(name string, from ppg.NodeID) ([]Segment, error) {
	return f(name, from)
}

func TestWeightedViewSearch(t *testing.T) {
	g := lineGraph(t, 4)
	// View w: segments along the line with costs 0.5, 0.25, 4.
	costs := map[ppg.NodeID]float64{1: 0.5, 2: 0.25, 3: 4}
	views := viewResolverFunc(func(name string, from ppg.NodeID) ([]Segment, error) {
		if name != "w" {
			return nil, fmt.Errorf("unknown view %q", name)
		}
		c, ok := costs[from]
		if !ok {
			return nil, nil
		}
		to := from + 1
		return []Segment{{From: from, To: to, Cost: c,
			Nodes: []ppg.NodeID{from, to}, Edges: []ppg.EdgeID{ppg.EdgeID(100 + uint64(from))}}}, nil
	})
	e := NewEngine(g, views)
	nfa := mustCompile(t, rxStar(&ast.Regex{Op: ast.RxView, Label: "w"}))
	res, err := walks(e.ShortestPaths(1, nfa, 1))
	if err != nil {
		t.Fatal(err)
	}
	p4 := res[4][0]
	if p4.Cost != 4.75 || p4.Hops != 3 {
		t.Errorf("weighted path = %+v", p4)
	}
	if len(p4.Edges) != 3 || p4.Edges[0] != 101 {
		t.Errorf("expansion = %v", p4.Edges)
	}
}

func TestViewErrors(t *testing.T) {
	g := lineGraph(t, 3)
	nfa := mustCompile(t, &ast.Regex{Op: ast.RxView, Label: "w"})
	// No resolver in scope.
	if _, err := NewEngine(g, nil).ShortestPaths(1, nfa, 1); err == nil {
		t.Error("view without resolver must error")
	}
	// Non-positive cost is the runtime error mandated by §3.
	bad := viewResolverFunc(func(string, ppg.NodeID) ([]Segment, error) {
		return []Segment{{From: 1, To: 2, Cost: 0}}, nil
	})
	if _, err := NewEngine(g, bad).ShortestPaths(1, nfa, 1); err == nil {
		t.Error("non-positive cost must raise a runtime error")
	}
}

func TestSimplePathBaseline(t *testing.T) {
	g := diamondGraph(t)
	e := NewEngine(g, nil)
	nfa := mustCompile(t, rxStar(rxLabel("e")))
	count, visits, err := e.CountSimplePaths(1, 4, nfa, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if visits == 0 {
		t.Fatal("no visits recorded")
	}
	if count != 2 {
		t.Errorf("simple paths 1→4 = %d, want 2", count)
	}
	// Node 1 is only a source: no simple path returns to it but the
	// empty one.
	if self, _, err := e.CountSimplePaths(1, 1, nfa, 1_000_000); err != nil || self != 1 {
		t.Errorf("simple paths 1→1 = %d (%v), want 1", self, err)
	}
	// Views unsupported in the baseline.
	vnfa := mustCompile(t, &ast.Regex{Op: ast.RxView, Label: "w"})
	if _, _, err := e.CountSimplePaths(1, 4, vnfa, 10); err == nil {
		t.Error("baseline must reject views")
	}
	// Missing source: nothing to count.
	if c, _, err := e.CountSimplePaths(99, 4, nfa, 10); err != nil || c != 0 {
		t.Error("missing source must count zero")
	}
}

func TestSimplePathBudget(t *testing.T) {
	g := diamondGraph(t)
	e := NewEngine(g, nil)
	nfa := mustCompile(t, rxStar(rxLabel("e")))
	_, visits, err := e.CountSimplePaths(1, 4, nfa, 3)
	if err != nil {
		t.Fatal(err)
	}
	if visits > 3 {
		t.Errorf("budget exceeded: %d", visits)
	}
}

// ===== property tests =====

// randRegex builds a random regex over edge labels {a, b}.
func randRegex(r *rand.Rand, depth int) *ast.Regex {
	if depth == 0 {
		switch r.Intn(3) {
		case 0:
			return rxLabel("a")
		case 1:
			return rxLabel("b")
		default:
			return &ast.Regex{Op: ast.RxAnyEdge}
		}
	}
	switch r.Intn(6) {
	case 0:
		return rxCat(randRegex(r, depth-1), randRegex(r, depth-1))
	case 1:
		return rxAlt(randRegex(r, depth-1), randRegex(r, depth-1))
	case 2:
		return rxStar(randRegex(r, depth-1))
	case 3:
		return rxPlus(randRegex(r, depth-1))
	case 4:
		return rxOpt(randRegex(r, depth-1))
	default:
		return randRegex(r, 0)
	}
}

// refMatch is the obviously correct recursive matcher for edge-only
// words (no node symbols), used to validate the NFA construction.
func refMatch(rx *ast.Regex, word []string) bool {
	switch rx.Op {
	case ast.RxEps:
		return len(word) == 0
	case ast.RxAnyEdge:
		return len(word) == 1
	case ast.RxLabel:
		return len(word) == 1 && word[0] == rx.Label
	case ast.RxConcat:
		if len(rx.Subs) == 0 {
			return len(word) == 0
		}
		head, rest := rx.Subs[0], &ast.Regex{Op: ast.RxConcat, Subs: rx.Subs[1:]}
		for cut := 0; cut <= len(word); cut++ {
			if refMatch(head, word[:cut]) && refMatch(rest, word[cut:]) {
				return true
			}
		}
		return false
	case ast.RxAlt:
		for _, s := range rx.Subs {
			if refMatch(s, word) {
				return true
			}
		}
		return false
	case ast.RxStar:
		if len(word) == 0 {
			return true
		}
		for cut := 1; cut <= len(word); cut++ {
			if refMatch(rx.Subs[0], word[:cut]) && refMatch(rx, word[cut:]) {
				return true
			}
		}
		return false
	case ast.RxPlus:
		return refMatch(rxCat(rx.Subs[0], rxStar(rx.Subs[0])), word)
	case ast.RxOpt:
		return len(word) == 0 || refMatch(rx.Subs[0], word)
	}
	return false
}

func TestQuickNFAMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rx := randRegex(r, 3)
		nfa, err := Compile(rx)
		if err != nil {
			return false
		}
		for trial := 0; trial < 20; trial++ {
			n := r.Intn(5)
			word := make([]string, n)
			syms := make([]Sym, n)
			for i := range word {
				if r.Intn(2) == 0 {
					word[i] = "a"
				} else {
					word[i] = "b"
				}
				syms[i] = Sym{Labels: []string{word[i]}}
			}
			if nfa.MatchesWord(syms) != refMatch(rx, word) {
				t.Logf("regex %s word %v: nfa=%v ref=%v", rx, word, nfa.MatchesWord(syms), refMatch(rx, word))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// randWeightedGraph builds a random graph with one label and a random
// view with positive costs for the Dijkstra cross-check.
func randWeightedGraph(r *rand.Rand, n int) (*ppg.Graph, map[ppg.NodeID][]Segment) {
	g := ppg.New("rand")
	for i := 1; i <= n; i++ {
		if err := g.AddNode(&ppg.Node{ID: ppg.NodeID(i)}); err != nil {
			panic(err)
		}
	}
	segs := map[ppg.NodeID][]Segment{}
	eid := ppg.EdgeID(100)
	for i := 1; i <= n; i++ {
		for j := 1; j <= n; j++ {
			if i == j || r.Intn(3) != 0 {
				continue
			}
			if err := g.AddEdge(&ppg.Edge{ID: eid, Src: ppg.NodeID(i), Dst: ppg.NodeID(j), Labels: ppg.NewLabels("e")}); err != nil {
				panic(err)
			}
			cost := float64(r.Intn(9)+1) / 2
			segs[ppg.NodeID(i)] = append(segs[ppg.NodeID(i)], Segment{
				From: ppg.NodeID(i), To: ppg.NodeID(j), Cost: cost,
				Nodes: []ppg.NodeID{ppg.NodeID(i), ppg.NodeID(j)}, Edges: []ppg.EdgeID{eid},
			})
			eid++
		}
	}
	return g, segs
}

// TestQuickDijkstraMatchesBellmanFord cross-checks the product search
// (over a trivial one-state view regex) against Bellman-Ford.
func TestQuickDijkstraMatchesBellmanFord(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 6
		g, segs := randWeightedGraph(r, n)
		views := viewResolverFunc(func(name string, from ppg.NodeID) ([]Segment, error) {
			return segs[from], nil
		})
		e := NewEngine(g, views)
		nfa, err := Compile(rxStar(&ast.Regex{Op: ast.RxView, Label: "w"}))
		if err != nil {
			return false
		}
		res, err := walks(e.ShortestPaths(1, nfa, 1))
		if err != nil {
			return false
		}
		// Bellman-Ford reference.
		const inf = 1e18
		dist := map[ppg.NodeID]float64{}
		for i := 1; i <= n; i++ {
			dist[ppg.NodeID(i)] = inf
		}
		dist[1] = 0
		for iter := 0; iter < n; iter++ {
			for from, ss := range segs {
				for _, s := range ss {
					if dist[from]+s.Cost < dist[s.To] {
						dist[s.To] = dist[from] + s.Cost
					}
				}
			}
		}
		for i := 1; i <= n; i++ {
			id := ppg.NodeID(i)
			got, ok := res[id]
			if dist[id] >= inf {
				if ok {
					return false
				}
				continue
			}
			if !ok || got[0].Cost != dist[id] {
				t.Logf("seed %d node %d: dijkstra %v bellman %v", seed, i, got, dist[id])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickPathsAreValid checks that every returned path is a valid
// walk in the graph conforming to adjacency.
func TestQuickPathsAreValid(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g, _ := randWeightedGraph(r, 6)
		e := NewEngine(g, nil)
		nfa, err := Compile(rxStar(rxAlt(rxLabel("e"), rxInv("e"))))
		if err != nil {
			return false
		}
		res, err := walks(e.ShortestPaths(1, nfa, 2))
		if err != nil {
			return false
		}
		for _, paths := range res {
			for _, p := range paths {
				if len(p.Nodes) != len(p.Edges)+1 {
					return false
				}
				for i, eid := range p.Edges {
					ed, ok := g.Edge(eid)
					if !ok {
						return false
					}
					a, b := p.Nodes[i], p.Nodes[i+1]
					if !(ed.Src == a && ed.Dst == b) && !(ed.Src == b && ed.Dst == a) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestCompileErrors(t *testing.T) {
	if _, err := Compile(&ast.Regex{Op: ast.RxConcat}); err == nil {
		t.Error("empty concat must fail")
	}
	if _, err := Compile(&ast.Regex{Op: ast.RegexOp(99)}); err == nil {
		t.Error("unknown op must fail")
	}
}

func TestNFAHasViews(t *testing.T) {
	withView, _ := Compile(rxCat(rxLabel("a"), &ast.Regex{Op: ast.RxView, Label: "v"}))
	if !withView.HasViews() {
		t.Error("HasViews false negative")
	}
	without, _ := Compile(rxLabel("a"))
	if without.HasViews() {
		t.Error("HasViews false positive")
	}
	if without.NumStates() == 0 {
		t.Error("no states")
	}
}
