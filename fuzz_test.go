package gcore_test

import (
	"fmt"
	"math"
	"testing"

	"gcore"
	"gcore/internal/core"
	"gcore/internal/csr"
	"gcore/internal/parser"
	"gcore/internal/value"
)

// Fuzz targets. Without -fuzz these run their seed corpus as ordinary
// tests; with `go test -fuzz=FuzzParse .` they explore the grammar.
// Invariants: the parser never panics and accepts its own output; the
// evaluator never panics and every graph it returns satisfies the PPG
// invariants.

func parserSeeds() []string {
	seeds := []string{
		"",
		";",
		"CONSTRUCT",
		"CONSTRUCT (n) MATCH (n)",
		"CONSTRUCT (n)-[e:a|b {k = 1}]->(m) MATCH (n)",
		"CONSTRUCT (n) MATCH (n)-/3 SHORTEST p <(:a|:b-)* !:C _> COST c/->(m) WHERE c > 0",
		"SELECT n.a AS x MATCH (n) ORDER BY x DESC LIMIT 3",
		"PATH w = (a)-[e]->(b) COST 1 / (1 + e.k) CONSTRUCT (n) MATCH (n)-/p<~w*>/->(m)",
		"GRAPH VIEW v AS (CONSTRUCT (n) MATCH (n:A) WHERE EXISTS (CONSTRUCT () MATCH (n)-[:x]->()))",
		"CONSTRUCT (x GROUP e :C {v := COUNT(*)}) WHEN x.v > 0 MATCH (n {employer=e})",
		"CONSTRUCT a, (n) MATCH (n) ON g UNION CONSTRUCT (m) MATCH (m) MINUS h",
		"CONSTRUCT (=n)-[=y]->(m) MATCH (n)-[y]->(m) OPTIONAL (n)-[:z]->(q) WHERE (q:L)",
		"CONSTRUCT (n) MATCH (n) WHERE CASE n.x WHEN 1 THEN TRUE ELSE FALSE END",
		"CONSTRUCT (n) FROM t",
		"CONSTRUCT (n) MATCH (n) WHERE NOT 'a' IN n.b AND n.c SUBSET n.d",
		"/* comment */ CONSTRUCT (n) # more\nMATCH (n)",
		"CONSTRUCT (n) MATCH (n) WHERE n.a = DATE '1/12/2014'",
		"CONSTRUCT (n) MATCH (n)-/@p:l {t = 0.5}/->(m)",
	}
	for _, q := range parser.PaperQueries {
		seeds = append(seeds, q)
	}
	return seeds
}

func FuzzParse(f *testing.F) {
	for _, s := range parserSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		stmt, err := gcore.Parse(src)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		printed := stmt.String()
		again, err := gcore.Parse(printed)
		if err != nil {
			t.Fatalf("parser rejects its own output:\ninput: %q\nprinted: %q\nerr: %v", src, printed, err)
		}
		if again.String() != printed {
			t.Fatalf("printing is not a fixpoint:\nfirst: %q\nsecond: %q", printed, again.String())
		}
	})
}

// fuzzRand draws graph material from a xorshift stream: deterministic,
// no time dependence.
type fuzzRand uint32

var (
	fuzzLabels = []string{"A", "B", "C", "knows", "likes"}
	fuzzKeys   = []string{"k0", "k1", "k2", "name"}
)

func (r *fuzzRand) next(mod int) int {
	*r ^= *r << 13
	*r ^= *r >> 17
	*r ^= *r << 5
	return int(uint32(*r) % uint32(mod))
}

func (r *fuzzRand) value() gcore.Value {
	switch r.next(5) {
	case 0:
		return gcore.Int(int64(r.next(100)))
	case 1:
		return gcore.Float(float64(r.next(100)) / 4)
	case 2:
		return gcore.Bool(r.next(2) == 0)
	case 3:
		return gcore.Str(fuzzLabels[r.next(len(fuzzLabels))])
	default:
		return gcore.Str(fmt.Sprintf("s%d", r.next(40)))
	}
}

// props draws up to three properties.
func (r *fuzzRand) props() gcore.Properties {
	kv := map[string]gcore.Value{}
	for i, n := 0, r.next(4); i < n; i++ {
		kv[fuzzKeys[r.next(len(fuzzKeys))]] = r.value()
	}
	return gcore.NewProperties(kv)
}

// nodeLabels draws no label or one of the node labels.
func (r *fuzzRand) nodeLabels() gcore.Labels {
	if r.next(2) == 0 {
		return gcore.NewLabels()
	}
	return gcore.NewLabels(fuzzLabels[r.next(3)])
}

func (r *fuzzRand) addNode(g *gcore.Graph, id gcore.NodeID) {
	_ = g.AddNode(&gcore.Node{ID: id, Labels: r.nodeLabels(), Props: r.props()})
}

func (r *fuzzRand) addEdge(g *gcore.Graph, id gcore.EdgeID) {
	if ids := g.NodeIDs(); len(ids) > 0 {
		_ = g.AddEdge(&gcore.Edge{ID: id, Src: ids[r.next(len(ids))], Dst: ids[r.next(len(ids))],
			Labels: gcore.NewLabels(fuzzLabels[r.next(len(fuzzLabels))]), Props: r.props()})
	}
}

// checkSnapshot holds a snapshot to the graph it was read from:
// ordinals round-trip through identifiers, adjacency agrees with the
// ppg maps edge for edge (in order), label membership, endpoints and
// property reads agree, and every column's equality seeks agree with a
// scan of the column (seekAgainstScan; indexed spans the calls).
func checkSnapshot(t *testing.T, g *gcore.Graph, s *csr.Snapshot, r *fuzzRand, indexed map[*csr.PropCol]bool) {
	t.Helper()
	if s.NumNodes() != g.NumNodes() || s.NumEdges() != g.NumEdges() {
		t.Fatalf("snapshot size mismatch: %d/%d nodes, %d/%d edges",
			s.NumNodes(), g.NumNodes(), s.NumEdges(), g.NumEdges())
	}
	outs, ins := map[gcore.NodeID][]gcore.EdgeID{}, map[gcore.NodeID][]gcore.EdgeID{}
	for _, eid := range g.EdgeIDs() {
		e, _ := g.Edge(eid)
		outs[e.Src] = append(outs[e.Src], eid)
		ins[e.Dst] = append(ins[e.Dst], eid)
	}
	for u := int32(0); u < int32(s.NumNodes()); u++ {
		id := s.NodeID(u)
		back, ok := s.Ord(id)
		if !ok || back != u {
			t.Fatalf("ordinal %d → id %d → ordinal %d (%v): round trip broken", u, id, back, ok)
		}
		out := outs[id]
		if len(out) != len(s.Out(u)) {
			t.Fatalf("out degree of #%d: csr %d, ppg %d", id, len(s.Out(u)), len(out))
		}
		for i, eo := range s.Out(u) {
			if s.EdgeID(eo) != out[i] {
				t.Fatalf("out adjacency of #%d diverges at %d: csr #%d, ppg #%d", id, i, s.EdgeID(eo), out[i])
			}
		}
		in := ins[id]
		if len(in) != len(s.In(u)) {
			t.Fatalf("in degree of #%d: csr %d, ppg %d", id, len(s.In(u)), len(in))
		}
		for i, eo := range s.In(u) {
			if s.EdgeID(eo) != in[i] {
				t.Fatalf("in adjacency of #%d diverges at %d: csr #%d, ppg #%d", id, i, s.EdgeID(eo), in[i])
			}
		}
		nd, _ := g.Node(id)
		for _, l := range fuzzLabels {
			if s.NodeHasLabel(u, s.LabelID(l)) != nd.Labels.Has(l) {
				t.Fatalf("label %q membership of #%d diverges", l, id)
			}
		}
		for _, k := range fuzzKeys {
			if !value.Equal(s.NodeProp(u, k), nd.Props.Get(k)) {
				t.Fatalf("property %q of #%d: csr %v, ppg %v", k, id, s.NodeProp(u, k), nd.Props.Get(k))
			}
		}
	}
	for e := int32(0); e < int32(s.NumEdges()); e++ {
		eo, ok := s.EdgeOrd(s.EdgeID(e))
		if !ok || eo != e {
			t.Fatalf("edge ordinal %d round trip broken", e)
		}
		ed, _ := g.Edge(s.EdgeID(e))
		if s.NodeID(s.Src(e)) != ed.Src || s.NodeID(s.Dst(e)) != ed.Dst {
			t.Fatalf("edge #%d endpoints diverge", ed.ID)
		}
		for _, l := range fuzzLabels {
			if s.EdgeHasLabel(e, s.LabelID(l)) != ed.Labels.Has(l) {
				t.Fatalf("label %q membership of edge #%d diverges", l, ed.ID)
			}
		}
		for _, k := range fuzzKeys {
			if !value.Equal(s.EdgeProp(e, k), ed.Props.Get(k)) {
				t.Fatalf("property %q of edge #%d: csr %v, ppg %v", k, ed.ID, s.EdgeProp(e, k), ed.Props.Get(k))
			}
		}
	}
	for _, key := range fuzzKeys {
		lits := []gcore.Value{r.value(), r.value(), gcore.Str("s1"), gcore.Int(7), gcore.Float(0.25), gcore.Bool(true)}
		seekAgainstScan(t, s, s.NodeCol(key), indexed, s.NumNodes(), lits)
		seekAgainstScan(t, s, s.EdgeCol(key), indexed, s.NumEdges(), lits)
	}
}

// FuzzSnapshot drives the CSR remap boundary with random graph shapes
// and properties: for any graph, its snapshot must agree with it
// (checkSnapshot).
func FuzzSnapshot(f *testing.F) {
	f.Add(uint32(1), uint8(8), uint8(12))
	f.Add(uint32(42), uint8(1), uint8(0))
	f.Add(uint32(7), uint8(40), uint8(90))
	f.Fuzz(func(t *testing.T, seed uint32, nNodes, nEdges uint8) {
		g := gcore.NewGraph("fuzz")
		r := fuzzRand(seed | 1)
		for i := 0; i < int(nNodes); i++ {
			r.addNode(g, gcore.NodeID(r.next(1000)))
		}
		for i := 0; i < int(nEdges); i++ {
			r.addEdge(g, gcore.EdgeID(10_000+r.next(10_000)))
		}
		checkSnapshot(t, g, csr.Of(g), &r, map[*csr.PropCol]bool{})
	})
}

// FuzzIncrementalSnapshot mutates a snapshotted random graph in random
// rounds: appends above and below the largest identifiers, fresh
// labels, relabels and property replacements. After every round the
// graph's snapshot must agree with the graph (checkSnapshot), and the
// snapshot read before the first round, seeks included, must still read
// as it did then.
func FuzzIncrementalSnapshot(f *testing.F) {
	f.Add(uint32(1), uint8(4), uint8(6))
	f.Add(uint32(42), uint8(1), uint8(1))
	f.Add(uint32(7), uint8(10), uint8(20))
	f.Add(uint32(99), uint8(3), uint8(0))
	f.Add(uint32(5), uint8(12), uint8(1)) // rounds of one mutation, some in place only
	f.Fuzz(func(t *testing.T, seed uint32, rounds, ops uint8) {
		g := gcore.NewGraph("fuzz")
		r := fuzzRand(seed | 1)
		for i := 0; i < 8+r.next(8); i++ {
			r.addNode(g, gcore.NodeID(100+i))
		}
		for i := 0; i < 2*g.NumNodes(); i++ {
			r.addEdge(g, gcore.EdgeID(10_000+i))
		}
		indexed := map[*csr.PropCol]bool{} // columns whose index some seek built
		frozen := csr.Of(g)
		checkSnapshot(t, g, frozen, &r, indexed)
		frozenImage := snapImage(frozen, fuzzLabels, fuzzKeys)

		nextNode, nextEdge := gcore.NodeID(1_000_000), gcore.EdgeID(2_000_000)
		for round := 0; round < int(rounds%16); round++ {
			for o := 0; o < int(ops%32); o++ {
				ids, eids := g.NodeIDs(), g.EdgeIDs()
				switch r.next(8) {
				case 0: // above every identifier
					r.addNode(g, nextNode)
					nextNode++
				case 1: // below the largest identifier
					r.addNode(g, gcore.NodeID(r.next(90)))
				case 2:
					r.addEdge(g, nextEdge)
					nextEdge++
				case 3: // a label no element had
					_ = g.AddNode(&gcore.Node{ID: nextNode, Labels: gcore.NewLabels(fmt.Sprintf("L%d", r.next(6)))})
					nextNode++
				case 4:
					_ = g.SetNodeLabels(ids[r.next(len(ids))], r.nodeLabels())
				case 5:
					if len(eids) > 0 {
						_ = g.SetEdgeLabels(eids[r.next(len(eids))], gcore.NewLabels(fuzzLabels[3+r.next(2)]))
					}
				case 6:
					_ = g.SetNodeProps(ids[r.next(len(ids))], r.props())
				default:
					if len(eids) > 0 {
						_ = g.SetEdgeProps(eids[r.next(len(eids))], r.props())
					}
				}
			}
			checkSnapshot(t, g, csr.Of(g), &r, indexed)
		}
		if got := snapImage(frozen, fuzzLabels, fuzzKeys); got != frozenImage {
			t.Fatalf("the first snapshot changed under later rounds:\n%s\nwas:\n%s", got, frozenImage)
		}
	})
}

// seekAgainstScan holds one column's equality index to a from-scratch
// scan: for every constant the column agrees to seek, the postings
// ascend and contain each ordinal value.Eq accepts. indexed remembers
// the columns whose index was built, across snapshot versions: no
// column may build twice.
func seekAgainstScan(t *testing.T, snap *csr.Snapshot, col *csr.PropCol, indexed map[*csr.PropCol]bool, count int, lits []gcore.Value) {
	t.Helper()
	if col == nil {
		return
	}
	for _, lit := range lits {
		post, built, ok := col.SeekEq(lit, snap.Strings())
		if built && indexed[col] {
			t.Fatalf("a column rebuilt its index for %v", lit)
		}
		indexed[col] = indexed[col] || built
		if !ok {
			continue
		}
		at := 0
		for o := int32(0); o < int32(count); o++ {
			if at < len(post) && post[at] < o {
				t.Fatalf("postings %v for %v do not ascend", post, lit)
			}
			hit := at < len(post) && post[at] == o
			if hit {
				at++
			}
			if !col.Present(o) {
				continue
			}
			if eq, _ := value.Eq(col.SetAt(o), lit).AsBool(); eq && !hit {
				t.Fatalf("postings %v for %v (column kind %v) miss ordinal %d", post, lit, col.Kind(), o)
			}
		}
		if at != len(post) {
			t.Fatalf("postings %v for %v reach past the %d ordinals", post, lit, count)
		}
	}
}

// fuzzLimits bounds the binding tables of fuzzed statements.
var fuzzLimits = gcore.WithLimits(gcore.Limits{MaxBindings: 200_000})

func FuzzEval(f *testing.F) {
	for _, s := range parserSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		// Bound adversarial cartesian products: the engine must reject
		// them with an error, not hang.
		eng := tourEngine(t, fuzzLimits)
		res, err := eng.Eval(src)
		if err != nil {
			return // evaluation errors are fine; panics and invalid graphs are not
		}
		if res.Graph != nil {
			if verr := res.Graph.Validate(); verr != nil {
				t.Fatalf("query produced an invalid graph:\nquery: %q\nviolation: %v", src, verr)
			}
		}
	})
}

// kindsGraph is FuzzParamInline's second graph: one :T node per row,
// with a typed column of every kind the snapshots carry (i int, f float
// including NaN, -0 and an integral value, b bool, d date, s string) and
// an overflow column m mixing scalars of every kind with multi-valued
// sets — the shapes on which a columnar predicate, an equality seek and
// the interpreter could disagree. It is assembled, not inserted: the
// mutators refuse NaN, which CONSTRUCT still stores from a parameter.
func kindsGraph() *gcore.Graph {
	day := value.Date // days since the epoch; 16071 is 1 January 2014
	nan := gcore.Float(math.NaN())
	rows := []map[string]gcore.Value{
		{"i": gcore.Int(1), "f": gcore.Float(1), "b": gcore.Bool(true), "d": day(16071), "s": gcore.Str("Acme"), "m": gcore.Str("Acme")},
		{"i": gcore.Int(2), "f": gcore.Float(2.5), "b": gcore.Bool(false), "d": day(16072), "s": gcore.Str("HAL"), "m": gcore.SetOf(gcore.Str("Acme"), gcore.Str("HAL"))},
		{"i": gcore.Int(2), "f": nan, "b": gcore.Bool(true), "d": day(16072), "s": gcore.Str("Acme"), "m": gcore.Int(2)},
		{"i": gcore.Int(30), "f": gcore.Float(math.Copysign(0, -1)), "b": gcore.Bool(false), "d": day(16982), "s": gcore.Str(""), "m": gcore.Float(2)},
		{"i": gcore.Int(-7), "f": gcore.Float(30), "d": day(0), "s": gcore.Str("HAL"), "m": gcore.Bool(true)},
		{"i": gcore.Int(30), "f": gcore.Float(0), "b": gcore.Bool(true), "s": gcore.Str("acme"), "m": day(16072)},
		{"f": nan, "b": gcore.Bool(false), "d": day(16071), "m": gcore.SetOf(gcore.Int(30), gcore.Str("Acme"))},
		{"i": gcore.Int(0), "s": gcore.Str("Acme"), "m": gcore.Str("HAL")},
	}
	nodes := make([]*gcore.Node, len(rows))
	for i, kv := range rows {
		nodes[i] = &gcore.Node{ID: gcore.NodeID(9000 + i), Labels: gcore.NewLabels("T"), Props: gcore.NewProperties(kv)}
	}
	return gcore.AssembleNodes("kinds_graph", nodes)
}

// paramBindings derives the $a/$b bindings of one FuzzParamInline input.
// kind picks $a among every scalar kind — an integer, the integral
// float equal to it, a fractional float, NaN, a bool, a date — and two
// set shapes; its high bit makes $b a two-element set.
func paramBindings(iv int64, sv string, kind uint8) map[string]gcore.Value {
	a := gcore.Int(iv)
	switch kind % 8 {
	case 1:
		a = gcore.Float(float64(iv))
	case 2:
		a = gcore.Float(float64(iv) / 4)
	case 3:
		a = gcore.Float(math.NaN())
	case 4:
		a = gcore.Bool(iv%2 == 0)
	case 5:
		a = value.Date(16071 + iv%3) // the dates kinds_graph holds, and the day after
	case 6:
		a = gcore.SetOf(gcore.Int(iv))
	case 7:
		a = gcore.SetOf(gcore.Int(iv), gcore.Str(sv))
	}
	b := gcore.Str(sv)
	if kind >= 128 {
		b = gcore.SetOf(gcore.Str(sv), gcore.Str("HAL"))
	}
	return map[string]gcore.Value{"a": a, "b": b}
}

// FuzzParamInline: evaluating a statement with $a/$b parameter
// bindings must be indistinguishable from (1) splicing the literals
// into the source text (parser.InlineParams) wherever the bindings
// have a literal form (NaN and sets have none), and (2) executing the
// same prepared statement on an engine that never touches the property
// columns (Ablation.NoPropColumns): bound parameters compile into
// column predicates and equality seeks, the ablated engine interprets
// them row by row.
func FuzzParamInline(f *testing.F) {
	for _, s := range []string{
		`SELECT n.firstName AS x MATCH (n:Person) WHERE n.employer = $b ORDER BY x`,
		`CONSTRUCT (n) MATCH (n:Person) WHERE n.age > $a`,
		`SELECT n.firstName AS x MATCH (n) WHERE n.age = $a OR n.firstName = $b ORDER BY x`,
		`CONSTRUCT (n {score := $a}) MATCH (n:Person)`,
		`CONSTRUCT (n) MATCH (n)-[e]->(m) WHERE e.since >= $a AND m.name <> $b`,
		`SELECT n.i AS i, n.m AS m MATCH (n:T) ON kinds_graph WHERE n.i = $a ORDER BY i, m`,
		`SELECT n.i AS i, n.f AS f MATCH (n:T) ON kinds_graph WHERE $a = n.f ORDER BY i, f`,
		`SELECT n.i AS i MATCH (n:T) ON kinds_graph WHERE n.b = $a AND n.s = $b ORDER BY i`,
		`SELECT n.i AS i MATCH (n:T) ON kinds_graph WHERE n.d = $a ORDER BY i`,
		`SELECT n.i AS i, n.s AS s MATCH (n:T) ON kinds_graph WHERE n.m = $a AND n.s <> $b ORDER BY i, s`,
		`SELECT n.i AS i, n.s AS s MATCH (n:T) ON kinds_graph WHERE n.m = $b ORDER BY i, s`,
		`SELECT n.i AS i MATCH (n:T) ON kinds_graph WHERE n.s IN $b AND n.i <= $a ORDER BY i`,
		`CONSTRUCT (n)-[e]->(m) MATCH (n:Person)-[e:knows]->(m:Person) WHERE n.firstName = $b`,
	} {
		for _, kind := range []uint8{0, 1, 2, 3, 4, 5, 6, 7, 128} {
			f.Add(s, int64(2), "Acme", kind)
		}
		f.Add(s, int64(30), "John", uint8(0))
	}
	engine := func(t *testing.T, ab core.Ablation) *gcore.Engine {
		eng := goldenTour(t, ablated(ab), fuzzLimits)
		if err := eng.RegisterGraph(kindsGraph()); err != nil {
			t.Fatal(err)
		}
		return eng
	}
	f.Fuzz(func(t *testing.T, src string, iv int64, sv string, kind uint8) {
		params := paramBindings(iv, sv, kind)
		inlined, inlineErr := parser.InlineParams(src, params)
		if inlineErr != nil && len(parser.ParamNames(src)) == 0 {
			return // lex error: nothing to compare
		}
		prep, err := engine(t, core.Ablation{}).Prepare(src)
		if err != nil {
			// The statement itself is invalid; the inlined form must
			// agree that it is.
			if inlineErr == nil {
				if _, ierr := engine(t, core.Ablation{}).Eval(inlined); ierr == nil {
					t.Fatalf("Prepare rejected %q (%v) but the inlined form evaluated", src, err)
				}
			}
			return
		}
		gotRes, gotErr := prep.Eval(params)
		check := func(oracle string, wantRes *gcore.Result, wantErr error) {
			t.Helper()
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("success diverged from %s for %q with %v:\nparam err:  %v\noracle err: %v", oracle, src, params, gotErr, wantErr)
			}
			if gotErr != nil {
				return // both failed; messages may name the expression differently
			}
			if got, want := renderResult(gotRes, nil), renderResult(wantRes, nil); got != want {
				t.Fatalf("parameterised result diverged from %s\nquery: %q\nparams: %v\nparam:\n%s\noracle:\n%s", oracle, src, params, got, want)
			}
		}
		if inlineErr == nil { // parameters beyond $a/$b, NaN and sets have no inlined form
			wantRes, wantErr := engine(t, core.Ablation{}).Eval(inlined)
			check("inlined literals", wantRes, wantErr)
		}
		if rowPrep, err := engine(t, core.Ablation{NoPropColumns: true}).Prepare(src); err != nil {
			t.Fatalf("the NoPropColumns engine rejected %q, which the default engine prepared: %v", src, err)
		} else {
			wantRes, wantErr := rowPrep.Eval(params)
			check("the NoPropColumns engine", wantRes, wantErr)
		}
	})
}
