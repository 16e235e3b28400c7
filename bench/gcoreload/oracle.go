package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"gcore"
	"gcore/bench/workload"
)

// replica is an in-process engine over a freshly generated copy of the
// run's dataset, with the workload's session state (prepared
// statements, set-up views) built the same way a connection builds it
// over HTTP. The oracle answers from one; the traced replay times
// another.
type replica struct {
	b     backend
	sess  *gcore.Session
	preps []*gcore.Prepared
}

// backend is what a replica is built over: *gcore.Engine or
// *gcore.DurableEngine.
type backend interface {
	RegisterGraph(*gcore.Graph) error
	NewSession() *gcore.Session
	Metrics() gcore.Metrics
	GraphNames() []string
	Graph(name string) (*gcore.Graph, bool)
}

func newReplica(b backend, cfg runConfig, spec *workload.Spec) (*replica, error) {
	ds, err := workload.NewDataset(cfg.persons, cfg.seed)
	if err != nil {
		return nil, err
	}
	for _, g := range []*gcore.Graph{ds.Social, ds.Companies} {
		if err := b.RegisterGraph(g); err != nil {
			return nil, err
		}
	}
	r := &replica{b: b, sess: b.NewSession()}
	for _, stmt := range spec.Prepared {
		p, err := r.sess.Prepare(stmt)
		if err != nil {
			return nil, fmt.Errorf("replica: preparing %q: %w", stmt, err)
		}
		r.preps = append(r.preps, p)
	}
	for _, req := range spec.Setup {
		if _, err := r.eval(req); err != nil {
			return nil, fmt.Errorf("replica: set-up statement %q: %w", req.Query, err)
		}
	}
	return r, nil
}

// eval runs one request the way the server's handlers do: prepared
// executions through the handle, everything else as a script.
func (r *replica) eval(req workload.Request) (*gcore.Result, error) {
	ctx := context.Background()
	if req.Prep >= 0 {
		return r.preps[req.Prep].EvalContext(ctx, bindings(req))
	}
	sess := r.sess
	if !req.InSession {
		sess = r.b.NewSession()
	}
	rs, err := sess.EvalScriptContext(ctx, req.Query)
	if err != nil {
		return nil, err
	}
	if len(rs) != 1 {
		return nil, fmt.Errorf("statement returned %d results, want 1", len(rs))
	}
	return rs[0], nil
}

func bindings(req workload.Request) map[string]gcore.Value {
	params := make(map[string]gcore.Value, len(req.Params))
	for _, p := range req.Params {
		if p.IsInt {
			params[p.Name] = gcore.Int(p.Int)
		} else {
			params[p.Name] = gcore.Str(p.Str)
		}
	}
	return params
}

// oracle checks gcored's replies against a replica.
type oracle struct {
	rep   *replica
	cards map[string]int // expected cardinality per request key
}

func newOracle(cfg runConfig, spec *workload.Spec) (*oracle, error) {
	rep, err := newReplica(gcore.NewEngine(), cfg, spec)
	if err != nil {
		return nil, err
	}
	return &oracle{rep: rep, cards: map[string]int{}}, nil
}

// resultCard is cardinality for a result the oracle holds, so the two
// can be compared: the reply wraps the table in a one-element results
// array, hence the extra '['.
func resultCard(res *gcore.Result) int {
	switch {
	case res.Table != nil:
		data, err := res.Table.MarshalJSON()
		if err != nil {
			return -1
		}
		return bytes.Count(data, []byte("[")) + 1
	case res.Graph != nil:
		return res.Graph.NumNodes() + res.Graph.NumEdges() + res.Graph.NumPaths()
	}
	return 0
}

// card returns the cardinality the oracle expects for req.
func (o *oracle) card(req workload.Request) (int, error) {
	k := req.Key()
	if c, ok := o.cards[k]; ok {
		return c, nil
	}
	res, err := o.rep.eval(req)
	if err != nil {
		return 0, fmt.Errorf("oracle: %s: %w", k, err)
	}
	c := resultCard(res)
	o.cards[k] = c
	return c, nil
}

// checkFull compares one whole reply with the oracle's answer: tables
// byte for byte (modulo JSON whitespace), graphs by node, edge and
// path counts and by the multiset of their labels, because GROUP and
// @p mint fresh identifiers on every evaluation. It returns "" when
// they agree.
func (o *oracle) checkFull(req workload.Request, reply []byte) string {
	want, err := o.rep.eval(req)
	if err != nil {
		return fmt.Sprintf("oracle cannot evaluate: %v", err)
	}
	o.cards[req.Key()] = resultCard(want)
	var doc struct {
		Results []struct {
			Graph json.RawMessage `json:"graph"`
			Table json.RawMessage `json:"table"`
		} `json:"results"`
	}
	if err := json.Unmarshal(reply, &doc); err != nil {
		return fmt.Sprintf("reply is not JSON: %v", err)
	}
	if len(doc.Results) != 1 {
		return fmt.Sprintf("reply has %d results, want 1", len(doc.Results))
	}
	got := doc.Results[0]
	switch {
	case want.Table != nil:
		wantJSON, err := want.Table.MarshalJSON()
		if err != nil {
			return err.Error()
		}
		if got.Table == nil || !bytes.Equal(compact(got.Table), compact(wantJSON)) {
			return "table differs from the oracle's"
		}
	case want.Graph != nil:
		if got.Graph == nil {
			return "reply has no graph"
		}
		g := gcore.NewGraph("")
		if err := g.UnmarshalJSON(got.Graph); err != nil {
			return fmt.Sprintf("reply graph does not load: %v", err)
		}
		if a, b := graphShape(g), graphShape(want.Graph); a != b {
			return fmt.Sprintf("graph shape %s, oracle has %s", a, b)
		}
	}
	return ""
}

func compact(j []byte) []byte {
	var buf bytes.Buffer
	if err := json.Compact(&buf, j); err != nil {
		return j
	}
	return buf.Bytes()
}

// graphShape renders element counts and the sorted label multiset.
func graphShape(g *gcore.Graph) string {
	counts := map[string]int{}
	for _, id := range g.NodeIDs() {
		n, _ := g.Node(id)
		counts["n:"+strings.Join(n.Labels, "+")]++
	}
	for _, id := range g.EdgeIDs() {
		e, _ := g.Edge(id)
		counts["e:"+strings.Join(e.Labels, "+")]++
	}
	for _, id := range g.PathIDs() {
		p, _ := g.Path(id)
		counts["p:"+strings.Join(p.Labels, "+")]++
	}
	labels := make([]string, 0, len(counts))
	for l := range counts {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	var sb strings.Builder
	fmt.Fprintf(&sb, "%dn/%de/%dp", g.NumNodes(), g.NumEdges(), g.NumPaths())
	for _, l := range labels {
		fmt.Fprintf(&sb, " %s×%d", l, counts[l])
	}
	return sb.String()
}
