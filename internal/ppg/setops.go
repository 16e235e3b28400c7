package ppg

import "gcore/internal/value"

// The "full graph" operations of §A.5. They are defined in terms of
// node, edge and path *identities*. Two graphs are consistent if every
// shared edge identifier has the same endpoints (ρ1(e) = ρ2(e)) and
// every shared path identifier has the same expansion (δ1(p) = δ2(p));
// union and intersection of inconsistent graphs are the empty PPG.
//
// Elements are immutable once inserted, so the result shares every
// element its inputs do not combine: an element present in one input
// only, or the same object in both, is inserted as it is; only an
// identifier carried by two different objects gets a new, merged one.

// Consistent reports whether g1 and g2 agree on all shared edge and
// path identifiers.
func Consistent(g1, g2 *Graph) bool {
	for id, e1 := range g1.edges {
		if e2, ok := g2.edges[id]; ok {
			if e1.Src != e2.Src || e1.Dst != e2.Dst {
				return false
			}
		}
	}
	for id, p1 := range g1.paths {
		if p2, ok := g2.paths[id]; ok {
			if !sameExpansion(p1, p2) {
				return false
			}
		}
	}
	return true
}

func sameExpansion(p1, p2 *Path) bool {
	if len(p1.Nodes) != len(p2.Nodes) || len(p1.Edges) != len(p2.Edges) {
		return false
	}
	for i := range p1.Nodes {
		if p1.Nodes[i] != p2.Nodes[i] {
			return false
		}
	}
	for i := range p1.Edges {
		if p1.Edges[i] != p2.Edges[i] {
			return false
		}
	}
	return true
}

// Union returns G1 ∪ G2: the identity-wise union; labels are united
// and property value sets are united pointwise. Inconsistent inputs
// yield the empty graph.
func Union(name string, g1, g2 *Graph) *Graph {
	out := New(name)
	if !Consistent(g1, g2) {
		return out
	}
	for id, n := range g1.nodes {
		if n2, ok := g2.nodes[id]; ok && n2 != n {
			n = &Node{ID: id, Labels: n.Labels.Union(n2.Labels), Props: unionProps(n.Props, n2.Props)}
		}
		mustAdd(out.AddNode(n))
	}
	for id, n := range g2.nodes {
		if _, ok := g1.nodes[id]; !ok {
			mustAdd(out.AddNode(n))
		}
	}
	for id, e := range g1.edges {
		if e2, ok := g2.edges[id]; ok && e2 != e {
			e = &Edge{ID: id, Src: e.Src, Dst: e.Dst, Labels: e.Labels.Union(e2.Labels), Props: unionProps(e.Props, e2.Props)}
		}
		mustAdd(out.AddEdge(e))
	}
	for id, e := range g2.edges {
		if _, ok := g1.edges[id]; !ok {
			mustAdd(out.AddEdge(e))
		}
	}
	for id, p := range g1.paths {
		if p2, ok := g2.paths[id]; ok && p2 != p {
			p = &Path{ID: id, Nodes: p.Nodes, Edges: p.Edges, Labels: p.Labels.Union(p2.Labels), Props: unionProps(p.Props, p2.Props)}
		}
		mustAdd(out.AddPath(p))
	}
	for id, p := range g2.paths {
		if _, ok := g1.paths[id]; !ok {
			mustAdd(out.AddPath(p))
		}
	}
	return out
}

// unionProps returns a new map holding σ1(x,k) ∪ σ2(x,k) for every key.
func unionProps(a, b Properties) Properties {
	out := a.Clone()
	for k, v2 := range b {
		if v1, ok := out[k]; ok {
			out[k] = value.Set(append(append([]value.Value(nil), v1.Elems()...), v2.Elems()...)...)
		} else {
			out[k] = v2
		}
	}
	return out
}

// Intersect returns G1 ∩ G2: shared identities only; labels and
// property value sets are intersected pointwise. Inconsistent inputs
// yield the empty graph.
func Intersect(name string, g1, g2 *Graph) *Graph {
	out := New(name)
	if !Consistent(g1, g2) {
		return out
	}
	for id, n := range g1.nodes {
		n2, ok := g2.nodes[id]
		if !ok {
			continue
		}
		if n2 != n {
			n = &Node{ID: id, Labels: n.Labels.Intersect(n2.Labels), Props: intersectProps(n.Props, n2.Props)}
		}
		mustAdd(out.AddNode(n))
	}
	// Shared edges have shared endpoints by consistency; the endpoints
	// are in N1 ∩ N2 because each graph contains them.
	for id, e := range g1.edges {
		e2, ok := g2.edges[id]
		if !ok {
			continue
		}
		if e2 != e {
			e = &Edge{ID: id, Src: e.Src, Dst: e.Dst, Labels: e.Labels.Intersect(e2.Labels), Props: intersectProps(e.Props, e2.Props)}
		}
		mustAdd(out.AddEdge(e))
	}
	for id, p := range g1.paths {
		p2, ok := g2.paths[id]
		if !ok {
			continue
		}
		if p2 != p {
			p = &Path{ID: id, Nodes: p.Nodes, Edges: p.Edges, Labels: p.Labels.Intersect(p2.Labels), Props: intersectProps(p.Props, p2.Props)}
		}
		mustAdd(out.AddPath(p))
	}
	return out
}

func intersectProps(a, b Properties) Properties {
	out := Properties{}
	for k, va := range a {
		vb, ok := b[k]
		if !ok {
			continue
		}
		keep := []value.Value{}
		for _, e := range va.Elems() {
			if v := value.In(e, vb); eqTrue(v) {
				keep = append(keep, e)
			}
		}
		if len(keep) > 0 {
			out[k] = value.Set(keep...)
		}
	}
	return out
}

func eqTrue(v value.Value) bool { b, _ := v.AsBool(); return b }

// Minus returns G1 ∖ G2 per §A.5: nodes N1∖N2; edges of E1∖E2 whose
// endpoints survive; paths of P1∖P2 whose nodes and edges all survive.
// Labels and properties come from G1 unchanged. The result never has
// dangling edges or broken paths.
func Minus(name string, g1, g2 *Graph) *Graph {
	out := New(name)
	for id, n := range g1.nodes {
		if _, shared := g2.nodes[id]; !shared {
			mustAdd(out.AddNode(n))
		}
	}
	for id, e := range g1.edges {
		if _, shared := g2.edges[id]; shared {
			continue
		}
		if _, ok := out.nodes[e.Src]; !ok {
			continue
		}
		if _, ok := out.nodes[e.Dst]; !ok {
			continue
		}
		mustAdd(out.AddEdge(e))
	}
	for id, p := range g1.paths {
		if _, shared := g2.paths[id]; shared {
			continue
		}
		if out.checkPathShape(p) == nil {
			mustAdd(out.AddPath(p))
		}
	}
	return out
}

// mustAdd panics on insertion errors that the set-op algorithms make
// impossible by construction; a panic here is a bug in this package.
func mustAdd(err error) {
	if err != nil {
		panic("ppg: internal set-op invariant violated: " + err.Error())
	}
}
