package rpq

import (
	"fmt"

	"gcore/internal/ppg"
)

// Trail (no-repeated-edge) semantics baseline.
//
// §6 of the paper contrasts three path-evaluation semantics:
// G-CORE's arbitrary-path (walk) semantics, Cypher 9's
// no-repeated-edge semantics ("each edge occurs at most once in the
// path") and simple-path semantics. Like simple paths, trails require
// enumeration in the worst case; this file implements them as a
// second comparison baseline for the CPLX2 ablation. The production
// search (ShortestPaths) never uses it.

// CountTrails counts the conforming trails from src to dst, up to the
// visit budget — the enumeration cost Cypher-9-style semantics pays
// when all matches are requested.
func (e *Engine) CountTrails(src, dst ppg.NodeID, nfa *NFA, maxVisits int) (count, visits int, err error) {
	if nfa.HasViews() {
		return 0, 0, fmt.Errorf("rpq: trail baseline does not support path views")
	}
	if _, ok := e.g.Node(src); !ok {
		return 0, 0, nil
	}
	onTrail := map[ppg.EdgeID]bool{}
	var dfs func(c cfg, epsSeen map[int]bool)
	dfs = func(c cfg, epsSeen map[int]bool) {
		if visits >= maxVisits {
			return
		}
		visits++
		if c.q == nfa.accept && c.n == dst {
			count++
		}
		node, _ := e.g.Node(c.n)
		for _, t := range nfa.trans[c.q] {
			switch t.kind {
			case tEps, tNode:
				if t.kind == tNode && !node.Labels.Has(t.label) {
					continue
				}
				if epsSeen[t.to] {
					continue
				}
				epsSeen[t.to] = true
				dfs(cfg{c.n, t.to}, epsSeen)
				delete(epsSeen, t.to)
			case tEdge:
				_ = e.eachEdgeStep(c.n, t.inverse, t.label, func(eid ppg.EdgeID, next ppg.NodeID) error {
					if onTrail[eid] {
						return nil
					}
					onTrail[eid] = true
					dfs(cfg{next, t.to}, map[int]bool{t.to: true})
					onTrail[eid] = false
					return nil
				})
			}
		}
	}
	dfs(cfg{src, nfa.start}, map[int]bool{nfa.start: true})
	return count, visits, nil
}
