package rpq

import (
	"fmt"

	"gcore/internal/ppg"
)

// Simple-path semantics baseline.
//
// G-CORE deliberately evaluates path expressions under arbitrary-path
// (walk) semantics: checking whether a *simple* path (no repeated
// node) from u to v conforms to a fixed regular expression is
// NP-complete (Mendelzon & Wood [23], cited in §4 and §A.1), and
// Cypher 9's no-repeated-edge semantics inherits related blow-ups.
// This file implements the avoided alternative — exhaustive
// backtracking over simple paths — purely as a comparison baseline
// for the complexity ablation benchmarks (DESIGN.md experiment CPLX2),
// which count the conforming simple paths between two nodes.

// CountSimplePaths counts the simple paths from src to dst conforming
// to the automaton, up to the visit budget. Used by the ablation to
// show the combinatorial explosion that enumeration-based semantics
// face on dense graphs.
func (e *Engine) CountSimplePaths(src, dst ppg.NodeID, nfa *NFA, maxVisits int) (count, visits int, err error) {
	if nfa.HasViews() {
		return 0, 0, fmt.Errorf("rpq: simple-path baseline does not support path views")
	}
	if _, ok := e.g.Node(src); !ok {
		return 0, 0, nil
	}
	onPath := map[ppg.NodeID]bool{src: true}
	// epsSeen guards against ε-cycles of the Thompson construction:
	// between two edge consumptions, every automaton state is entered
	// at most once (safe: repeating a state without consuming an edge
	// cannot enable new graph paths).
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
				_ = e.eachEdgeStep(c.n, t.inverse, t.label, func(_ ppg.EdgeID, next ppg.NodeID) error {
					if onPath[next] {
						return nil
					}
					onPath[next] = true
					dfs(cfg{next, t.to}, map[int]bool{t.to: true})
					onPath[next] = false
					return nil
				})
			}
		}
	}
	dfs(cfg{src, nfa.start}, map[int]bool{nfa.start: true})
	return count, visits, nil
}
