package gcore

import (
	"gcore/internal/core"
	"gcore/internal/ppg"
)

// NewAblatedEngine is NewEngine with evaluator optimisations switched
// off — the only way to an ablated engine, and a test-only one: the
// differential tests and ablation benchmarks compare such engines
// with default ones.
func NewAblatedEngine(ab core.Ablation, opts ...Option) *Engine { return newEngine(ab, opts) }

// AssembleNodes builds a graph of the given nodes through ppg.Assemble,
// which checks nothing: fixtures use it for the property values the
// mutators refuse (NaN), which CONSTRUCT still stores from a NaN
// parameter.
func AssembleNodes(name string, nodes []*Node) *Graph { return ppg.Assemble(name, nodes, nil, nil) }
