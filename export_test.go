package gcore

import "gcore/internal/core"

// NewAblatedEngine is NewEngine with evaluator optimisations switched
// off — the only way to an ablated engine, and a test-only one: the
// differential tests and ablation benchmarks compare such engines
// with default ones.
func NewAblatedEngine(ab core.Ablation, opts ...Option) *Engine { return newEngine(ab, opts) }
