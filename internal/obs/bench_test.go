package obs

import "testing"

// BenchmarkCollectorSpan is the cost of one fully-populated span on
// the metrics-only path (no handler, labels skipped) — the per-
// operator overhead every statement pays outside EXPLAIN ANALYZE and
// tracing.
func BenchmarkCollectorSpan(b *testing.B) {
	var c Collector
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := c.Start(OpExpand)
		if sp.Verbose() {
			sp.SetLabel("expand (x)-[:knows]->(y) (adjacency)")
		}
		sp.Rows(128, 256).End()
		if i&1023 == 0 {
			c.Reset(nil, false)
		}
	}
}

// BenchmarkNilCollectorSpan is the cost when no collector is
// installed at all — kernels run outside the evaluator.
func BenchmarkNilCollectorSpan(b *testing.B) {
	var c *Collector
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := c.Start(OpExpand)
		if sp.Verbose() {
			sp.SetLabel("never")
		}
		sp.Rows(128, 256).End()
	}
}
