package obs

import (
	"errors"
	"sync"
	"testing"
)

func TestNilCollectorIsNoOp(t *testing.T) {
	var c *Collector
	sp := c.Start(OpScan)
	if sp != nil {
		t.Fatalf("nil collector Start = %v, want nil", sp)
	}
	// Every chainable method must tolerate the nil span.
	sp.SetLabel("x").Rows(1, 2).Indexed(true).Seek("k").Frontier(3, 4).End()
	sp.Fail()
	if sp.Verbose() {
		t.Fatal("nil span reports verbose")
	}
	c.NFAEvent(true)
	c.CSREvent(false)
	c.RecordBudget(1, 2)
	c.PropIndexEvent(true, 1)
	c.WalksFound(3)
	c.WalkBuilt()
	c.EnterSub()
	c.ExitSub()
	c.SetHandler(nil)
	if got := c.Since(c.Mark()); got.NFAHits != 0 {
		t.Fatalf("nil collector stats = %+v", got)
	}
	if c.SpansSince(Mark{}) != nil {
		t.Fatal("nil collector returned spans")
	}
}

func TestSpanRecording(t *testing.T) {
	c := NewCollector()
	sp := c.Start(OpScan)
	if !sp.Verbose() {
		t.Fatal("NewCollector should be verbose")
	}
	sp.SetLabel("node scan (x:Person)").Rows(0, 42).Indexed(true).End()

	c.EnterSub()
	c.Start(OpScan).Rows(7, 7).Seek("pid").End()
	c.ExitSub()

	c.Start(OpShortest).Frontier(10, 25).Rows(3, 5).Fail()

	spans := c.SpansSince(Mark{})
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	if spans[0].Label != "node scan (x:Person)" || !spans[0].Indexed || spans[0].RowsOut != 42 {
		t.Fatalf("scan span = %+v", spans[0])
	}
	if spans[0].Seek != "" || spans[1].Seek != "pid" || spans[1].RowsIn != 7 {
		t.Fatalf("seek spans = %+v, %+v", spans[0], spans[1])
	}
	if spans[0].Depth != 0 || spans[1].Depth != 1 {
		t.Fatalf("depths = %d, %d; want 0, 1", spans[0].Depth, spans[1].Depth)
	}
	if !spans[2].Err || spans[2].Pops != 10 || spans[2].Arrivals != 25 {
		t.Fatalf("kernel span = %+v", spans[2])
	}

	st := c.Stats()
	if st.Op(OpScan).Count != 2 || st.Op(OpScan).RowsOut != 49 {
		t.Fatalf("scan stat = %+v", st.Op(OpScan))
	}
	if st.Op(OpShortest).Pops != 10 {
		t.Fatalf("shortest stat = %+v", st.Op(OpShortest))
	}
}

func TestMarkSinceWindows(t *testing.T) {
	c := NewCollector()
	c.Start(OpScan).Rows(0, 5).End()
	c.NFAEvent(false)
	c.PropIndexEvent(true, 1)
	m := c.Mark()
	c.Start(OpScan).Rows(5, 3).End()
	c.NFAEvent(true)
	c.CSREvent(true)
	c.RecordBudget(100, 9)
	c.PropIndexEvent(true, 0)
	c.PropIndexEvent(false, 2)
	c.WalksFound(4)
	c.WalkBuilt()

	st := c.Since(m)
	if st.Op(OpScan).Count != 1 || st.Op(OpScan).RowsOut != 3 {
		t.Fatalf("windowed scan stat = %+v", st.Op(OpScan))
	}
	if st.NFAHits != 1 || st.NFAMisses != 0 || st.CSRReuses != 1 {
		t.Fatalf("windowed cache stats = %+v", st)
	}
	if st.FrontierUsed != 100 || st.ResultsUsed != 9 {
		t.Fatalf("windowed budget = %+v", st)
	}
	if st.PropIndexSeeks != 1 || st.PropIndexBuilds != 2 {
		t.Fatalf("windowed index stats = %d seeks, %d builds", st.PropIndexSeeks, st.PropIndexBuilds)
	}
	if st.WalksFound != 4 || st.WalksBuilt != 1 {
		t.Fatalf("windowed walks = %d found, %d built", st.WalksFound, st.WalksBuilt)
	}
	if got := len(c.SpansSince(m)); got != 1 {
		t.Fatalf("SpansSince = %d spans, want 1", got)
	}
	// A stale mark beyond the history is harmless.
	c2 := NewCollector()
	if got := c2.SpansSince(m); got != nil {
		t.Fatalf("stale mark returned %d spans", len(got))
	}
}

func TestResetClearsEverything(t *testing.T) {
	c := NewCollector()
	c.Start(OpJoin).Rows(4, 2).End()
	c.NFAEvent(true)
	c.PropIndexEvent(true, 1)
	c.WalksFound(2)
	c.WalkBuilt()
	c.EnterSub()
	c.Reset(nil)
	if c.verbose.Load() {
		t.Fatal("Reset(nil) should disable verbose")
	}
	if st := c.Stats(); st.Op(OpJoin).Count != 0 || st.NFAHits != 0 || st.PropIndexSeeks != 0 || st.PropIndexBuilds != 0 || st.WalksFound != 0 || st.WalksBuilt != 0 {
		t.Fatalf("stats after reset = %+v", st)
	}
	if c.Start(OpScan).Verbose() {
		t.Fatal("span verbose after Reset(nil)")
	}
	if d := c.depth.Load(); d != 0 {
		t.Fatalf("depth after reset = %d", d)
	}
	c.Reset(handlerFunc{})
	if !c.verbose.Load() {
		t.Fatal("Reset with handler should enable verbose")
	}
}

type handlerFunc struct {
	onStart func(Op, int)
	onEnd   func(Span)
}

func (h handlerFunc) SpanStart(op Op, depth int) {
	if h.onStart != nil {
		h.onStart(op, depth)
	}
}

func (h handlerFunc) SpanEnd(sp Span) {
	if h.onEnd != nil {
		h.onEnd(sp)
	}
}

func TestTraceHandlerEvents(t *testing.T) {
	var mu sync.Mutex
	var starts []Op
	var ends []Span
	h := handlerFunc{
		onStart: func(op Op, depth int) { mu.Lock(); starts = append(starts, op); mu.Unlock() },
		onEnd:   func(sp Span) { mu.Lock(); ends = append(ends, sp); mu.Unlock() },
	}
	c := NewCollector()
	c.SetHandler(h)
	c.Start(OpExpand).SetLabel("expand").Rows(5, 9).End()
	if len(starts) != 1 || starts[0] != OpExpand {
		t.Fatalf("starts = %v", starts)
	}
	if len(ends) != 1 || ends[0].Label != "expand" || ends[0].RowsOut != 9 {
		t.Fatalf("ends = %+v", ends)
	}
}

func TestCollectorConcurrency(t *testing.T) {
	c := NewCollector()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				c.Start(OpExpand).Rows(1, 1).End()
				c.NFAEvent(i%2 == 0)
				c.Mark()
				c.Stats()
			}
		}()
	}
	wg.Wait()
	st := c.Stats()
	if st.Op(OpExpand).Count != 8*200 {
		t.Fatalf("count = %d, want %d", st.Op(OpExpand).Count, 8*200)
	}
	if st.NFAHits+st.NFAMisses != 8*200 {
		t.Fatalf("nfa events = %d", st.NFAHits+st.NFAMisses)
	}
}

func TestOpString(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < numOps; i++ {
		s := Op(i).String()
		if s == "" || s == "op?" || seen[s] {
			t.Fatalf("Op(%d).String() = %q", i, s)
		}
		seen[s] = true
	}
	if Op(200).String() != "op?" {
		t.Fatalf("out-of-range Op string = %q", Op(200).String())
	}
}

func TestRegistryObserveSnapshot(t *testing.T) {
	r := NewRegistry()
	c := NewCollector()
	c.Start(OpScan).Rows(0, 10).End()
	c.Start(OpReach).Frontier(5, 12).Rows(0, 4).End()
	c.NFAEvent(false)
	c.PropIndexEvent(true, 1)
	c.PropIndexEvent(true, 0)
	c.WalksFound(7)
	c.WalkBuilt()
	r.Observe(c.Stats(), nil)
	r.Observe(Stats{}, errors.New("boom"))

	m := r.Snapshot()
	if m.Queries != 2 || m.Errors != 1 {
		t.Fatalf("queries/errors = %d/%d", m.Queries, m.Errors)
	}
	sc, ok := m.Operators["scan"]
	if !ok || sc.Count != 1 || sc.RowsOut != 10 {
		t.Fatalf("scan metrics = %+v (ok=%v)", sc, ok)
	}
	rc := m.Operators["reach"]
	if rc.Pops != 5 || rc.Arrivals != 12 {
		t.Fatalf("reach metrics = %+v", rc)
	}
	if m.NFACacheMisses != 1 {
		t.Fatalf("nfa misses = %d", m.NFACacheMisses)
	}
	if m.PropIndexSeeks != 2 || m.PropIndexBuilds != 1 {
		t.Fatalf("index seeks/builds = %d/%d", m.PropIndexSeeks, m.PropIndexBuilds)
	}
	if m.RPQWalksFound != 7 || m.RPQWalksBuilt != 1 {
		t.Fatalf("walks found/built = %d/%d", m.RPQWalksFound, m.RPQWalksBuilt)
	}
	if _, present := m.Operators["join"]; present {
		t.Fatal("zero-count operator exported")
	}
	// Nil registry is a no-op.
	var nr *Registry
	nr.Observe(c.Stats(), nil)
	if s := nr.Snapshot(); s.Queries != 0 {
		t.Fatalf("nil registry snapshot = %+v", s)
	}
}
