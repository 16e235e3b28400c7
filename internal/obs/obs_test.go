package obs

import (
	"encoding/json"
	"errors"
	"sync"
	"testing"
	"time"
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
	if got := c.Stats(); got != (Stats{}) {
		t.Fatalf("nil collector stats = %+v", got)
	}
	if c.Spans() != nil {
		t.Fatal("nil collector returned spans")
	}
}

func TestSpanRecording(t *testing.T) {
	var c Collector
	c.Reset(nil, true)
	sp := c.Start(OpScan)
	if !sp.Verbose() {
		t.Fatal("Reset(nil, true) should record labels")
	}
	sp.SetLabel("node scan (x:Person)").Rows(0, 42).Indexed(true).End()

	c.EnterSub()
	c.Start(OpScan).Rows(7, 7).Seek("pid").End()
	c.ExitSub()

	c.Start(OpShortest).Frontier(10, 25).Rows(3, 5).Fail()

	spans := c.Spans()
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
	if st.Ops[OpScan].Count != 2 || st.Ops[OpScan].RowsOut != 49 {
		t.Fatalf("scan stat = %+v", st.Ops[OpScan])
	}
	if st.Ops[OpShortest].Pops != 10 {
		t.Fatalf("shortest stat = %+v", st.Ops[OpShortest])
	}
}

// TestStatsAfterReset: a pooled collector, reset between statements,
// reports exactly the statement recorded since its last Reset.
func TestStatsAfterReset(t *testing.T) {
	var c Collector
	c.Start(OpScan).Rows(0, 5).End()
	c.NFAEvent(false)
	c.PropIndexEvent(true, 1)
	c.Reset(nil, false)
	c.Start(OpScan).Rows(5, 3).End()
	c.NFAEvent(true)
	c.CSREvent(true)
	c.RecordBudget(100, 9)
	c.PropIndexEvent(true, 0)
	c.PropIndexEvent(false, 2)
	c.WalksFound(4)
	c.WalkBuilt()

	st := c.Stats()
	if st.Ops[OpScan].Count != 1 || st.Ops[OpScan].RowsOut != 3 {
		t.Fatalf("scan stat = %+v", st.Ops[OpScan])
	}
	want := map[Counter]int64{
		NFAHits: 1, CSRReuses: 1, FrontierUsed: 100, ResultsUsed: 9,
		PropIndexSeeks: 1, PropIndexBuilds: 2, WalksFound: 4, WalksBuilt: 1,
	}
	for k := Counter(0); int(k) < numCounters; k++ {
		if st.Counts[k] != want[k] {
			t.Fatalf("%s = %d, want %d", k, st.Counts[k], want[k])
		}
	}
	if got := len(c.Spans()); got != 1 {
		t.Fatalf("Spans = %d spans, want 1", got)
	}
}

func TestResetClearsEverything(t *testing.T) {
	var c Collector
	c.Reset(nil, true)
	c.Start(OpJoin).Rows(4, 2).End()
	c.NFAEvent(true)
	c.PropIndexEvent(true, 1)
	c.WalksFound(2)
	c.WalkBuilt()
	c.EnterSub()
	c.Reset(nil, false)
	if st := c.Stats(); st != (Stats{}) {
		t.Fatalf("stats after reset = %+v", st)
	}
	if len(c.Spans()) != 0 {
		t.Fatalf("spans after reset = %+v", c.Spans())
	}
	if c.Start(OpScan).Verbose() {
		t.Fatal("span verbose after Reset(nil, false)")
	}
	if c.depth != 0 {
		t.Fatalf("depth after reset = %d", c.depth)
	}
	c.Reset(handlerFunc{}, true)
	if !c.Start(OpScan).Verbose() {
		t.Fatal("Reset(h, true) should record labels")
	}
}

// TestEveryCounterReachesMetrics: each event method, called once, shows
// in the statement's Stats under its counter and, once observed, in
// the registry's Metrics JSON under the counter's name. Every counter
// must be reached by some event.
func TestEveryCounterReachesMetrics(t *testing.T) {
	events := []struct {
		name string
		call func(c *Collector)
		want map[Counter]int64
	}{
		{"NFAEvent hit", func(c *Collector) { c.NFAEvent(true) }, map[Counter]int64{NFAHits: 1}},
		{"NFAEvent miss", func(c *Collector) { c.NFAEvent(false) }, map[Counter]int64{NFAMisses: 1}},
		{"CSREvent hit", func(c *Collector) { c.CSREvent(true) }, map[Counter]int64{CSRReuses: 1}},
		{"CSREvent miss", func(c *Collector) { c.CSREvent(false) }, map[Counter]int64{CSRBuilds: 1}},
		{"RecordBudget", func(c *Collector) { c.RecordBudget(6, 7) }, map[Counter]int64{FrontierUsed: 6, ResultsUsed: 7}},
		{"PropColEvent", func(c *Collector) { c.PropColEvent(8, 2) }, map[Counter]int64{PropColHits: 8, PropColFallbacks: 2}},
		{"PropIndexEvent", func(c *Collector) { c.PropIndexEvent(true, 3) }, map[Counter]int64{PropIndexSeeks: 1, PropIndexBuilds: 3}},
		{"WalksFound", func(c *Collector) { c.WalksFound(9) }, map[Counter]int64{WalksFound: 9}},
		{"WalkBuilt", func(c *Collector) { c.WalkBuilt() }, map[Counter]int64{WalksBuilt: 1}},
		{"PlanCacheEvent hit", func(c *Collector) { c.PlanCacheEvent(true, 11*time.Nanosecond) },
			map[Counter]int64{PlanCacheHits: 1, PlanCacheCompileNS: 11}},
		{"PlanCacheEvent miss", func(c *Collector) { c.PlanCacheEvent(false, 13*time.Nanosecond) },
			map[Counter]int64{PlanCacheMisses: 1, PlanCacheCompileNS: 13}},
	}
	reached := map[Counter]bool{}
	for _, ev := range events {
		var c Collector
		ev.call(&c)
		st := c.Stats()
		r := NewRegistry()
		r.Observe(st, nil)
		raw, err := json.Marshal(r.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		var fields map[string]any
		if err := json.Unmarshal(raw, &fields); err != nil {
			t.Fatal(err)
		}
		for k := Counter(0); int(k) < numCounters; k++ {
			want := ev.want[k]
			if st.Counts[k] != want {
				t.Errorf("%s: Stats %s = %d, want %d", ev.name, k, st.Counts[k], want)
			}
			if want == 0 {
				continue
			}
			reached[k] = true
			if got, ok := fields[k.String()].(float64); !ok || int64(got) != want {
				t.Errorf("%s: Metrics JSON %q = %v, want %d", ev.name, k, fields[k.String()], want)
			}
		}
		// Every snapshot built is a full build; the metric keeps its name.
		if fields["snapshot_full_builds"] != fields[CSRBuilds.String()] {
			t.Errorf("%s: snapshot_full_builds = %v, csr_builds = %v", ev.name, fields["snapshot_full_builds"], fields[CSRBuilds.String()])
		}
	}
	for k := Counter(0); int(k) < numCounters; k++ {
		if !reached[k] {
			t.Errorf("no event reaches counter %s", k)
		}
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
	var c Collector
	c.Reset(h, true)
	c.Start(OpExpand).SetLabel("expand").Rows(5, 9).End()
	if len(starts) != 1 || starts[0] != OpExpand {
		t.Fatalf("starts = %v", starts)
	}
	if len(ends) != 1 || ends[0].Label != "expand" || ends[0].RowsOut != 9 {
		t.Fatalf("ends = %+v", ends)
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
	names := map[string]bool{}
	for k := Counter(0); int(k) < numCounters; k++ {
		s := k.String()
		if s == "" || s == "counter?" || names[s] {
			t.Fatalf("Counter(%d).String() = %q", k, s)
		}
		names[s] = true
	}
}

func TestRegistryObserveSnapshot(t *testing.T) {
	r := NewRegistry()
	var c Collector
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
