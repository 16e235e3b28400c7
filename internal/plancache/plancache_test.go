package plancache

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func key(text string) Key { return Key{Text: text} }

func TestGetOrCompileHitMiss(t *testing.T) {
	c := New(4)
	compiles := 0
	compile := func() (any, error) { compiles++; return "plan", nil }

	v, _, hit, err := c.GetOrCompile(key("q1"), compile)
	if err != nil || hit || v != "plan" {
		t.Fatalf("first probe: v=%v hit=%v err=%v", v, hit, err)
	}
	v, _, hit, err = c.GetOrCompile(key("q1"), compile)
	if err != nil || !hit || v != "plan" {
		t.Fatalf("second probe: v=%v hit=%v err=%v", v, hit, err)
	}
	if compiles != 1 {
		t.Fatalf("compiles = %d", compiles)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestKeyComponentsSeparateEntries(t *testing.T) {
	c := New(8)
	keys := []Key{
		{Text: "q"},
		{Text: "q", CatalogVersion: 1},
		{Text: "q", Generation: 1},
		{Text: "q", LimitsFP: "x"},
	}
	for _, k := range keys {
		k := k
		if _, _, hit, _ := c.GetOrCompile(k, func() (any, error) { return k, nil }); hit {
			t.Fatalf("key %+v unexpectedly hit", k)
		}
	}
	if st := c.Stats(); st.Entries != len(keys) {
		t.Fatalf("entries = %d, want %d", st.Entries, len(keys))
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(2)
	for i := 0; i < 3; i++ {
		text := fmt.Sprintf("q%d", i)
		c.GetOrCompile(key(text), func() (any, error) { return text, nil })
	}
	// q0 is the least recently used and must be gone; q1, q2 remain.
	if _, ok := c.Get(key("q0")); ok {
		t.Fatal("q0 survived eviction")
	}
	for _, text := range []string{"q1", "q2"} {
		if _, ok := c.Get(key(text)); !ok {
			t.Fatalf("%s evicted", text)
		}
	}
	if st := c.Stats(); st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v", st)
	}

	// A hit refreshes recency: touch q1, insert q3 → q2 is evicted.
	c.GetOrCompile(key("q1"), func() (any, error) { return nil, errors.New("must not compile") })
	c.GetOrCompile(key("q3"), func() (any, error) { return "q3", nil })
	if _, ok := c.Get(key("q1")); !ok {
		t.Fatal("recently used q1 evicted")
	}
	if _, ok := c.Get(key("q2")); ok {
		t.Fatal("q2 survived eviction")
	}
}

func TestErrorsNotCached(t *testing.T) {
	c := New(4)
	boom := errors.New("boom")
	compiles := 0
	for i := 0; i < 2; i++ {
		_, _, _, err := c.GetOrCompile(key("bad"), func() (any, error) { compiles++; return nil, boom })
		if !errors.Is(err, boom) {
			t.Fatalf("err = %v", err)
		}
	}
	if compiles != 2 {
		t.Fatalf("compiles = %d: a failed compile was cached", compiles)
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("entries = %d", st.Entries)
	}
}

func TestInvalidateAndRemove(t *testing.T) {
	c := New(4)
	c.GetOrCompile(key("a"), func() (any, error) { return 1, nil })
	c.GetOrCompile(key("b"), func() (any, error) { return 2, nil })
	c.Remove(key("a"))
	if _, ok := c.Get(key("a")); ok {
		t.Fatal("a survived Remove")
	}
}

// TestSingleflight: concurrent misses for one key compile exactly
// once; the waiters all observe the winner's value and count as hits.
func TestSingleflight(t *testing.T) {
	c := New(4)
	const goroutines = 16
	var compiles atomic.Int64
	release := make(chan struct{})
	var wg sync.WaitGroup
	values := make([]any, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, _, err := c.GetOrCompile(key("hot"), func() (any, error) {
				compiles.Add(1)
				<-release // hold the flight open until all goroutines queue
				return "compiled", nil
			})
			if err != nil {
				t.Errorf("goroutine %d: %v", i, err)
			}
			values[i] = v
		}(i)
	}
	// Wait until the flight exists, then give the other goroutines a
	// moment to pile onto it before releasing the compile.
	for {
		c.mu.Lock()
		n := len(c.flights)
		c.mu.Unlock()
		if n == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(5 * time.Millisecond)
	close(release)
	wg.Wait()
	if n := compiles.Load(); n != 1 {
		t.Fatalf("compiles = %d, want 1", n)
	}
	for i, v := range values {
		if v != "compiled" {
			t.Fatalf("goroutine %d saw %v", i, v)
		}
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != goroutines-1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestEntriesMRUFirst(t *testing.T) {
	c := New(4)
	c.GetOrCompile(key("first"), func() (any, error) { return 1, nil })
	c.GetOrCompile(key("second"), func() (any, error) { return 2, nil })
	c.GetOrCompile(key("first"), func() (any, error) { return nil, errors.New("no") })
	ens := c.Entries()
	if len(ens) != 2 || ens[0].Text != "first" || ens[1].Text != "second" {
		t.Fatalf("entries = %+v", ens)
	}
	if ens[0].Hits != 1 {
		t.Fatalf("first hits = %d", ens[0].Hits)
	}
}

func TestNormalize(t *testing.T) {
	cases := []struct{ in, want string }{
		{"MATCH (n)", "MATCH (n)"},
		{"  MATCH\t\t(n)\n", "MATCH (n)"},
		{"MATCH (n) # trailing comment\n", "MATCH (n)"},
		{"MATCH /* inline */ (n)", "MATCH (n)"},
		{"MATCH /* multi\nline */ (n)", "MATCH (n)"},
		{"MATCH (n) WHERE n.x = ' spaced  out '", "MATCH (n) WHERE n.x = ' spaced  out '"},
		{"WHERE n.x = '# not a comment'", "WHERE n.x = '# not a comment'"},
		{"WHERE n.x = 'it''s'", "WHERE n.x = 'it''s'"},
		{"WHERE n.x = 'a\\'b /* no */'", "WHERE n.x = 'a\\'b /* no */'"},
		{"", ""},
		{"# only a comment", ""},
	}
	for _, tc := range cases {
		if got := Normalize(tc.in); got != tc.want {
			t.Errorf("Normalize(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
	// Equivalent spellings share one normal form; different literals
	// must not.
	if Normalize("MATCH  (n)\n") != Normalize("MATCH (n)") {
		t.Error("whitespace variants diverge")
	}
	if Normalize("WHERE x = 'a'") == Normalize("WHERE x = 'a '") {
		t.Error("string literals were normalised")
	}
}
