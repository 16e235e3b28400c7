package plancache

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
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
		{Text: "q", Default: "company_graph"},
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

// TestProbeCountsOnlyTakenHits: Probe counts and refreshes an entry it
// returns, and leaves the counters alone when the key is absent or the
// caller refuses the value, so the GetOrCompile that follows counts the
// outcome once.
func TestProbeCountsOnlyTakenHits(t *testing.T) {
	c := New(2)
	take := func(any) bool { return true }
	if _, _, ok := c.Probe(key("q1"), take); ok {
		t.Fatal("probe of an empty cache hit")
	}
	c.GetOrCompile(key("q1"), func() (any, error) { return "q1", nil })
	c.GetOrCompile(key("q2"), func() (any, error) { return "q2", nil })
	if _, _, ok := c.Probe(key("q1"), func(any) bool { return false }); ok {
		t.Fatal("refused value returned")
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 2 {
		t.Fatalf("after the refused probe: %+v", st)
	}
	if v, _, ok := c.Probe(key("q1"), take); !ok || v != "q1" {
		t.Fatalf("probe = %v, %v", v, ok)
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("after the taken probe: %+v", st)
	}
	// The taken probe made q1 the most recent entry: q2 is evicted next.
	c.GetOrCompile(key("q3"), func() (any, error) { return "q3", nil })
	if _, ok := c.Get(key("q1")); !ok {
		t.Fatal("probed q1 evicted")
	}
	if ens := c.Entries(); ens[1].Hits != 1 {
		t.Fatalf("q1 hits = %d", ens[1].Hits)
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
		// An unterminated comment is a syntax error and keeps its text.
		{"MATCH (n)  /* open", "MATCH (n) /* open"},
		{"MATCH (n) /* closed */ /* open\n", "MATCH (n) /* open\n"},
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

// TestNormalizeMatchesReference: Normalize, which copies runs, gives
// the normal form of the byte-at-a-time normaliser it replaced (kept
// below as the reference) on random texts of the bytes that matter to
// it, and leaves a text it reports as already normal unchanged.
func TestNormalizeMatchesReference(t *testing.T) {
	const alphabet = " \t\n#/*'\"\\ab;("
	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, 0, 24)
	for i := 0; i < 200_000; i++ {
		buf = buf[:0]
		for n := rng.Intn(24); n > 0; n-- {
			buf = append(buf, alphabet[rng.Intn(len(alphabet))])
		}
		src := string(buf)
		got, want := Normalize(src), referenceNormalize(src)
		if got != want {
			t.Fatalf("Normalize(%q) = %q, reference %q", src, got, want)
		}
		if normalized(src) && got != src {
			t.Fatalf("normalized(%q) but Normalize changed it to %q", src, got)
		}
		if again := Normalize(got); again != got {
			t.Fatalf("Normalize(%q) = %q is not a fixed point: %q", src, got, again)
		}
	}
}

// referenceNormalize is the byte-at-a-time normaliser Normalize
// replaced, with the one intended change: an unterminated block
// comment keeps its text.
func referenceNormalize(src string) string {
	var sb strings.Builder
	sb.Grow(len(src))
	pendingSpace := false
	i, n := 0, len(src)
	for i < n {
		ch := src[i]
		switch {
		case ch == ' ' || ch == '\t' || ch == '\n' || ch == '\r' || ch == '\v' || ch == '\f':
			pendingSpace = true
			i++
		case ch == '#':
			for i < n && src[i] != '\n' {
				i++
			}
			pendingSpace = true
		case ch == '/' && i+1 < n && src[i+1] == '*':
			if !strings.Contains(src[i+2:], "*/") {
				if pendingSpace && sb.Len() > 0 {
					sb.WriteByte(' ')
				}
				sb.WriteString(src[i:])
				return sb.String()
			}
			i += 2
			for i < n {
				if src[i] == '*' && i+1 < n && src[i+1] == '/' {
					i += 2
					break
				}
				i++
			}
			pendingSpace = true
		case ch == '\'' || ch == '"':
			if pendingSpace && sb.Len() > 0 {
				sb.WriteByte(' ')
			}
			pendingSpace = false
			quote := ch
			sb.WriteByte(ch)
			i++
			for i < n {
				c := src[i]
				sb.WriteByte(c)
				i++
				if c == '\\' && i < n {
					sb.WriteByte(src[i])
					i++
					continue
				}
				if c == quote {
					// Doubled quote is an escaped quote; stay inside.
					if i < n && src[i] == quote {
						sb.WriteByte(src[i])
						i++
						continue
					}
					break
				}
			}
		default:
			if pendingSpace && sb.Len() > 0 {
				sb.WriteByte(' ')
			}
			pendingSpace = false
			sb.WriteByte(ch)
			i++
		}
	}
	return sb.String()
}
