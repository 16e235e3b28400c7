// Package plancache is a bounded LRU cache for compiled statements:
// parsed ASTs plus whatever the evaluator wants to remember alongside
// them (selectivity plans, compiled path-expression NFAs). Repeated
// query traffic is overwhelmingly repeated shapes, so the cache turns
// the per-statement lex/parse/analyze/plan cost into a map probe.
//
// A key is the normalised statement text and the session's
// default-graph override: the compiled form depends on nothing else.
// Catalog state stays out of the key, so a graph mutation or a GRAPH
// VIEW registration leaves every cached plan in place; the one
// graph-dependent artifact an entry keeps, a chain plan, revalidates
// itself against the graph it was planned for (internal/core).
//
// Concurrent misses of the same key are collapsed by a singleflight:
// the first caller compiles, the rest wait and share the result.
// Compile errors are returned to every waiter but never cached.
package plancache

import (
	"container/list"
	"strings"
	"sync"
	"time"
)

// DefaultCapacity bounds the cache when the caller does not choose.
const DefaultCapacity = 256

// Key identifies one compiled statement shape.
type Key struct {
	// Text is the normalised statement source (see Normalize).
	Text string
	// Default is the session's default-graph override ("" = the
	// catalog default). Sessions with different implicit graphs keep
	// separate entries, so each keeps its own chain plans instead of
	// re-planning the shared one on every alternation.
	Default string
}

// Stats is a point-in-time view of cache effectiveness.
type Stats struct {
	Hits, Misses, Evictions int64
	// CompileTime is the total time spent compiling misses.
	CompileTime time.Duration
	Entries     int
	Capacity    int
}

// EntryInfo describes one live entry, for introspection (REPL \cache).
type EntryInfo struct {
	Text    string
	Hits    int64
	Compile time.Duration
}

type entry struct {
	key     Key
	val     any
	compile time.Duration
	hits    int64
}

type flight struct {
	done chan struct{}
	val  any
	d    time.Duration
	err  error
}

// Cache is the bounded LRU; safe for concurrent use.
type Cache struct {
	mu      sync.Mutex
	cap     int
	ll      *list.List // front = most recently used
	items   map[Key]*list.Element
	flights map[Key]*flight

	hits, misses, evictions int64
	compileNS               int64
}

// New creates a cache bounded to capacity entries; capacity <= 0 uses
// DefaultCapacity.
func New(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Cache{
		cap:     capacity,
		ll:      list.New(),
		items:   make(map[Key]*list.Element),
		flights: make(map[Key]*flight),
	}
}

// GetOrCompile returns the cached value for k, or runs compile once —
// even under concurrent misses of the same key — and caches its
// result. It reports the entry's compile duration (the cost a hit
// avoided, or a miss paid) and whether the call was served from cache.
// Waiters that share another caller's in-flight compilation count as
// hits: they did not compile. Errors are propagated, never cached.
func (c *Cache) GetOrCompile(k Key, compile func() (any, error)) (val any, d time.Duration, hit bool, err error) {
	c.mu.Lock()
	if el, ok := c.items[k]; ok {
		c.ll.MoveToFront(el)
		en := el.Value.(*entry)
		en.hits++
		c.hits++
		c.mu.Unlock()
		return en.val, en.compile, true, nil
	}
	if f, ok := c.flights[k]; ok {
		c.mu.Unlock()
		<-f.done
		if f.err != nil {
			return nil, 0, false, f.err
		}
		c.mu.Lock()
		c.hits++
		c.mu.Unlock()
		return f.val, f.d, true, nil
	}
	f := &flight{done: make(chan struct{})}
	c.flights[k] = f
	c.mu.Unlock()

	start := time.Now()
	f.val, f.err = compile()
	f.d = time.Since(start)

	c.mu.Lock()
	delete(c.flights, k)
	c.misses++
	c.compileNS += int64(f.d)
	if f.err == nil {
		c.insertLocked(k, f.val, f.d)
	}
	c.mu.Unlock()
	close(f.done)
	if f.err != nil {
		return nil, 0, false, f.err
	}
	return f.val, f.d, false, nil
}

// Probe returns the cached value for k when accept takes it, and
// counts the hit; it never compiles. When k is absent (or only in
// flight) or accept refuses the value, it counts nothing and the caller
// goes on to GetOrCompile, which counts the outcome once.
func (c *Cache) Probe(k Key, accept func(any) bool) (val any, d time.Duration, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		return nil, 0, false
	}
	en := el.Value.(*entry)
	if !accept(en.val) {
		return nil, 0, false
	}
	c.ll.MoveToFront(el)
	en.hits++
	c.hits++
	return en.val, en.compile, true
}

// Get peeks at k without affecting hit/miss counters or LRU order.
func (c *Cache) Get(k Key) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		return el.Value.(*entry).val, true
	}
	return nil, false
}

func (c *Cache) insertLocked(k Key, v any, compile time.Duration) {
	if el, ok := c.items[k]; ok {
		// A racing flight may have inserted between unlock and lock;
		// keep the existing entry current.
		c.ll.MoveToFront(el)
		return
	}
	c.items[k] = c.ll.PushFront(&entry{key: k, val: v, compile: compile})
	for c.ll.Len() > c.cap {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.items, back.Value.(*entry).key)
		c.evictions++
	}
}

// Stats returns current counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:        c.hits,
		Misses:      c.misses,
		Evictions:   c.evictions,
		CompileTime: time.Duration(c.compileNS),
		Entries:     c.ll.Len(),
		Capacity:    c.cap,
	}
}

// Entries lists live entries, most recently used first.
func (c *Cache) Entries() []EntryInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]EntryInfo, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		en := el.Value.(*entry)
		out = append(out, EntryInfo{Text: en.key.Text, Hits: en.hits, Compile: en.compile})
	}
	return out
}

// Normalize canonicalises statement text for keying: comments are
// dropped and whitespace runs collapse to a single space, except
// inside quoted strings, which are preserved byte-for-byte. Keyword
// case is left alone — identifiers are case-sensitive and a cheap
// normaliser cannot tell the two apart; differently-cased keywords
// just occupy separate entries.
func Normalize(src string) string {
	if normalized(src) {
		return src
	}
	var sb strings.Builder
	sb.Grow(len(src))
	pendingSpace := false
	// emit writes one run of the normal form, after the single space
	// that stands for the blanks and comments before it.
	emit := func(run string) {
		if pendingSpace && sb.Len() > 0 {
			sb.WriteByte(' ')
		}
		pendingSpace = false
		sb.WriteString(run)
	}
	i, n := 0, len(src)
	for i < n {
		switch ch := src[i]; {
		case blank[ch]:
			pendingSpace = true
			i++
		case ch == '#':
			if end := strings.IndexByte(src[i:], '\n'); end >= 0 {
				i += end
			} else {
				i = n
			}
			pendingSpace = true
		case ch == '/' && i+1 < n && src[i+1] == '*':
			end := strings.Index(src[i+2:], "*/")
			if end < 0 {
				// An unterminated comment is a syntax error: keep it, so
				// the text never shares a key with the statement before it.
				emit(src[i:])
				return sb.String()
			}
			i += 2 + end + 2
			pendingSpace = true
		case ch == '\'' || ch == '"':
			// A quoted string is kept byte-for-byte. A backslash escapes
			// the next byte, and a doubled quote stays inside.
			j := i + 1
			for j < n {
				c := src[j]
				j++
				if c == '\\' && j < n {
					j++
				} else if c == ch {
					if j < n && src[j] == ch {
						j++
						continue
					}
					break
				}
			}
			emit(src[i:j])
			i = j
		default:
			// A run goes on through single spaces between plain bytes:
			// they are already in normal form.
			j := i + 1
			for j < n && (!stop[src[j]] || src[j] == ' ' && j+1 < n && !stop[src[j+1]]) {
				j++
			}
			emit(src[i:j])
			i = j
		}
	}
	return sb.String()
}

// blank marks the bytes Normalize collapses, and stop the bytes that
// end a run it copies unchanged: blanks, and the first byte of a
// comment or a quoted string.
var blank, stop = func() (blank, stop [256]bool) {
	for _, c := range []byte(" \t\n\r\v\f") {
		blank[c], stop[c] = true, true
	}
	for _, c := range []byte("#/'\"") {
		stop[c] = true
	}
	return blank, stop
}()

// normalized reports whether src is already in normal form, so
// Normalize can return it without copying — the common case on the
// hot probe path, where the same statement text arrives repeatedly.
// Conservative: a double space or a '#' inside a string literal sends
// the text down the slow path, which preserves it correctly.
func normalized(src string) bool {
	n := len(src)
	if n == 0 {
		return true
	}
	if src[0] == ' ' || src[n-1] == ' ' {
		return false
	}
	for i := 0; i < n; i++ {
		switch c := src[i]; {
		case !stop[c] || c == '\'' || c == '"':
		case c == ' ': // not the last byte: that one is not a space
			if src[i+1] == ' ' {
				return false
			}
		case c == '/':
			if i+1 < n && src[i+1] == '*' {
				return false
			}
		default:
			return false
		}
	}
	return true
}
