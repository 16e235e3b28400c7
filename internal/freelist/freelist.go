// Package freelist recycles per-request scratch — search tables, builder
// bitsets, span collectors, reply buffers — between requests.
//
// A List is a store the garbage collector never empties, unlike the
// standard library's pool, which drops its contents at every second
// collection. A path request allocates megabytes, so the collector
// runs every few requests, and a request after an emptied pool regrows
// from nothing the very buffers the pool was meant to keep. A List
// holds at most runtime.GOMAXPROCS(0) items — one per goroutine that
// can run at once — and drops what comes back beyond that, so what it
// retains is bounded by GOMAXPROCS times the largest item its caller
// is willing to put back (callers drop buffers past 16 MiB first).
package freelist

import (
	"runtime"
	"sync"
)

// List is a bounded free list of *T. The zero value is empty and
// ready; Get makes a new T when the list is empty. It is safe for
// concurrent use.
type List[T any] struct {
	mu    sync.Mutex
	items []*T
}

// Get returns an item from the list, or a new zero T when it is empty.
func (l *List[T]) Get() *T {
	l.mu.Lock()
	if n := len(l.items); n > 0 {
		x := l.items[n-1]
		l.items[n-1] = nil
		l.items = l.items[:n-1]
		l.mu.Unlock()
		return x
	}
	l.mu.Unlock()
	return new(T)
}

// Put returns x to the list, or lets the collector have it when the
// list already holds runtime.GOMAXPROCS(0) items.
func (l *List[T]) Put(x *T) {
	l.mu.Lock()
	if len(l.items) < runtime.GOMAXPROCS(0) {
		l.items = append(l.items, x)
	}
	l.mu.Unlock()
}
