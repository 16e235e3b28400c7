package freelist

import (
	"runtime"
	"sync"
	"testing"
)

func TestListSurvivesGCAndIsBounded(t *testing.T) {
	var l List[[]byte]
	x := l.Get()
	*x = make([]byte, 0, 1<<10)
	l.Put(x)
	runtime.GC()
	runtime.GC()
	if y := l.Get(); y != x || cap(*y) != 1<<10 {
		t.Fatalf("Get after GC returned %p (cap %d), want the item put back, %p", y, cap(*y), x)
	}
	n := runtime.GOMAXPROCS(0)
	for i := 0; i < n+3; i++ {
		l.Put(new([]byte))
	}
	if len(l.items) != n {
		t.Fatalf("list holds %d items after %d puts, want GOMAXPROCS = %d", len(l.items), n+3, n)
	}
}

func TestListConcurrentGetPut(t *testing.T) {
	var l List[[]int]
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				x := l.Get()
				*x = append((*x)[:0], i)
				l.Put(x)
			}
		}()
	}
	wg.Wait()
	if n := len(l.items); n > runtime.GOMAXPROCS(0) {
		t.Fatalf("list holds %d items, more than GOMAXPROCS", n)
	}
}
