package faultinject

import (
	"errors"
	"strings"
	"sync"
	"testing"
)

func TestDisarmedIsNoop(t *testing.T) {
	Disarm()
	if err := Check(SiteCoreScan); err != nil {
		t.Fatalf("disarmed probe returned %v", err)
	}
	if Hits(SiteCoreScan) != 0 {
		t.Fatal("disarmed probe counted a hit")
	}
}

func TestErrorAction(t *testing.T) {
	Arm()
	defer Disarm()
	want := errors.New("injected")
	Set(SiteCoreScan, Action{Err: want})
	if err := Check(SiteCoreScan); !errors.Is(err, want) {
		t.Fatalf("got %v, want injected error", err)
	}
	if Hits(SiteCoreScan) != 1 {
		t.Fatalf("hits = %d, want 1", Hits(SiteCoreScan))
	}
	// Other sites just count.
	if err := Check(SiteCoreExtend); err != nil {
		t.Fatalf("unset site returned %v", err)
	}
	if Hits(SiteCoreExtend) != 1 {
		t.Fatalf("unset site hits = %d, want 1", Hits(SiteCoreExtend))
	}
}

func TestPanicAction(t *testing.T) {
	Arm()
	defer Disarm()
	Set(SiteParChunk, Action{Panic: true})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("probe did not panic")
		}
		if !strings.Contains(r.(string), SiteParChunk) {
			t.Fatalf("panic value %v does not name the site", r)
		}
	}()
	_ = Check(SiteParChunk)
}

func TestHookAction(t *testing.T) {
	Arm()
	defer Disarm()
	ran := false
	Set(SiteRPQShortest, Action{Fn: func() { ran = true }})
	if err := Check(SiteRPQShortest); err != nil {
		t.Fatalf("hook-only probe returned %v", err)
	}
	if !ran {
		t.Fatal("hook did not run")
	}
}

func TestConcurrentProbes(t *testing.T) {
	Arm()
	defer Disarm()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				_ = Check(SiteCoreFilter)
			}
		}()
	}
	wg.Wait()
	if got := Hits(SiteCoreFilter); got != 8000 {
		t.Fatalf("hits = %d, want 8000", got)
	}
}

func TestAllSitesDistinct(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range AllSites() {
		if seen[s] {
			t.Fatalf("duplicate site %q", s)
		}
		seen[s] = true
	}
	if len(seen) < 10 {
		t.Fatalf("expected at least 10 sites, got %d", len(seen))
	}
}
