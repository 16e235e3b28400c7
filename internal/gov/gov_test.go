package gov

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"gcore/internal/faultinject"
)

func contains(s, sub string) bool { return strings.Contains(s, sub) }

func TestCheckpointLiveContext(t *testing.T) {
	g := New(context.Background(), Limits{})
	for i := 0; i < 10; i++ {
		if err := g.Checkpoint("test.site"); err != nil {
			t.Fatalf("live context checkpoint failed: %v", err)
		}
	}
}

func TestCheckpointCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	g := New(ctx, Limits{})
	cancel()
	err := g.Checkpoint("test.site")
	qe, ok := AsQueryError(err)
	if !ok || qe.Kind != KindCanceled {
		t.Fatalf("want KindCanceled, got %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cause not context.Canceled: %v", err)
	}
}

func TestCheckpointTimeout(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-ctx.Done()
	g := New(ctx, Limits{Timeout: time.Nanosecond})
	err := g.Checkpoint("test.site")
	qe, ok := AsQueryError(err)
	if !ok || qe.Kind != KindTimeout {
		t.Fatalf("want KindTimeout, got %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cause not DeadlineExceeded: %v", err)
	}
}

func TestNilGovernorIsUngoverned(t *testing.T) {
	var g *Governor
	if err := g.Checkpoint("test.site"); err != nil {
		t.Fatalf("nil governor checkpoint: %v", err)
	}
	if err := g.GrowFrontier(1 << 30); err != nil {
		t.Fatalf("nil governor frontier: %v", err)
	}
	if err := g.AddResults(1 << 30); err != nil {
		t.Fatalf("nil governor results: %v", err)
	}
}

func TestFrontierBudget(t *testing.T) {
	g := New(context.Background(), Limits{MaxPathFrontier: 100})
	if err := g.GrowFrontier(100); err != nil {
		t.Fatalf("within budget: %v", err)
	}
	err := g.GrowFrontier(1)
	qe, ok := AsQueryError(err)
	if !ok || qe.Kind != KindBudget {
		t.Fatalf("want KindBudget, got %v", err)
	}
	for _, want := range []string{"frontier limit", "limit 100", "MaxPathFrontier"} {
		if !contains(qe.Msg, want) {
			t.Errorf("budget message %q missing %q", qe.Msg, want)
		}
	}
	// The message names the limit, not how many states were explored.
	if contains(qe.Msg, "explored") {
		t.Errorf("budget message %q reports an explored count", qe.Msg)
	}
}

func TestResultsBudget(t *testing.T) {
	g := New(context.Background(), Limits{MaxResultElements: 5})
	if err := g.AddResults(5); err != nil {
		t.Fatalf("within budget: %v", err)
	}
	err := g.AddResults(2)
	qe, ok := AsQueryError(err)
	if !ok || qe.Kind != KindBudget {
		t.Fatalf("want KindBudget, got %v", err)
	}
	if !contains(qe.Msg, "result limit") || !contains(qe.Msg, "built 7") {
		t.Errorf("budget message %q lacks limit/progress", qe.Msg)
	}
}

func TestBindingsError(t *testing.T) {
	g := New(context.Background(), Limits{MaxBindings: 10})
	qe := g.BindingsError(12)
	if qe.Kind != KindBudget {
		t.Fatalf("want KindBudget, got %v", qe.Kind)
	}
	if !contains(qe.Msg, "binding limit") || !contains(qe.Msg, "reached 12") {
		t.Errorf("bindings message %q lacks limit/progress", qe.Msg)
	}
}

func TestPanicError(t *testing.T) {
	qe := PanicError("boom", "CONSTRUCT (n) MATCH (n)")
	if qe.Kind != KindInternal {
		t.Fatalf("want KindInternal, got %v", qe.Kind)
	}
	if !contains(qe.Error(), "boom") || !contains(qe.Error(), "CONSTRUCT (n) MATCH (n)") {
		t.Errorf("panic error %q lacks panic value or statement", qe.Error())
	}
}

func TestCheckpointRunsFaultProbe(t *testing.T) {
	faultinject.Arm()
	defer faultinject.Disarm()
	injected := fmt.Errorf("injected")
	faultinject.Set("test.fault", faultinject.Action{Err: injected})
	g := New(context.Background(), Limits{})
	if err := g.Checkpoint("test.fault"); !errors.Is(err, injected) {
		t.Fatalf("want injected error, got %v", err)
	}
	if faultinject.Hits("test.fault") != 1 {
		t.Fatalf("hit count = %d, want 1", faultinject.Hits("test.fault"))
	}
}
