package gcore_test

import (
	"runtime"
	"strings"
	"testing"

	"gcore"
)

// TestScriptFrontDoorLinear: the work a script costs before its first
// statement runs grows linearly with the script. Every statement of
// the script targets a graph that does not exist, so statement 1 fails
// at run time and only the front door (lex, parse, classify) runs over
// the whole text. The allocated bytes per source byte at 4 000
// statements must stay within 1.5× of the figure at 1 000; a front door
// that re-reads or re-copies the text before each statement grows
// with the square of the script. Bytes, not wall time, keep the bound
// independent of the machine.
func TestScriptFrontDoorLinear(t *testing.T) {
	const stmt = `CONSTRUCT (x:X) MATCH (n) ON nope;`
	perByte := func(n int) float64 {
		eng := gcore.NewEngine()
		script := strings.Repeat(stmt+"\n", n)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := eng.EvalScript(script)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "statement 1 at 1:1") {
			t.Fatalf("%d statements: err = %v, want statement 1 to fail", n, err)
		}
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(len(script))
	}
	perByte(100) // warm the engine's one-time allocations
	small, large := perByte(1000), perByte(4000)
	t.Logf("%.0f B per source byte at 1 000 statements, %.0f at 4 000 (%.2f×)", small, large, large/small)
	if large > 1.5*small {
		t.Fatalf("front door allocated %.0f B per source byte at 4 000 statements, %.0f at 1 000 (%.2f×, want ≤ 1.5×)",
			large, small, large/small)
	}
}

// TestScriptSyntaxErrorRunsNothing: a syntax error anywhere in a script
// runs nothing, not even the statements before it, and the error
// names the line and column where it was found.
func TestScriptSyntaxErrorRunsNothing(t *testing.T) {
	eng := newEngine(t)
	before := eng.Metrics()
	_, err := eng.EvalScript(`GRAPH VIEW v AS (CONSTRUCT (n) MATCH (n:Person));
SELECT n.firstName AS name MATCH (n) ON v;
SELECT n.firstName AS name MATCH (n) ON v WHERE ;`)
	if err == nil {
		t.Fatal("script with a syntax error succeeded")
	}
	if !strings.Contains(err.Error(), "parse error at 3:49:") {
		t.Errorf("syntax error not located at line 3, column 49: %v", err)
	}
	if _, ok := eng.Graph("v"); ok {
		t.Error("the view of statement 1 was registered")
	}
	after := eng.Metrics()
	if after.ReadStatements != before.ReadStatements || after.WriteStatements != before.WriteStatements {
		t.Errorf("statements counted: reads %d→%d, writes %d→%d",
			before.ReadStatements, after.ReadStatements, before.WriteStatements, after.WriteStatements)
	}
}
