package core_test

import (
	"sort"
	"strings"
	"testing"

	"gcore/internal/ppg"
	"gcore/internal/table"
)

// Correlated subqueries (EXISTS and pattern predicates) on the toy
// social graph: John knows Peter and Alice, Peter knows Celine and
// Frank (all both ways), Celine and Frank have an interest in Wagner,
// and all five live in Houston.

// firstNames returns the sorted firstName values of g's nodes.
func firstNames(t *testing.T, g *ppg.Graph) string {
	t.Helper()
	var names []string
	for n := range nodeNames(t, g, "firstName") {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ",")
}

// tableRows renders a result table one row per line, sorted.
func tableRows(tb *table.Table) string {
	var rows []string
	for _, r := range tb.Rows {
		cells := make([]string, len(r))
		for i, v := range r {
			cells[i] = v.String()
		}
		rows = append(rows, strings.Join(cells, " "))
	}
	sort.Strings(rows)
	return strings.Join(rows, "\n")
}

func TestCorrelatedSubqueries(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"exists over a UNION", `CONSTRUCT (n) MATCH (n:Person)
WHERE EXISTS (
  CONSTRUCT () MATCH (n)-[:hasInterest]->()
  UNION
  CONSTRUCT () MATCH (n)-[:knows]->(:Person {firstName='Alice'}) )`, "Celine,Frank,John"},
		{"exists over a MINUS", `CONSTRUCT (n) MATCH (n:Person)
WHERE EXISTS (
  CONSTRUCT (n) MATCH (n)-[:knows]->()
  MINUS
  CONSTRUCT (n) MATCH (n)-[:hasInterest]->() )`, "Alice,John,Peter"},
		{"exists constructing a named graph holds without a match", `CONSTRUCT (n) MATCH (n:Person)
WHERE EXISTS ( CONSTRUCT company_graph MATCH (n)-[:hasInterest]->() )`, "Alice,Celine,Frank,John,Peter"},
		{"pattern predicate under NOT", `CONSTRUCT (n) MATCH (n:Person)
WHERE NOT (n)-[:hasInterest]->()`, "Alice,John,Peter"},
		// WHEN matches a pattern predicate on the MATCH's first graph, as
		// WHERE does.
		{"pattern predicate in a CONSTRUCT WHEN", `CONSTRUCT (n) WHEN (n)-[:hasInterest]->()
MATCH (n:Person)`, "Celine,Frank"},
		{"pattern predicate under NOT in a CONSTRUCT WHEN", `CONSTRUCT (n) WHEN NOT (n)-[:hasInterest]->()
MATCH (n:Person)`, "Alice,John,Peter"},
		{"pattern predicate inside OR", `CONSTRUCT (n) MATCH (n:Person)
WHERE (n)-[:hasInterest]->() OR n.firstName = 'John'`, "Celine,Frank,John"},
		{"exists nested in exists", `CONSTRUCT (n) MATCH (n:Person)
WHERE EXISTS (
  CONSTRUCT () MATCH (n)-[:knows]->(m)
  WHERE EXISTS ( CONSTRUCT () MATCH (m)-[:hasInterest]->() ) )`, "Peter"},
		{"exists correlated with an outer property", `CONSTRUCT (n) MATCH (n:Person)
WHERE EXISTS ( CONSTRUCT () MATCH (n)-[:knows]->(m) WHERE m.lastName < n.lastName )`, "Alice,Peter"},
	}
	ev := newToy(t)
	for _, tc := range cases {
		if got := firstNames(t, run(t, ev, tc.src).Graph); got != tc.want {
			t.Errorf("%s: got %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCorrelatedSubqueriesInSelect(t *testing.T) {
	cases := []struct{ name, src, want string }{
		// An aggregating SELECT groups on the predicate's value.
		{"pattern predicate in an aggregating SELECT", `SELECT (n)-[:hasInterest]->() AS likes, COUNT(*) AS c
MATCH (n:Person)`, "FALSE 3\nTRUE 2"},
		// t is unbound where the OPTIONAL found nothing: an unbound
		// variable constrains nothing, so the pattern holds on those rows.
		{"pattern predicate on a variable OPTIONAL left unbound", `SELECT n.firstName AS name, (t)<-[:hasInterest]-(:Person {firstName='Frank'}) AS frankToo
MATCH (n:Person) OPTIONAL (n)-[:hasInterest]->(t)`,
			`"Alice" TRUE` + "\n" + `"Celine" TRUE` + "\n" + `"Frank" TRUE` + "\n" + `"John" TRUE` + "\n" + `"Peter" TRUE`},
		// Where t is unbound it is not a variable of the subquery's
		// table, so CONSTRUCT (t) makes a fresh node per binding; where
		// it is bound, the node t itself.
		{"exists constructing a variable OPTIONAL left unbound", `SELECT n.firstName AS name, EXISTS ( CONSTRUCT (t) MATCH (c:City) ) AS e
MATCH (n:Person) OPTIONAL (n)-[:hasInterest]->(t)`,
			`"Alice" TRUE` + "\n" + `"Celine" TRUE` + "\n" + `"Frank" TRUE` + "\n" + `"John" TRUE` + "\n" + `"Peter" TRUE`},
	}
	ev := newToy(t)
	for _, tc := range cases {
		if got := tableRows(run(t, ev, tc.src).Table); got != tc.want {
			t.Errorf("%s: got\n%s\nwant\n%s", tc.name, got, tc.want)
		}
	}
}

func TestCorrelatedSubqueryErrors(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"exists with a SELECT body", `CONSTRUCT (n) MATCH (n:Person)
WHERE EXISTS ( SELECT m.firstName AS f MATCH (n)-[:knows]->(m) )`, "EXISTS subquery must be a graph query"},
	}
	for _, tc := range cases {
		if err := runErr(t, newToy(t), tc.src); !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestSubqueryRunsOverTheWholeTable pins an interpretation choice
// (docs/SEMANTICS.md): a correlated subquery runs once over the whole
// table its expression is evaluated over, rows that an earlier residual
// conjunct or an untaken CASE arm skips included. Subqueries are pure,
// so results cannot differ; an error the subquery raises on such a row
// can. Here it divides by zero on Peter's row only, which the CASE and
// the first conjunct each skip.
func TestSubqueryRunsOverTheWholeTable(t *testing.T) {
	const exists = `EXISTS ( CONSTRUCT () MATCH (t:Tag)
  WHERE 1 / CASE WHEN n.firstName = 'Peter' THEN 0 ELSE 1 END > 0 )`
	for _, src := range []string{
		`CONSTRUCT (n) MATCH (n:Person)
WHERE CASE WHEN n.firstName = 'Peter' THEN FALSE ELSE ` + exists + ` END`,
		`CONSTRUCT (n) MATCH (n:Person)
WHERE NOT (n)-[:knows]->(:Person {firstName='Celine'}) AND ` + exists,
	} {
		if err := runErr(t, newToy(t), src); !strings.Contains(err.Error(), "division by zero") {
			t.Errorf("err = %v\n%s", err, src)
		}
	}
}
