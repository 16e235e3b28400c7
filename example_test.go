package gcore_test

import (
	"fmt"
	"log"

	"gcore"
)

// The first query of the paper's guided tour: every G-CORE query
// returns a graph.
func ExampleEngine_Eval() {
	eng := gcore.NewEngine()
	if err := eng.RegisterGraph(gcore.SampleSocialGraph()); err != nil {
		log.Fatal(err)
	}
	res, err := eng.Eval(`
		CONSTRUCT (n)
		MATCH (n:Person) ON social_graph
		WHERE n.employer = 'Acme'`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Graph)
	// Output: graph "" (2 nodes, 0 edges, 0 paths)
}

// Paths are first-class citizens: store the shortest knows-paths from
// John and read their hop counts back.
func ExampleEngine_Eval_storedPaths() {
	eng := gcore.NewEngine()
	if err := eng.RegisterGraph(gcore.SampleSocialGraph()); err != nil {
		log.Fatal(err)
	}
	res, err := eng.Eval(`
		CONSTRUCT (n)-/@p:hop {d := c}/->(m)
		MATCH (n:Person)-/SHORTEST p<:knows*> COST c/->(m:Person)
		WHERE n.firstName = 'John' AND m.firstName = 'Celine'`)
	if err != nil {
		log.Fatal(err)
	}
	for _, pid := range res.Graph.PathIDs() {
		p, _ := res.Graph.Path(pid)
		fmt.Printf("stored path with %d hops, d = %s\n", p.Length(), p.Props.Get("d"))
	}
	// Output: stored path with 2 hops, d = 2
}

// The §5 tabular extension: SELECT projects a binding table, with
// implicit grouping when aggregates appear.
func ExampleEngine_Eval_select() {
	eng := gcore.NewEngine()
	if err := eng.RegisterGraph(gcore.SampleSocialGraph()); err != nil {
		log.Fatal(err)
	}
	res, err := eng.Eval(`
		SELECT n.firstName AS name, COUNT(*) AS friends
		MATCH (n:Person)-[:knows]->(m:Person)
		ORDER BY friends DESC, name
		LIMIT 2`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res.Table)
	// Output:
	// name     friends
	// -------  -------
	// "Peter"  3
	// "John"   2
}

// Explain shows the evaluation plan without running anything — note
// the filter pushed onto the node scan, before the path search, and
// its [col] mark: the comparison compiles against the snapshot's
// property columns instead of evaluating row at a time. [seek key]
// marks an equality the scan may answer from the key's value index
// instead of visiting every :Person. The start line names the node
// pattern the chain is evaluated from with its estimated cost, the sum
// of the rows estimated after each step ([est N]).
func ExampleEngine_Explain() {
	eng := gcore.NewEngine()
	if err := eng.RegisterGraph(gcore.SampleSocialGraph()); err != nil {
		log.Fatal(err)
	}
	plan, err := eng.Explain(`
		CONSTRUCT (m)
		MATCH (n:Person)-/<:knows*>/->(m:Person)
		WHERE n.firstName = 'John'`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(plan)
	// Output:
	// MATCH
	//   scan pattern 1 (default graph)
	//     start: node 1 (n :Person) [est 6]
	//     node scan (n :Person)  ⊳ filter: (n.firstName = 'John') [col]  [seek firstName]  [est 1]
	//     reachability BFS (product automaton) -/<(:knows)*>/->(m :Person)  [est 5]
	// CONSTRUCT (identity-respecting, §A.3)
	//   node (m)  [by identity]
}

// Graph set operations are identity-based (§A.5).
func ExampleGraphMinus() {
	a := gcore.SampleSocialGraph()
	b := gcore.SampleSocialGraph()
	fmt.Println(gcore.GraphMinus("d", a, b).IsEmpty())
	// Output: true
}
