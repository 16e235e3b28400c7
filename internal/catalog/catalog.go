// Package catalog manages the named objects of one G-CORE engine:
// graphs (the gr(gid) function of §A.2), persistent graph views
// (GRAPH VIEW, §A.6), binding tables (§5), and the engine-wide
// identifier generator that keeps N, E and P disjoint across graphs.
package catalog

import (
	"fmt"
	"sort"
	"sync"

	"gcore/internal/ppg"
	"gcore/internal/table"
)

// Catalog is the name registry of an engine. Mutations (registrations,
// default changes) are not safe for concurrent use — engines apply
// them under their exclusive lock — but lookups, and StageGraph, are
// safe to run from many reader goroutines between mutations. The one lookup that populates
// state lazily, TableAsGraph, guards its cache with an internal mutex
// so concurrent readers over tables-as-graphs stay race-free.
type Catalog struct {
	graphs      map[string]*ppg.Graph
	tables      map[string]*table.Table
	tgMu        sync.Mutex            // guards tableGraphs
	tableGraphs map[string]*ppg.Graph // tables-as-graphs cache (§5)
	defaultName string
	ids         *ppg.IDGen

	hook ChangeHook
}

// Change is one catalog mutation presented to the change hook before
// it is applied.
type Change struct {
	// Op is "register_graph", "register_table" or "set_default".
	Op    string
	Graph *ppg.Graph   // register_graph
	Table *table.Table // register_table
	Name  string       // set_default
}

// ChangeHook observes catalog mutations after validation and before
// application; returning an error rejects the mutation, leaving the
// catalog untouched. The durability layer logs catalog changes here —
// the catalog is the boundary because views register their
// materialised graphs directly against it, bypassing engine methods.
type ChangeHook func(ch Change) error

// SetChangeHook installs (or with nil removes) the catalog's change
// hook.
func (c *Catalog) SetChangeHook(h ChangeHook) { c.hook = h }

func (c *Catalog) fireHook(ch Change) error {
	if c.hook == nil {
		return nil
	}
	return c.hook(ch)
}

// New creates an empty catalog. Generated identifiers start at 1000
// so small hand-assigned identifiers in loaded graphs stay readable.
func New() *Catalog {
	return &Catalog{
		graphs:      map[string]*ppg.Graph{},
		tables:      map[string]*table.Table{},
		tableGraphs: map[string]*ppg.Graph{},
		ids:         ppg.NewIDGen(1000),
	}
}

// IDs returns the engine-wide identifier generator.
func (c *Catalog) IDs() *ppg.IDGen { return c.ids }

// RegisterGraph stores g under its name and reserves its identifiers.
// The first registered graph becomes the default graph. It is
// StageGraph followed by PublishGraph.
func (c *Catalog) RegisterGraph(g *ppg.Graph) error {
	if err := c.StageGraph(g); err != nil {
		return err
	}
	c.PublishGraph(g)
	return nil
}

// StageGraph validates g for registration and presents it to the
// change hook (the durability layer logs it there) without applying
// it: the catalog is only read, so a writer can stage under the shared
// lock, beside readers, and publish later under the exclusive one.
func (c *Catalog) StageGraph(g *ppg.Graph) error {
	name := g.Name()
	if name == "" {
		return fmt.Errorf("catalog: graph needs a name")
	}
	if _, dup := c.tables[name]; dup {
		return fmt.Errorf("catalog: %q already names a table", name)
	}
	return c.fireHook(Change{Op: "register_graph", Graph: g})
}

// PublishGraph applies a registration StageGraph accepted. The caller
// guarantees that no table took the name in between (engines stage and
// publish under one writer mutex).
func (c *Catalog) PublishGraph(g *ppg.Graph) {
	name := g.Name()
	c.graphs[name] = g
	for _, id := range g.NodeIDs() {
		c.ids.Reserve(uint64(id))
	}
	for _, id := range g.EdgeIDs() {
		c.ids.Reserve(uint64(id))
	}
	for _, id := range g.PathIDs() {
		c.ids.Reserve(uint64(id))
	}
	if c.defaultName == "" {
		c.defaultName = name
	}
}

// RegisterTable stores a binding table under its name.
func (c *Catalog) RegisterTable(t *table.Table) error {
	if t.Name == "" {
		return fmt.Errorf("catalog: table needs a name")
	}
	if _, dup := c.graphs[t.Name]; dup {
		return fmt.Errorf("catalog: %q already names a graph", t.Name)
	}
	if err := c.fireHook(Change{Op: "register_table", Table: t}); err != nil {
		return err
	}
	c.tables[t.Name] = t
	c.tgMu.Lock()
	delete(c.tableGraphs, t.Name)
	c.tgMu.Unlock()
	return nil
}

// Graph resolves a graph name.
func (c *Catalog) Graph(name string) (*ppg.Graph, bool) {
	g, ok := c.graphs[name]
	return g, ok
}

// Table resolves a table name.
func (c *Catalog) Table(name string) (*table.Table, bool) {
	t, ok := c.tables[name]
	return t, ok
}

// SetDefault selects the graph MATCH uses when ON is omitted.
func (c *Catalog) SetDefault(name string) error {
	if _, ok := c.graphs[name]; !ok {
		return fmt.Errorf("catalog: unknown graph %q", name)
	}
	if err := c.fireHook(Change{Op: "set_default", Name: name}); err != nil {
		return err
	}
	c.defaultName = name
	return nil
}

// Default returns the default graph, or nil if none is set.
func (c *Catalog) Default() *ppg.Graph {
	if c.defaultName == "" {
		return nil
	}
	return c.graphs[c.defaultName]
}

// DefaultName returns the default graph's name ("" if unset).
func (c *Catalog) DefaultName() string { return c.defaultName }

// GraphNames lists registered graph names, sorted.
func (c *Catalog) GraphNames() []string {
	names := make([]string, 0, len(c.graphs))
	for n := range c.graphs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TableNames lists registered table names, sorted.
func (c *Catalog) TableNames() []string {
	names := make([]string, 0, len(c.tables))
	for n := range c.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TableAsGraph interprets a registered table as a graph of isolated
// nodes — one node per row, columns as properties (§5, lines 81–85).
// The conversion is cached so node identities are stable across
// queries of one engine.
func (c *Catalog) TableAsGraph(name string) (*ppg.Graph, error) {
	c.tgMu.Lock()
	defer c.tgMu.Unlock()
	if g, ok := c.tableGraphs[name]; ok {
		return g, nil
	}
	t, ok := c.tables[name]
	if !ok {
		return nil, fmt.Errorf("catalog: unknown table %q", name)
	}
	g := ppg.New(name)
	for _, row := range t.Rows {
		props := ppg.Properties{}
		for i, col := range t.Cols {
			if !row[i].IsNull() {
				props.Set(col, row[i])
			}
		}
		n := &ppg.Node{ID: c.ids.NextNode(), Props: props}
		if err := g.AddNode(n); err != nil {
			return nil, err
		}
	}
	c.tableGraphs[name] = g
	return g, nil
}

// Resolve finds a name as a graph first, then as a table-as-graph.
func (c *Catalog) Resolve(name string) (*ppg.Graph, error) {
	if g, ok := c.graphs[name]; ok {
		return g, nil
	}
	if _, ok := c.tables[name]; ok {
		return c.TableAsGraph(name)
	}
	return nil, fmt.Errorf("catalog: unknown graph %q (known graphs: %v)", name, c.GraphNames())
}
