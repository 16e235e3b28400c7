package gcore

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"gcore/internal/ppg"
	"gcore/internal/table"
)

// Catalog persistence: an engine's graphs (including materialised
// views) and tables can be saved to a directory of JSON files and
// loaded back. The layout is
//
//	<dir>/catalog.json              names + default graph
//	<dir>/graph_<name>.json         one per graph
//	<dir>/table_<name>.json         one per table
//
// Identifiers are preserved exactly, so saved stored paths, the
// identity-based set operations, and cross-references keep working
// after a reload. Graph and table files are compact JSON (AppendJSON);
// loading accepts any JSON layout, including the indented files of
// earlier versions.
//
// Every file is written to a temporary name in the same directory and
// renamed into place, the manifest last, so a crash mid-save never
// leaves a half-written file behind under a final name: a directory
// either has no manifest (not a catalog) or a manifest whose files
// were all complete when it was written. The durable engine layers
// its checkpoints on exactly this layout (plus the log watermark).

type catalogManifest struct {
	Default string   `json:"default,omitempty"`
	Graphs  []string `json:"graphs"`
	Tables  []string `json:"tables"`
}

// fileSafe guards against names that would escape the directory.
func fileSafe(name string) error {
	if name == "" || strings.ContainsAny(name, "/\\") || name == "." || name == ".." {
		return fmt.Errorf("gcore: name %q is not usable as a file name", name)
	}
	return nil
}

// atomicWriteFile writes data next to path and renames it into place,
// fsyncing the file first so the rename never publishes a partial
// write.
func atomicWriteFile(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// SaveCatalog writes every registered graph and table to dir,
// creating it if needed. Each file is written atomically and the
// manifest is written last. It holds the writer mutex and the shared
// lock: readers keep running while the files are written.
func (e *Engine) SaveCatalog(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	e.wmu.Lock()
	defer e.wmu.Unlock()
	return e.shared(func() error { return e.saveCatalogLocked(dir) })
}

// saveCatalogLocked writes the catalog files into dir. Callers hold
// the writer mutex and the shared lock; the durable engine calls it to
// stage checkpoints.
func (e *Engine) saveCatalogLocked(dir string) error {
	man := catalogManifest{Default: e.cat.DefaultName()}
	for _, name := range e.cat.GraphNames() {
		if err := fileSafe(name); err != nil {
			return err
		}
		g, _ := e.cat.Graph(name)
		data, err := g.AppendJSON(nil)
		if err != nil {
			return fmt.Errorf("gcore: encoding graph %s: %w", name, err)
		}
		if err := atomicWriteFile(filepath.Join(dir, "graph_"+name+".json"), data); err != nil {
			return err
		}
		man.Graphs = append(man.Graphs, name)
	}
	for _, name := range e.cat.TableNames() {
		if err := fileSafe(name); err != nil {
			return err
		}
		t, _ := e.cat.Table(name)
		data, err := t.AppendJSON(nil)
		if err != nil {
			return fmt.Errorf("gcore: encoding table %s: %w", name, err)
		}
		if err := atomicWriteFile(filepath.Join(dir, "table_"+name+".json"), data); err != nil {
			return err
		}
		man.Tables = append(man.Tables, name)
	}
	data, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return err
	}
	return atomicWriteFile(filepath.Join(dir, "catalog.json"), data)
}

// LoadCatalog reads a directory written by SaveCatalog into the
// engine, registering every graph and table and restoring the default
// graph. Names already present in the engine cause an error. The load
// is staged: every file is decoded and every registration validated
// before anything is registered, so a failed load leaves the engine's
// catalog untouched.
func (e *Engine) LoadCatalog(dir string) error {
	data, err := os.ReadFile(filepath.Join(dir, "catalog.json"))
	if err != nil {
		return err
	}
	var man catalogManifest
	if err := json.Unmarshal(data, &man); err != nil {
		return fmt.Errorf("gcore: decoding catalog manifest: %w", err)
	}
	// Stage: decode every file without touching the catalog.
	graphs := make([]*Graph, 0, len(man.Graphs))
	staged := map[string]bool{}
	for _, name := range man.Graphs {
		if err := fileSafe(name); err != nil {
			return err
		}
		raw, err := os.ReadFile(filepath.Join(dir, "graph_"+name+".json"))
		if err != nil {
			return err
		}
		g := ppg.New("")
		if err := g.UnmarshalJSON(raw); err != nil {
			return fmt.Errorf("gcore: loading graph %s: %w", name, err)
		}
		if g.Name() != name {
			return fmt.Errorf("gcore: graph file for %s contains graph %q", name, g.Name())
		}
		if err := g.Validate(); err != nil {
			return fmt.Errorf("gcore: loading graph %s: %w", name, err)
		}
		if staged[name] {
			return fmt.Errorf("gcore: manifest lists %s twice", name)
		}
		staged[name] = true
		graphs = append(graphs, g)
	}
	tables := make([]*Table, 0, len(man.Tables))
	for _, name := range man.Tables {
		if err := fileSafe(name); err != nil {
			return err
		}
		raw, err := os.ReadFile(filepath.Join(dir, "table_"+name+".json"))
		if err != nil {
			return err
		}
		t := table.New(name)
		if err := t.UnmarshalJSON(raw); err != nil {
			return fmt.Errorf("gcore: loading table %s: %w", name, err)
		}
		if staged[name] {
			return fmt.Errorf("gcore: manifest lists %s twice", name)
		}
		staged[name] = true
		tables = append(tables, t)
	}
	if man.Default != "" && !staged[man.Default] {
		return fmt.Errorf("gcore: manifest default %q is not in the catalog", man.Default)
	}
	return e.mutate(func() error { return e.registerLoaded(man, staged, graphs, tables) })
}

// registerLoaded registers a staged LoadCatalog; the caller holds the
// writer mutex and the exclusive lock.
func (e *Engine) registerLoaded(man catalogManifest, staged map[string]bool, graphs []*Graph, tables []*Table) error {
	// Validate against the live catalog before registering anything.
	for name := range staged {
		if _, ok := e.cat.Graph(name); ok {
			return fmt.Errorf("gcore: catalog already has a graph named %q", name)
		}
		if _, ok := e.cat.Table(name); ok {
			return fmt.Errorf("gcore: catalog already has a table named %q", name)
		}
	}
	// Commit. Registration failures are impossible for pre-validated
	// names unless a change hook rejects — in which case the partial
	// registration is reported, never silently swallowed.
	for _, g := range graphs {
		if err := e.cat.RegisterGraph(g); err != nil {
			return err
		}
		e.applyPendingDefault(g.Name())
	}
	for _, t := range tables {
		if err := e.cat.RegisterTable(t); err != nil {
			return err
		}
	}
	if man.Default != "" {
		if err := e.cat.SetDefault(man.Default); err != nil {
			return err
		}
		e.pendingDefault = ""
	}
	return nil
}
