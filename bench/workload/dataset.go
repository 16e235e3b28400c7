// Package workload generates everything gcoreload feeds a gcored
// process: the SNB-schema dataset and, per workload, the request
// stream of each connection. Both are pure functions of the seed, so
// two runs with the same seed send byte-identical traffic.
package workload

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"gcore"
)

// Dataset is the generated input of one run: the social graph (every
// Person stamped with a dense integer pid, so single-source lookups
// exist) and its companion company graph.
type Dataset struct {
	Social    *gcore.Graph
	Companies *gcore.Graph
	Persons   int
	// Employers, FirstNames and LastNames are the distinct property
	// values actually present on Person nodes, sorted; the streams draw
	// literals from them so no generated filter is vacuous by
	// construction of the generator alone.
	Employers  []string
	FirstNames []string
	LastNames  []string
	Cities     []string // City node names, sorted
}

// NewDataset generates the snb_<persons> graphs from seed and stamps
// pid 0..persons-1 on the Person nodes in identifier order.
func NewDataset(persons int, seed int64) (*Dataset, error) {
	social, companies := gcore.GenerateSNB(gcore.SNBConfig{Persons: persons, Seed: seed})
	ds := &Dataset{Social: social, Companies: companies, Persons: persons}
	ids := social.NodesWithLabel("Person")
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	if len(ids) != persons {
		return nil, fmt.Errorf("workload: generator made %d persons, want %d", len(ids), persons)
	}
	emp, first, last := map[string]bool{}, map[string]bool{}, map[string]bool{}
	for pid, id := range ids {
		n, _ := social.Node(id)
		p := n.Props.Clone()
		p.Set("pid", gcore.Int(int64(pid)))
		if err := social.SetNodeProps(id, p); err != nil {
			return nil, err
		}
		// Only single-valued employers: `n.employer = 'X'` is false on a
		// two-employer person, so those names alone would match nobody.
		for key, seen := range map[string]map[string]bool{"employer": emp, "firstName": first, "lastName": last} {
			if v, ok := p.Get(key).Singleton(); ok {
				if s, ok := v.AsString(); ok {
					seen[s] = true
				}
			}
		}
	}
	ds.Employers, ds.FirstNames, ds.LastNames = sortedKeys(emp), sortedKeys(first), sortedKeys(last)
	for _, id := range social.NodesWithLabel("City") {
		n, _ := social.Node(id)
		if v, ok := n.Props.Get("name").Singleton(); ok {
			if s, ok := v.AsString(); ok {
				ds.Cities = append(ds.Cities, s)
			}
		}
	}
	sort.Strings(ds.Cities)
	return ds, nil
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// WriteJSON writes both graphs into dir in the interchange format
// gcored's -graph flag loads, social graph first (the first graph
// loaded becomes the default graph). It returns the two file paths.
func (d *Dataset) WriteJSON(dir string) ([]string, error) {
	var files []string
	for _, g := range []*gcore.Graph{d.Social, d.Companies} {
		path := filepath.Join(dir, g.Name()+".json")
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		if err := g.WriteJSON(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("workload: writing %s: %w", path, err)
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
		files = append(files, path)
	}
	return files, nil
}
