package snb

import (
	"fmt"
	"math/rand"

	"gcore/internal/ppg"
	"gcore/internal/value"
)

// Config parameterises the synthetic SNB-schema generator. All sizes
// derive from Persons unless set explicitly; Seed fixes the layout.
type Config struct {
	Persons        int
	Cities         int // default Persons/20 + 1
	Tags           int // default Persons/10 + 1
	Companies      int // default Persons/25 + 2
	AvgKnows       int // average undirected knows degree, default 4
	PostsPerPerson int // default 2
	RepliesPerPost int // default 1
	Seed           int64
}

func (c Config) withDefaults() Config {
	if c.Cities == 0 {
		c.Cities = c.Persons/20 + 1
	}
	if c.Tags == 0 {
		c.Tags = c.Persons/10 + 1
	}
	if c.Companies == 0 {
		c.Companies = c.Persons/25 + 2
	}
	if c.AvgKnows == 0 {
		c.AvgKnows = 4
	}
	if c.PostsPerPerson == 0 {
		c.PostsPerPerson = 2
	}
	if c.RepliesPerPost == 0 {
		c.RepliesPerPost = 1
	}
	return c
}

// Dataset is a generated social graph plus its companion company
// graph and convenient id slices for benchmarks.
type Dataset struct {
	Social    *ppg.Graph
	Companies *ppg.Graph
	Persons   []ppg.NodeID
	Cities    []ppg.NodeID
	Tags      []ppg.NodeID
}

var firstNames = []string{"John", "Peter", "Celine", "Alice", "Frank", "Mia", "Noah", "Lena", "Omar", "Ida", "Hugo", "Sara", "Ivan", "Tess", "Paul", "Vera"}
var lastNames = []string{"Doe", "Smith", "Mayer", "Hacker", "Gold", "Stone", "Reyes", "Kimura", "Novak", "Okafor", "Lindt", "Berg"}

// Generate builds a deterministic dataset at the given configuration.
// Identifiers are allocated from gen so the dataset can be registered
// alongside other graphs of the same engine. The graphs are assembled
// (ppg.Assemble) with the heap layout a decoded graph has: one Labels
// slice per label set, one empty map shared by the elements without
// properties. Every edge joins nodes generated before it, and no
// identifier repeats.
func Generate(cfg Config, gen *ppg.IDGen) *Dataset {
	cfg = cfg.withDefaults()
	r := rand.New(rand.NewSource(cfg.Seed))
	ds := &Dataset{}
	var nodes []*ppg.Node
	var edges []*ppg.Edge
	labels := map[string]ppg.Labels{}
	labelSet := func(label string) ppg.Labels {
		ls, ok := labels[label]
		if !ok {
			ls = ppg.NewLabels(label)
			labels[label] = ls
		}
		return ls
	}
	node := func(id ppg.NodeID, label string, p ppg.Properties) {
		nodes = append(nodes, &ppg.Node{ID: id, Labels: labelSet(label), Props: p})
	}

	// Companies (in their own graph, as in the data-integration tour).
	companyNames := make([]string, cfg.Companies)
	for i := 0; i < cfg.Companies; i++ {
		companyNames[i] = fmt.Sprintf("Company%d", i)
		node(gen.NextNode(), "Company", props("name", value.Str(companyNames[i])))
	}
	ds.Companies = ppg.Assemble(fmt.Sprintf("snb_%d_companies", cfg.Persons), nodes, nil, nil)
	nodes = nil

	for i := 0; i < cfg.Cities; i++ {
		id := gen.NextNode()
		ds.Cities = append(ds.Cities, id)
		node(id, "City", props("name", value.Str(fmt.Sprintf("City%d", i))))
	}
	for i := 0; i < cfg.Tags; i++ {
		id := gen.NextNode()
		ds.Tags = append(ds.Tags, id)
		node(id, "Tag", props("name", value.Str(fmt.Sprintf("Tag%d", i))))
	}

	for i := 0; i < cfg.Persons; i++ {
		id := gen.NextNode()
		ds.Persons = append(ds.Persons, id)
		p := props(
			"firstName", value.Str(firstNames[r.Intn(len(firstNames))]),
			"lastName", value.Str(lastNames[r.Intn(len(lastNames))]),
		)
		if i == 0 {
			// A deterministic anchor person for single-source sweeps.
			p.Set("firstName", value.Str("John"))
			p.Set("lastName", value.Str("Doe"))
			p.Set("anchor", value.True)
		}
		// ~10% unemployed, ~10% with two employers (multi-valued).
		switch roll := r.Intn(10); {
		case roll == 0:
			// no employer property
		case roll == 1:
			a := companyNames[r.Intn(len(companyNames))]
			b := companyNames[r.Intn(len(companyNames))]
			p.Set("employer", value.Set(value.Str(a), value.Str(b)))
		default:
			p.Set("employer", value.Str(companyNames[r.Intn(len(companyNames))]))
		}
		node(id, "Person", p)
	}

	edge := func(src, dst ppg.NodeID, label string, p ppg.Properties) {
		edges = append(edges, &ppg.Edge{ID: gen.NextEdge(), Src: src, Dst: dst, Labels: labelSet(label), Props: p})
	}

	// Location and interests.
	for _, pid := range ds.Persons {
		edge(pid, ds.Cities[r.Intn(len(ds.Cities))], "isLocatedIn", nil)
		for k := 0; k < 1+r.Intn(2); k++ {
			edge(pid, ds.Tags[r.Intn(len(ds.Tags))], "hasInterest", nil)
		}
	}

	// knows: a ring for connectivity plus random chords, each pair
	// drawn bi-directionally as in Fig. 4.
	knowsPair := func(a, b ppg.NodeID) {
		edge(a, b, "knows", nil)
		edge(b, a, "knows", nil)
	}
	seen := map[[2]ppg.NodeID]bool{}
	addPair := func(a, b ppg.NodeID) {
		if a == b {
			return
		}
		if a > b {
			a, b = b, a
		}
		if seen[[2]ppg.NodeID{a, b}] {
			return
		}
		seen[[2]ppg.NodeID{a, b}] = true
		knowsPair(a, b)
	}
	n := len(ds.Persons)
	for i := 0; i < n; i++ {
		addPair(ds.Persons[i], ds.Persons[(i+1)%n])
	}
	extra := n * (cfg.AvgKnows - 2) / 2
	for i := 0; i < extra; i++ {
		addPair(ds.Persons[r.Intn(n)], ds.Persons[r.Intn(n)])
	}

	// Messages: posts by persons, replies by their acquaintances.
	var posts []struct {
		id      ppg.NodeID
		creator int
	}
	for pi, pid := range ds.Persons {
		for k := 0; k < cfg.PostsPerPerson; k++ {
			post := gen.NextNode()
			node(post, "Post", nil)
			edge(post, pid, "has_creator", nil)
			posts = append(posts, struct {
				id      ppg.NodeID
				creator int
			}{post, pi})
		}
	}
	for _, post := range posts {
		for k := 0; k < cfg.RepliesPerPost; k++ {
			replier := ds.Persons[(post.creator+1+r.Intn(3))%n]
			comment := gen.NextNode()
			node(comment, "Comment", nil)
			edge(comment, replier, "has_creator", nil)
			edge(comment, post.id, "reply_of", nil)
		}
	}
	ds.Social = ppg.Assemble(fmt.Sprintf("snb_%d", cfg.Persons), nodes, edges, nil)
	return ds
}
