package workload

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
)

// The four workloads. Each exists to load a different set of layers;
// bench/README.md records the reasoning and the measured sizing.
const (
	PointPrepared  = "point_prepared"
	AdhocMatch     = "adhoc_match"
	PathAnalytics  = "path_analytics"
	MixedRWDurable = "mixed_rw_durable"
)

// Names lists the workloads in reporting order.
var Names = []string{PointPrepared, AdhocMatch, PathAnalytics, MixedRWDurable}

// Views is how many view names the mixed_rw_durable writer cycles
// through (GRAPH VIEW v<k mod Views>).
const Views = 32

// Request is one generated HTTP request, still symbolic: the driver
// resolves Prep to the connection's session and prepared handle.
type Request struct {
	// Class names the statement shape ("emp_scan", "knows1", …); every
	// request of a class costs the engine about the same.
	Class string
	// Write marks a mutating statement (a GRAPH VIEW definition).
	Write bool
	// Prep >= 0 sends POST /exec on prepared statement Spec.Prepared[Prep]
	// with Params; Prep < 0 sends POST /query with Query.
	Prep   int
	Params []Param
	Query  string
	// InSession sends a /query request inside the connection's session
	// rather than sessionless.
	InSession bool
}

// Param is one $name binding of a prepared execution.
type Param struct {
	Name  string
	Str   string
	Int   int64
	IsInt bool
}

// Key identifies the request up to result equality: two requests with
// the same Key must return the same result on the same dataset.
func (r Request) Key() string {
	if r.Prep < 0 {
		return r.Query
	}
	var sb strings.Builder
	sb.WriteString(r.Class)
	for _, p := range r.Params {
		sb.WriteByte('|')
		if p.IsInt {
			sb.WriteString(strconv.FormatInt(p.Int, 10))
		} else {
			sb.WriteString(p.Str)
		}
	}
	return sb.String()
}

// Spec is one workload bound to a dataset and a seed.
type Spec struct {
	Name string
	// Prepared are the statements every connection prepares in its own
	// session before the run (empty for sessionless workloads).
	Prepared []string
	// Setup are statements sent once, in order, before warm-up.
	Setup []Request
	// Durable runs gcored with -data (write-ahead log, SyncAlways).
	Durable bool
	// TraceRequests bounds the traced replay.
	TraceRequests int

	ds   *Dataset
	seed int64
}

// The prepared statements of the point-lookup read mix.
const (
	prepEmpScan = iota
	prepKnows1
	prepKnows2
)

var pointStatements = []string{
	prepEmpScan: `SELECT n.pid AS pid, n.firstName AS first, n.lastName AS last MATCH (n:Person) WHERE n.employer = $emp ORDER BY pid`,
	prepKnows1:  `CONSTRUCT (n)-[e]->(m) MATCH (n:Person)-[e:knows]->(m:Person) WHERE n.pid = $pid`,
	prepKnows2:  `SELECT DISTINCT o.pid AS pid MATCH (n:Person)-[:knows]->(m:Person)-[:knows]->(o:Person) WHERE n.pid = $pid ORDER BY pid`,
}

// New binds workload name to ds and seed.
func New(name string, ds *Dataset, seed int64) (*Spec, error) {
	s := &Spec{Name: name, ds: ds, seed: seed, TraceRequests: 2000}
	switch name {
	case PointPrepared:
		s.Prepared = pointStatements
	case AdhocMatch:
	case PathAnalytics:
		s.TraceRequests = 500
	case MixedRWDurable:
		s.Prepared = pointStatements
		s.Durable = true
		// Every view exists before the run, so a read ON v<j> never
		// depends on how far the writer has got.
		for j := 0; j < Views; j++ {
			s.Setup = append(s.Setup, s.viewWrite(j))
		}
	default:
		return nil, fmt.Errorf("workload: unknown workload %q (have %s)", name, strings.Join(Names, ", "))
	}
	return s, nil
}

// SocialName is the name of the dataset's social graph, gcored's
// default graph.
func (s *Spec) SocialName() string { return s.ds.Social.Name() }

// isWriter reports whether connection conn only writes: connection 0
// of mixed_rw_durable, no other.
func (s *Spec) isWriter(conn int) bool { return s.Name == MixedRWDurable && conn == 0 }

// Stream returns connection conn's request stream.
func (s *Spec) Stream(conn int) *Stream {
	rng := rand.New(rand.NewSource(s.seed*1_000_003 + int64(conn)*7919 + int64(len(s.Name))))
	st := &Stream{spec: s, conn: conn, rng: rng}
	// One Zipf sampler per parameter domain. The rank→value mapping is
	// a seed-dependent permutation shared by all connections, so the
	// hot keys differ between seeds but agree between connections.
	perm := rand.New(rand.NewSource(s.seed*31 + 17))
	st.pid = newZipf(rng, perm, adhocZipfS, s.ds.Persons)
	st.emp = newZipf(rng, perm, adhocZipfS, len(s.ds.Employers))
	st.first = newZipf(rng, perm, adhocZipfS, len(s.ds.FirstNames))
	st.last = newZipf(rng, perm, adhocZipfS, len(s.ds.LastNames))
	st.city = newZipf(rng, perm, adhocZipfS, len(s.ds.Cities))
	st.src = perm.Perm(s.ds.Persons)[:pathSources]
	return st
}

// adhocZipfS is the Zipf exponent of every skewed draw. It is frozen:
// with ~4 000 distinct adhoc_match texts against the 256-entry plan
// cache it puts plancache.hit_ratio in the 0.3–0.7 band the workload
// is meant to hold (see bench/README.md).
const adhocZipfS = 1.07

// pathSources is how many distinct single-source statements
// path_analytics cycles through; they all fit the plan cache.
const pathSources = 16

// Stream is one connection's request generator.
type Stream struct {
	spec *Spec
	conn int
	rng  *rand.Rand
	n    int

	pid, emp, first, last, city *zipf
	src                         []int
}

// zipf draws skewed indexes into a permuted domain.
type zipf struct {
	z    *rand.Zipf
	perm []int
}

func newZipf(rng, perm *rand.Rand, s float64, n int) *zipf {
	return &zipf{z: rand.NewZipf(rng, s, 1, uint64(n-1)), perm: perm.Perm(n)}
}

func (z *zipf) next() int { return z.perm[z.z.Uint64()] }

// Next returns the connection's next request.
func (st *Stream) Next() Request {
	seq := st.n
	st.n++
	s := st.spec
	switch s.Name {
	case PointPrepared:
		return st.pointRead()
	case AdhocMatch:
		return st.adhoc()
	case PathAnalytics:
		return st.path(seq)
	default: // MixedRWDurable
		if s.isWriter(st.conn) {
			return s.viewWrite(seq % Views)
		}
		if st.rng.Intn(4) == 0 {
			return s.viewRead(st.rng.Intn(Views))
		}
		return st.pointRead()
	}
}

// pointRead draws one of the three prepared point lookups.
func (st *Stream) pointRead() Request {
	switch st.rng.Intn(3) {
	case 0:
		return Request{Class: "emp_scan", Prep: prepEmpScan,
			Params: []Param{{Name: "emp", Str: st.spec.ds.Employers[st.emp.next()]}}}
	case 1:
		return Request{Class: "knows1", Prep: prepKnows1,
			Params: []Param{{Name: "pid", Int: int64(st.pid.next()), IsInt: true}}}
	default:
		return Request{Class: "knows2", Prep: prepKnows2,
			Params: []Param{{Name: "pid", Int: int64(st.pid.next()), IsInt: true}}}
	}
}

// adhoc draws one of four MATCH shapes with its literals inlined, so
// every distinct parameter choice is a distinct statement text.
func (st *Stream) adhoc() Request {
	ds := st.spec.ds
	social, companies := ds.Social.Name(), ds.Companies.Name()
	switch st.rng.Intn(4) {
	case 0: // filtered 1-hop CONSTRUCT
		return Request{Class: "hop1", Prep: -1, Query: fmt.Sprintf(
			`CONSTRUCT (n)-[e]->(m) MATCH (n:Person)-[e:knows]->(m:Person) WHERE n.pid = %d`,
			st.pid.next())}
	case 1: // two-graph equality join, the paper's lines 5-9 shape
		return Request{Class: "graph_join", Prep: -1, Query: fmt.Sprintf(
			`CONSTRUCT (c)<-[:worksAt]-(n) MATCH (c:Company) ON %s, (n:Person) ON %s WHERE c.name = n.employer AND c.name = '%s' AND n.lastName = '%s'`,
			companies, social, ds.Employers[st.emp.next()], ds.LastNames[st.last.next()])}
	case 2: // conjunct patterns: knows AND co-located, employer- and city-filtered
		return Request{Class: "colocated", Prep: -1, Query: fmt.Sprintf(
			`CONSTRUCT (n)-[:nearby]->(m) MATCH (n:Person)-[:knows]->(m:Person), (n:Person)-[:isLocatedIn]->(c:City)<-[:isLocatedIn]-(m:Person) WHERE n.employer = '%s' AND c.name = '%s'`,
			ds.Employers[st.emp.next()], ds.Cities[st.city.next()])}
	default: // GROUP aggregation, the paper's lines 20-22 shape
		return Request{Class: "group_agg", Prep: -1, Query: fmt.Sprintf(
			`CONSTRUCT (x GROUP e :Company {name:=e})<-[y:worksAt]-(n) MATCH (n:Person {employer=e}) WHERE n.firstName = '%s' AND n.lastName = '%s'`,
			ds.FirstNames[st.first.next()], ds.LastNames[st.last.next()])}
	}
}

// path cycles through pathSources single-source path statements:
// reachability, 3-shortest with stored paths, and one stored shortest
// path per reached node.
func (st *Stream) path(seq int) Request {
	k := (seq + st.conn*5) % pathSources
	pid := st.src[k]
	switch k % 3 {
	case 0:
		return Request{Class: "reach", Prep: -1, Query: fmt.Sprintf(
			`SELECT m.pid AS pid MATCH (n:Person)-/<:knows*>/->(m:Person) WHERE n.pid = %d ORDER BY pid`, pid)}
	case 1:
		return Request{Class: "shortest3", Prep: -1, Query: fmt.Sprintf(
			`CONSTRUCT (n)-/@p:sp {distance := c}/->(m) MATCH (n:Person)-/3 SHORTEST p<:knows*> COST c/->(m:Person) WHERE n.pid = %d AND m.lastName = '%s'`,
			pid, st.spec.ds.LastNames[k%len(st.spec.ds.LastNames)])}
	default:
		return Request{Class: "stored_path", Prep: -1, Query: fmt.Sprintf(
			`CONSTRUCT (n)-/@p:sp/->(m) MATCH (n:Person)-/p<:knows*>/->(m:Person) WHERE n.pid = %d`, pid)}
	}
}

// viewWrite (re)defines view j. A view's body depends only on j, so
// its content is the same whenever it is read.
func (s *Spec) viewWrite(j int) Request {
	emp := s.ds.Employers[(j*7+int(uint64(s.seed)%97))%len(s.ds.Employers)]
	return Request{Class: "view_write", Write: true, Prep: -1, InSession: true, Query: fmt.Sprintf(
		`GRAPH VIEW v%d AS (CONSTRUCT (n)-[e]->(m) MATCH (n:Person)-[e:knows]->(m:Person) WHERE n.employer = '%s')`,
		j, emp)}
}

// viewRead reads view j inside the connection's session.
func (s *Spec) viewRead(j int) Request {
	return Request{Class: "view_read", Prep: -1, InSession: true, Query: fmt.Sprintf(
		`SELECT COUNT(*) AS pairs MATCH (n:Person)-[:knows]->(m:Person) ON v%d`, j)}
}

// WarmupRequests is how many requests connection conn sends in the
// warm-up pass: enough to fill the plan cache, build every lazily
// built snapshot and let the heap reach its working size.
func (s *Spec) WarmupRequests(conn int) int {
	switch s.Name {
	case PointPrepared:
		return 600
	case AdhocMatch:
		return 600
	case PathAnalytics:
		return 2 * pathSources
	default: // MixedRWDurable
		if s.isWriter(conn) {
			return 2 * Views
		}
		return 600
	}
}

// TraceStream returns the request sequence of the traced replay: the
// streams of connections 0..conns-1 taken from their starts and
// merged into the one sequence a single goroutine replays. Readers
// take turns. A writer connection contributes writeShare of the
// sequence, spread evenly; the caller passes the share of writes among
// the requests its closed loop completed, so the replay describes the
// mix that was measured.
func (s *Spec) TraceStream(conns int, writeShare float64) func() Request {
	streams := make([]*Stream, conns)
	for i := range streams {
		streams[i] = s.Stream(i)
	}
	n, writes := 0, 0
	return func() Request {
		n++
		if s.isWriter(0) && conns > 1 {
			if float64(writes) < writeShare*float64(n) {
				writes++
				return streams[0].Next()
			}
			return streams[1+n%(conns-1)].Next()
		}
		return streams[n%conns].Next()
	}
}
