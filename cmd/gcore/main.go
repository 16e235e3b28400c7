// Command gcore is a command-line shell for the G-CORE engine: load
// Path Property Graphs from JSON and tables from CSV, evaluate
// queries, and print or save the resulting graphs and tables.
//
// Usage:
//
//	gcore [flags] [query]
//
//	-graph file.json     load and register a graph (repeatable)
//	-table name=file.csv load and register a table (repeatable)
//	-sample              register the paper's sample datasets
//	                     (social_graph, company_graph, example_graph,
//	                     orders)
//	-default name        select the default graph for MATCH without ON
//	-data dir            open a durable data directory: every mutation
//	                     is logged to a write-ahead log before it
//	                     applies, and startup recovers the last
//	                     checkpoint plus the log tail (crash-safe)
//	-script file         evaluate a ;-separated script and exit
//	-json                print result graphs/tables as JSON
//	-out file            write the last result graph as JSON
//	-timeout duration    per-statement evaluation timeout (0 disables)
//	-slowlog duration    log statements slower than this to stderr
//	-metrics             print engine metrics as JSON on exit
//
// With a query argument the command evaluates it and exits; otherwise
// it starts a read-eval-print loop. In the REPL, statements end with
// ';' and the commands \graphs, \tables, \ast, \save, \metrics,
// \cache, \checkpoint, \help and \quit are available. Prefixing a statement with EXPLAIN
// prints its plan instead of running it; EXPLAIN ANALYZE runs it and
// prints the plan annotated with observed rows and timings.
//
// The engine-lifetime metrics are also published as the expvar
// variable "gcore" for programs that embed this command's run loop
// next to an HTTP server.
//
// SIGINT (Ctrl-C) or SIGTERM during an evaluation cancels the running
// query: the REPL prints the typed error and keeps running; one-shot
// and script invocations exit non-zero.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"gcore"
)

type repeated []string

func (r *repeated) String() string { return strings.Join(*r, ",") }

func (r *repeated) Set(v string) error {
	*r = append(*r, v)
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gcore:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("gcore", flag.ContinueOnError)
	var graphFiles, tableSpecs repeated
	fs.Var(&graphFiles, "graph", "graph JSON file to load (repeatable)")
	fs.Var(&tableSpecs, "table", "table to load as name=file.csv (repeatable)")
	sample := fs.Bool("sample", false, "register the paper's sample datasets")
	defGraph := fs.String("default", "", "default graph name")
	dataDir := fs.String("data", "", "durable data directory (write-ahead log + checkpoints)")
	script := fs.String("script", "", "script file to evaluate")
	asJSON := fs.Bool("json", false, "print results as JSON")
	outFile := fs.String("out", "", "write the last result graph as JSON")
	loadDir := fs.String("load", "", "load a saved catalog directory before evaluating")
	saveDir := fs.String("save", "", "save the catalog directory after evaluating")
	timeout := fs.Duration("timeout", 0, "per-statement evaluation timeout (e.g. 30s); 0 disables")
	slowlog := fs.Duration("slowlog", 0, "log statements slower than this to stderr; 0 disables")
	metrics := fs.Bool("metrics", false, "print engine metrics as JSON on exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var opts []gcore.Option
	if *timeout > 0 {
		opts = append(opts, gcore.WithLimits(gcore.Limits{Timeout: *timeout}))
	}
	if *slowlog > 0 {
		opts = append(opts, gcore.WithTraceHandler(&slowLogger{w: os.Stderr, threshold: *slowlog}))
	}
	var eng *gcore.Engine
	var dur *gcore.DurableEngine
	var sess *gcore.Session
	if *dataDir != "" {
		var err error
		dur, err = gcore.OpenDurable(*dataDir, gcore.WithEngineOptions(opts...))
		if err != nil {
			return err
		}
		defer dur.Close()
		eng = dur.Engine
		sess = dur.NewSession()
		fmt.Fprintf(stdout, "durable catalog at %s (%d graphs)\n", *dataDir, len(eng.GraphNames()))
	} else {
		eng = gcore.NewEngine(opts...)
		sess = eng.NewSession()
	}
	publishMetrics(eng)
	if *loadDir != "" {
		if err := eng.LoadCatalog(*loadDir); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "loaded catalog from %s (%d graphs)\n", *loadDir, len(eng.GraphNames()))
	}
	if *sample {
		for _, g := range []*gcore.Graph{
			gcore.SampleSocialGraph(), gcore.SampleCompanyGraph(), gcore.SampleExampleGraph(),
		} {
			if err := eng.RegisterGraph(g); err != nil {
				return err
			}
		}
		if err := eng.RegisterTable(gcore.SampleOrdersTable()); err != nil {
			return err
		}
	}
	for _, f := range graphFiles {
		file, err := os.Open(f)
		if err != nil {
			return err
		}
		g, err := eng.LoadGraphJSON(file)
		file.Close()
		if err != nil {
			return fmt.Errorf("loading %s: %w", f, err)
		}
		fmt.Fprintf(stdout, "loaded %s\n", g)
	}
	for _, spec := range tableSpecs {
		name, file, ok := strings.Cut(spec, "=")
		if !ok {
			return fmt.Errorf("table spec %q must be name=file.csv", spec)
		}
		fh, err := os.Open(file)
		if err != nil {
			return err
		}
		tbl, err := gcore.ReadTableCSV(name, fh)
		fh.Close()
		if err != nil {
			return err
		}
		if err := eng.RegisterTable(tbl); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "loaded table %s (%d rows)\n", name, tbl.Len())
	}
	if *defGraph != "" {
		if err := sess.SetDefaultGraph(*defGraph); err != nil {
			return err
		}
	}

	var lastGraph *gcore.Graph
	show := func(res *gcore.Result) error {
		switch {
		case res.Plan != "":
			fmt.Fprint(stdout, res.Plan)
		case res.Table != nil:
			if *asJSON {
				data, err := res.Table.MarshalJSON()
				if err != nil {
					return err
				}
				fmt.Fprintln(stdout, string(data))
			} else {
				fmt.Fprint(stdout, res.Table.String())
			}
		case res.Graph != nil:
			lastGraph = res.Graph
			if *asJSON {
				data, err := res.Graph.MarshalJSON()
				if err != nil {
					return err
				}
				fmt.Fprintln(stdout, string(data))
			} else {
				printGraph(stdout, res.Graph)
			}
		}
		return nil
	}

	// evalScript runs one script under a signal-aware context: SIGINT
	// or SIGTERM mid-evaluation cancels the in-flight statement, which
	// surfaces as a typed KindCanceled error. The handler is released
	// after each batch, so a second Ctrl-C at an idle prompt behaves
	// normally.
	evalScript := func(src string) ([]*gcore.Result, error) {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		return sess.EvalScriptContext(ctx, src)
	}

	evalAll := func(src string) error {
		results, err := evalScript(src)
		if err != nil {
			return err
		}
		for _, res := range results {
			if err := show(res); err != nil {
				return err
			}
		}
		return nil
	}

	switch {
	case *script != "":
		data, err := os.ReadFile(*script)
		if err != nil {
			return err
		}
		if err := evalAll(string(data)); err != nil {
			return err
		}
	case fs.NArg() > 0:
		if err := evalAll(strings.Join(fs.Args(), " ")); err != nil {
			return err
		}
	default:
		if err := repl(eng, dur, sess, stdin, stdout, show, evalScript); err != nil {
			return err
		}
	}

	if *outFile != "" {
		if lastGraph == nil {
			return fmt.Errorf("-out: no result graph to write")
		}
		fh, err := os.Create(*outFile)
		if err != nil {
			return err
		}
		defer fh.Close()
		if err := lastGraph.WriteJSON(fh); err != nil {
			return err
		}
	}
	if *saveDir != "" {
		if err := eng.SaveCatalog(*saveDir); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "saved catalog to %s\n", *saveDir)
	}
	if *metrics {
		if err := printMetrics(stdout, sess); err != nil {
			return err
		}
	}
	// A clean exit compacts the log so the next start recovers from
	// the checkpoint instead of replaying the whole tail.
	if dur != nil {
		if err := dur.Checkpoint(); err != nil {
			return err
		}
	}
	return nil
}

// slowLogger is a TraceHandler that logs statements whose wall time
// meets a threshold. Statement span labels carry the statement text
// whenever a trace handler is installed, so the log line names the
// offending query.
type slowLogger struct {
	w         io.Writer
	threshold time.Duration
}

func (s *slowLogger) SpanStart(op gcore.Op, depth int) {}

func (s *slowLogger) SpanEnd(sp gcore.Span) {
	if sp.Op != gcore.OpStatement || sp.Elapsed < s.threshold {
		return
	}
	text := strings.Join(strings.Fields(sp.Label), " ")
	if text == "" {
		text = "<statement>"
	}
	fmt.Fprintf(s.w, "slow query (%s): %s\n", sp.Elapsed.Round(time.Microsecond), text)
}

// printMetrics dumps the engine-lifetime metrics as indented JSON;
// a durable engine's session reports WAL counters too.
func printMetrics(w io.Writer, sess *gcore.Session) error {
	data, err := json.MarshalIndent(sess.Metrics(), "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(data))
	return err
}

// The expvar variable is process-global and can be published only
// once, while run() may be entered repeatedly (tests); the published
// func reads whichever engine ran last.
var (
	expvarOnce   sync.Once
	expvarEngine atomic.Pointer[gcore.Engine]
)

func publishMetrics(eng *gcore.Engine) {
	expvarEngine.Store(eng)
	expvarOnce.Do(func() {
		expvar.Publish("gcore", expvar.Func(func() any {
			if e := expvarEngine.Load(); e != nil {
				return e.Metrics()
			}
			return nil
		}))
	})
}

func repl(eng *gcore.Engine, dur *gcore.DurableEngine, sess *gcore.Session, stdin io.Reader, stdout io.Writer, show func(*gcore.Result) error, evalScript func(string) ([]*gcore.Result, error)) error {
	fmt.Fprintln(stdout, "G-CORE shell — statements end with ';', \\help for commands")
	scanner := bufio.NewScanner(stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := func() {
		if buf.Len() == 0 {
			fmt.Fprint(stdout, "gcore> ")
		} else {
			fmt.Fprint(stdout, "  ...> ")
		}
	}
	prompt()
	for scanner.Scan() {
		line := scanner.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && strings.HasPrefix(trimmed, "\\") {
			if done := replCommand(eng, dur, sess, stdout, trimmed); done {
				return nil
			}
			prompt()
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if strings.Contains(line, ";") {
			src := buf.String()
			buf.Reset()
			results, err := evalScript(src)
			if err != nil {
				fmt.Fprintln(stdout, "error:", err)
			}
			for _, res := range results {
				if err := show(res); err != nil {
					fmt.Fprintln(stdout, "error:", err)
				}
			}
		}
		prompt()
	}
	fmt.Fprintln(stdout)
	return scanner.Err()
}

// replCommand handles backslash commands; it reports whether the REPL
// should exit.
func replCommand(eng *gcore.Engine, dur *gcore.DurableEngine, sess *gcore.Session, stdout io.Writer, cmd string) bool {
	fields := strings.Fields(cmd)
	switch fields[0] {
	case "\\quit", "\\q":
		return true
	case "\\help":
		fmt.Fprintln(stdout, `commands:
  \graphs            list registered graphs and views
  \tables            list registered tables
  \ast <query>       print the parsed form of a query
  \explain <query>   print the evaluation plan of a query
                     (EXPLAIN ANALYZE <query>; runs it and annotates
                     the plan with observed rows and timings)
  \default [graph]   set (or clear) this session's default graph
  \metrics           print engine metrics as JSON
  \cache             print plan-cache counters and live entries
  \checkpoint        write a durable checkpoint (requires -data)
  \save <graph> <f>  write a graph as JSON to file f
  \quit              exit`)
	case "\\graphs":
		for _, name := range eng.GraphNames() {
			g, _ := eng.Graph(name)
			fmt.Fprintf(stdout, "  %s\n", g)
		}
	case "\\tables":
		for _, name := range eng.TableNames() {
			fmt.Fprintf(stdout, "  %s\n", name)
		}
	case "\\ast":
		src := strings.TrimSpace(strings.TrimPrefix(cmd, "\\ast"))
		stmt, err := gcore.Parse(src)
		if err != nil {
			fmt.Fprintln(stdout, "error:", err)
			break
		}
		fmt.Fprintln(stdout, stmt.String())
	case "\\explain":
		src := strings.TrimSpace(strings.TrimPrefix(cmd, "\\explain"))
		plan, err := sess.ExplainContext(context.Background(), src)
		if err != nil {
			fmt.Fprintln(stdout, "error:", err)
			break
		}
		fmt.Fprint(stdout, plan)
	case "\\default":
		if len(fields) > 2 {
			fmt.Fprintln(stdout, "usage: \\default [graph]")
			break
		}
		name := ""
		if len(fields) == 2 {
			name = fields[1]
		}
		if err := sess.SetDefaultGraph(name); err != nil {
			fmt.Fprintln(stdout, "error:", err)
			break
		}
		if name == "" {
			fmt.Fprintln(stdout, "default graph cleared")
		} else {
			fmt.Fprintf(stdout, "default graph set to %s\n", name)
		}
	case "\\metrics":
		if err := printMetrics(stdout, sess); err != nil {
			fmt.Fprintln(stdout, "error:", err)
		}
	case "\\cache":
		printPlanCache(stdout, eng)
	case "\\checkpoint":
		if dur == nil {
			fmt.Fprintln(stdout, "error: not durable (start with -data <dir>)")
			break
		}
		if err := dur.Checkpoint(); err != nil {
			fmt.Fprintln(stdout, "error:", err)
			break
		}
		wm := dur.WALStats()
		fmt.Fprintf(stdout, "checkpoint written (%d records logged, %d checkpoints)\n", wm.Appends, wm.Checkpoints)
	case "\\save":
		if len(fields) != 3 {
			fmt.Fprintln(stdout, "usage: \\save <graph> <file>")
			break
		}
		g, ok := eng.Graph(fields[1])
		if !ok {
			fmt.Fprintf(stdout, "error: unknown graph %q\n", fields[1])
			break
		}
		fh, err := os.Create(fields[2])
		if err != nil {
			fmt.Fprintln(stdout, "error:", err)
			break
		}
		if err := g.WriteJSON(fh); err != nil {
			fmt.Fprintln(stdout, "error:", err)
		}
		fh.Close()
	default:
		fmt.Fprintf(stdout, "unknown command %s (try \\help)\n", fields[0])
	}
	return false
}

// printPlanCache renders the plan-cache counters and live entries.
func printPlanCache(w io.Writer, eng *gcore.Engine) {
	st := eng.PlanCacheStats()
	fmt.Fprintf(w, "plan cache: %d/%d entries, %d hits, %d misses, %d evictions, compile %s\n",
		st.Entries, st.Capacity, st.Hits, st.Misses, st.Evictions,
		st.CompileTime.Round(time.Microsecond))
	for _, en := range eng.PlanCacheEntries() {
		text := en.Text
		if len(text) > 60 {
			text = text[:57] + "..."
		}
		fmt.Fprintf(w, "  %4d× %s  %s\n", en.Hits, en.Compile.Round(time.Microsecond), text)
	}
}

// printGraph renders a graph in a compact human-readable form.
func printGraph(w io.Writer, g *gcore.Graph) {
	fmt.Fprintf(w, "%s\n", g)
	for _, id := range g.NodeIDs() {
		n, _ := g.Node(id)
		fmt.Fprintf(w, "  (#%d%s%s)\n", id, labelsStr(n.Labels), propsStr(n.Props))
	}
	for _, id := range g.EdgeIDs() {
		e, _ := g.Edge(id)
		fmt.Fprintf(w, "  (#%d)-[#%d%s%s]->(#%d)\n", e.Src, id, labelsStr(e.Labels), propsStr(e.Props), e.Dst)
	}
	for _, id := range g.PathIDs() {
		p, _ := g.Path(id)
		parts := make([]string, 0, len(p.Nodes))
		for _, n := range p.Nodes {
			parts = append(parts, fmt.Sprintf("#%d", n))
		}
		fmt.Fprintf(w, "  path #%d%s%s: %s\n", id, labelsStr(p.Labels), propsStr(p.Props), strings.Join(parts, "→"))
	}
}

func labelsStr(ls gcore.Labels) string {
	if len(ls) == 0 {
		return ""
	}
	return ":" + strings.Join(ls, ":")
}

func propsStr(ps gcore.Properties) string {
	if len(ps) == 0 {
		return ""
	}
	keys := ps.Keys()
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s: %s", k, ps.Get(k)))
	}
	sort.Strings(parts)
	return " {" + strings.Join(parts, ", ") + "}"
}
