// Command gcored serves a G-CORE engine over HTTP/JSON: the
// concurrent, multi-client front door to the library. Start it on a
// dataset and point clients at POST /query:
//
//	gcored -sample -addr :8399
//	curl -s localhost:8399/query -d '{"query":"CONSTRUCT (n) MATCH (n:Person) ON social_graph"}'
//
// Endpoints: POST /query, POST /prepare + /exec, POST /session and
// DELETE /session/{id}, GET /healthz, GET /metrics, GET /debug/vars.
// See docs/HTTP.md for the full reference.
//
// With -data the catalog is durable: every mutation is write-ahead
// logged in the data directory and survives restarts. Read-only
// statements from concurrent clients run in parallel against pinned
// snapshots; mutating statements serialise. -limit-* flags install
// engine-wide admission control, -max-timeout caps per-request
// deadlines, -slowlog logs slow statements, and SIGINT/SIGTERM shuts
// down gracefully, draining in-flight queries until -drain expires
// and cancelling the stragglers.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"gcore"
	"gcore/internal/server"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "gcored:", err)
		os.Exit(1)
	}
}

// onListen, when set, is told the bound address once the listener is
// up. The e2e smoke test uses it to find the :0-assigned port.
var onListen func(addr string)

type repeated []string

func (r *repeated) String() string     { return fmt.Sprint(*r) }
func (r *repeated) Set(v string) error { *r = append(*r, v); return nil }

func run(args []string) error {
	fs := flag.NewFlagSet("gcored", flag.ContinueOnError)
	var graphFiles repeated
	fs.Var(&graphFiles, "graph", "graph JSON file to load (repeatable)")
	addr := fs.String("addr", ":8399", "listen address")
	dataDir := fs.String("data", "", "durable data directory (write-ahead log + checkpoints)")
	loadDir := fs.String("load", "", "load a saved catalog directory at startup")
	sample := fs.Bool("sample", false, "register the paper's sample datasets")
	defGraph := fs.String("default", "", "engine-wide default graph name")
	maxTimeout := fs.Duration("max-timeout", 30*time.Second, "cap on per-request timeouts; 0 uncaps")
	idle := fs.Duration("session-idle", 5*time.Minute, "idle session expiry; negative disables")
	slowlog := fs.Duration("slowlog", time.Second, "log queries slower than this; 0 disables")
	drain := fs.Duration("drain", 10*time.Second, "graceful-shutdown drain budget before cancelling in-flight queries")
	ckptEvery := fs.Int64("checkpoint-every", 4096, "auto-checkpoint after this many WAL records (with -data)")
	limitBindings := fs.Int("limit-bindings", 0, "admission control: max intermediate binding rows per statement")
	limitFrontier := fs.Int("limit-frontier", 0, "admission control: max path-search frontier states per statement")
	limitResults := fs.Int("limit-results", 0, "admission control: max constructed result elements per statement")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var engOpts []gcore.Option
	if *defGraph != "" {
		engOpts = append(engOpts, gcore.WithDefaultGraph(*defGraph))
	}

	var backend server.Backend
	var eng *gcore.Engine
	logger := log.New(os.Stderr, "gcored: ", log.LstdFlags)
	if *dataDir != "" {
		dur, err := gcore.OpenDurable(*dataDir,
			gcore.WithEngineOptions(engOpts...),
			gcore.WithCheckpointEvery(*ckptEvery))
		if err != nil {
			return err
		}
		defer dur.Close()
		backend, eng = dur, dur.Engine
		logger.Printf("durable catalog at %s (%d graphs)", *dataDir, len(eng.GraphNames()))
	} else {
		eng = gcore.NewEngine(engOpts...)
		backend = eng
	}
	publishMetrics(backend)

	if *loadDir != "" {
		if err := eng.LoadCatalog(*loadDir); err != nil {
			return err
		}
		logger.Printf("loaded catalog from %s (%d graphs)", *loadDir, len(eng.GraphNames()))
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
		_, err = eng.LoadGraphJSON(file)
		file.Close()
		if err != nil {
			return fmt.Errorf("loading %s: %w", f, err)
		}
	}

	srv := server.New(backend, server.Config{
		Limits: gcore.Limits{
			MaxBindings:       *limitBindings,
			MaxPathFrontier:   *limitFrontier,
			MaxResultElements: *limitResults,
		},
		MaxTimeout:  *maxTimeout,
		SessionIdle: *idle,
		SlowQuery:   *slowlog,
		Log:         logger,
	})

	httpSrv := &http.Server{Addr: *addr, Handler: srv}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	logger.Printf("serving on %s (%d graphs)", ln.Addr(), len(eng.GraphNames()))
	if onListen != nil {
		onListen(ln.Addr().String())
	}

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		srv.Close()
		return err
	case sig := <-sigCh:
		logger.Printf("received %v, draining (budget %s)", sig, *drain)
	}

	// Graceful shutdown: stop accepting, drain in-flight requests for
	// the drain budget, then cancel the stragglers' contexts — their
	// evaluations abort at the next governance checkpoint.
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	err = httpSrv.Shutdown(ctx)
	srv.Close()
	if errors.Is(err, context.DeadlineExceeded) {
		logger.Printf("drain budget spent, cancelled in-flight queries")
		err = httpSrv.Close()
	}
	logger.Printf("shut down")
	return err
}

// The expvar variable is process-global and can be published only
// once; the pointer indirection keeps tests and restarts safe.
var (
	expvarOnce    atomic.Bool
	expvarBackend atomic.Pointer[server.Backend]
)

func publishMetrics(b server.Backend) {
	expvarBackend.Store(&b)
	if expvarOnce.CompareAndSwap(false, true) {
		expvar.Publish("gcore", expvar.Func(func() any {
			if p := expvarBackend.Load(); p != nil {
				return (*p).Metrics()
			}
			return nil
		}))
	}
}
