// Package faultinject is the engine's fault-injection harness: a
// registry of named probe points threaded through every evaluation
// checkpoint (the governor calls Check at each one). In production
// the harness is disarmed and a probe costs a single atomic load;
// tests arm it to inject a panic, an error, or an arbitrary hook
// (typically a context cancel) at an exact point of the evaluation
// pipeline, and to assert afterwards that the point was actually
// reached. The robustness suite at the repository root drives every
// site below with both a panic and a cancellation and checks that the
// engine surfaces a typed error, leaks no goroutines and leaves
// registered graphs untouched.
package faultinject

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// The probe sites. Each names one evaluation checkpoint; the site is
// passed to gov.Governor.Checkpoint, which forwards it here when the
// harness is armed.
const (
	// SiteEvalStart fires once at the top of every statement
	// evaluation, before any clause runs.
	SiteEvalStart = "core.eval"
	// SiteCoreScan fires in the node-scan candidate loop.
	SiteCoreScan = "core.scan"
	// SiteCoreExtend fires per row of the edge-expansion loop.
	SiteCoreExtend = "core.extend"
	// SiteCoreFilter fires in the WHERE loops: pushed-down conjunct
	// chunks and the residual filter.
	SiteCoreFilter = "core.filter"
	// SiteCorePath fires per row of the path-pattern extension loop
	// (computed and stored paths).
	SiteCorePath = "core.path"
	// SiteCoreConstruct fires per constructed object group in
	// CONSTRUCT evaluation.
	SiteCoreConstruct = "core.construct"
	// SiteParChunk fires in the worker-pool loops before each chunk
	// (MapChunks) or index (ForEachIdx) is claimed.
	SiteParChunk = "par.chunk"
	// SiteRPQShortest fires in the k-shortest heap loop.
	SiteRPQShortest = "rpq.shortest"
	// SiteRPQReach fires in the reachability frontier loop.
	SiteRPQReach = "rpq.reach"
	// SiteRPQAll fires in the ALL-paths sweep loop.
	SiteRPQAll = "rpq.all"
)

// The I/O probe sites of the durability subsystem (internal/wal and
// the engine's checkpoint writer). These are not evaluation
// checkpoints — queries on a non-durable engine never reach them — so
// they live in IOSites, not AllSites: the crash-torture suite drives
// each of them against an open durable engine and asserts that the
// failed operation is rejected cleanly and that recovery restores the
// committed prefix.
const (
	// SiteWALAppend fires at the top of every WAL record append; an
	// injected error fails the append before any byte is written.
	SiteWALAppend = "wal.append"
	// SiteWALShortWrite fires before the record write; an injected
	// error makes the WAL write only half the record and fail — a torn
	// write that recovery must truncate.
	SiteWALShortWrite = "wal.append.short"
	// SiteWALSync fires in every segment fsync; an injected error
	// simulates a failed fsync (the appended record is rolled back).
	SiteWALSync = "wal.sync"
	// SiteWALRoll fires before a segment roll.
	SiteWALRoll = "wal.roll"
	// SiteWALCheckpointWrite fires while the engine stages checkpoint
	// state files; an injected error abandons the staging directory.
	SiteWALCheckpointWrite = "wal.checkpoint.write"
	// SiteWALCheckpointRename fires before the checkpoint directory is
	// renamed into place; an injected error leaves the previous
	// checkpoint current.
	SiteWALCheckpointRename = "wal.checkpoint.rename"
)

// AllSites lists every declared probe site. The fault tests iterate
// it so a new checkpoint cannot be added without being covered.
func AllSites() []string {
	return []string{
		SiteEvalStart,
		SiteCoreScan,
		SiteCoreExtend,
		SiteCoreFilter,
		SiteCorePath,
		SiteCoreConstruct,
		SiteParChunk,
		SiteRPQShortest,
		SiteRPQReach,
		SiteRPQAll,
	}
}

// IOSites lists the durability I/O probe sites. They are kept apart
// from AllSites because they are reached by durable-engine mutations,
// not by query evaluation; the crash-torture suite iterates this list
// so a new I/O fault point cannot be added without coverage.
func IOSites() []string {
	return []string{
		SiteWALAppend,
		SiteWALShortWrite,
		SiteWALSync,
		SiteWALRoll,
		SiteWALCheckpointWrite,
		SiteWALCheckpointRename,
	}
}

// Action is what an armed probe does when evaluation reaches it. The
// hook (if any) runs first, then Panic, then Err; a zero Action just
// counts the hit.
type Action struct {
	// Fn is a side hook run at the probe — typically the cancel
	// function of the context under test, so cancellation lands at an
	// exact evaluation point.
	Fn func()
	// Panic makes the probe panic, exercising the containment path.
	Panic bool
	// Err is returned from the checkpoint as if evaluation failed.
	Err error
}

var (
	armed   atomic.Bool
	mu      sync.Mutex
	actions map[string]Action
	hits    map[string]int
)

// Arm enables the harness. Until armed, Check is a no-op costing one
// atomic load — the production configuration.
func Arm() {
	mu.Lock()
	defer mu.Unlock()
	if actions == nil {
		actions = map[string]Action{}
		hits = map[string]int{}
	}
	armed.Store(true)
}

// Disarm disables the harness and clears all actions and counters.
func Disarm() {
	mu.Lock()
	defer mu.Unlock()
	armed.Store(false)
	actions = nil
	hits = nil
}

// Set arms an action at one site (the harness must be Armed for it to
// fire). Setting a zero Action turns the site into a pure hit
// counter.
func Set(site string, a Action) {
	mu.Lock()
	defer mu.Unlock()
	if actions == nil {
		actions = map[string]Action{}
		hits = map[string]int{}
	}
	actions[site] = a
}

// Hits reports how many times a site has been reached since Arm.
func Hits(site string) int {
	mu.Lock()
	defer mu.Unlock()
	return hits[site]
}

// Check is the probe. Disarmed it returns nil immediately; armed it
// counts the hit and performs the site's action. It is safe to call
// from concurrent worker goroutines.
func Check(site string) error {
	if !armed.Load() {
		return nil
	}
	mu.Lock()
	if hits == nil { // disarmed between the atomic load and the lock
		mu.Unlock()
		return nil
	}
	hits[site]++
	a := actions[site]
	mu.Unlock()
	if a.Fn != nil {
		a.Fn()
	}
	if a.Panic {
		panic(fmt.Sprintf("faultinject: injected panic at %s", site))
	}
	return a.Err
}
