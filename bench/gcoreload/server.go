package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"gcore"
)

// buildGcored compiles the real gcored binary of the repository at
// root into binDir and returns its path. Build time is never part of
// a metric.
func buildGcored(root, binDir string) (string, error) {
	bin := filepath.Join(binDir, "gcored")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/gcored")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building gcored: %v\n%s", err, out)
	}
	return bin, nil
}

// gcored is one running gcored process.
type gcored struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:<port>
	pid  int

	mu      sync.Mutex
	logTail []string // last stderr lines, for failure reports
	logDone chan struct{}
}

// startGcored launches bin with args on an OS-assigned port and
// returns once GET /healthz answers ok.
func startGcored(bin string, args ...string) (*gcored, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	live.add(cmd.Process)
	g := &gcored{cmd: cmd, pid: cmd.Process.Pid, logDone: make(chan struct{})}
	addrCh := make(chan string, 1)
	go func() {
		defer close(g.logDone)
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "serving on "); i >= 0 {
				select {
				case addrCh <- strings.Fields(line[i+len("serving on "):])[0]:
				default:
				}
			}
			g.mu.Lock()
			g.logTail = append(g.logTail, line)
			if len(g.logTail) > 20 {
				g.logTail = g.logTail[1:]
			}
			g.mu.Unlock()
		}
	}()
	select {
	case addr := <-addrCh:
		g.base = "http://" + addr
	case <-g.logDone:
		g.kill()
		return nil, fmt.Errorf("gcored exited before listening:\n%s", g.tail())
	case <-time.After(60 * time.Second):
		g.kill()
		return nil, fmt.Errorf("gcored did not start listening within 60s:\n%s", g.tail())
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(g.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return g, nil
			}
		}
		if time.Now().After(deadline) {
			g.kill()
			return nil, fmt.Errorf("gcored /healthz never turned ok: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (g *gcored) tail() string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return strings.Join(g.logTail, "\n")
}

// kill sends SIGKILL and waits for the process and its log reader to
// end. Killing is the only way the benchmark stops gcored: no run may
// depend on a clean shutdown having flushed anything.
func (g *gcored) kill() {
	_ = g.cmd.Process.Signal(syscall.SIGKILL)
	<-g.logDone
	_ = g.cmd.Wait()
	live.remove(g.cmd.Process)
}

// live holds the gcored processes that are running, so that a signal
// which ends the benchmark early ends them too. (The net probe needs
// no entry: it exits when its standard input closes.)
var live processSet

type processSet struct {
	mu    sync.Mutex
	procs map[*os.Process]bool
}

func (s *processSet) add(p *os.Process) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.procs == nil {
		s.procs = map[*os.Process]bool{}
	}
	s.procs[p] = true
}

func (s *processSet) remove(p *os.Process) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.procs, p)
}

// killAll kills every live process and waits for each to end. It keeps
// the lock, so no process can be added behind its back: a start that
// races with it blocks in add until the caller has exited.
func (s *processSet) killAll() {
	s.mu.Lock()
	for p := range s.procs {
		_ = p.Kill()
	}
	for p := range s.procs {
		_, _ = p.Wait()
	}
}

// killChildrenOnSignal makes SIGINT, SIGTERM and SIGHUP stop every
// gcored this process started before it exits itself.
func killChildrenOnSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	go func() {
		sig := <-ch
		live.killAll()
		fmt.Fprintln(os.Stderr, "gcoreload: stopped by", sig)
		os.Exit(1)
	}()
}

// clockTicks is the kernel's USER_HZ, the unit of utime and stime in
// /proc/<pid>/stat; it is 100 on every Linux platform Go supports.
const clockTicks = 100

// cpuSeconds returns the process's utime+stime.
func (g *gcored) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", g.pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(data)
	rest := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(rest) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", s)
	}
	ut, err1 := strconv.ParseFloat(rest[11], 64)
	st, err2 := strconv.ParseFloat(rest[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat line %q", s)
	}
	return (ut + st) / clockTicks, nil
}

// rssPeakMB returns the process's peak resident set size (VmHWM).
func (g *gcored) rssPeakMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", g.pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", g.pid)
}

// selfCPUSeconds returns the driver's own user+system CPU time.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// counters is one scrape of what gcored serves about itself: the
// engine counters of GET /metrics, by the names they are served under,
// and the Go runtime's memstats from GET /debug/vars.
type counters struct {
	flat map[string]float64         // every scalar of /metrics
	ops  map[string]gcore.OpMetrics // its "operators" object
	mem  struct {
		TotalAlloc   uint64
		Mallocs      uint64
		PauseTotalNs uint64
	}
}

func (g *gcored) scrape() (counters, error) {
	c := counters{flat: map[string]float64{}}
	var doc json.RawMessage
	if err := getJSON(g.base+"/metrics", &doc); err != nil {
		return c, err
	}
	var fields map[string]any
	var ops struct {
		Operators map[string]gcore.OpMetrics `json:"operators"`
	}
	if err := json.Unmarshal(doc, &fields); err != nil {
		return c, fmt.Errorf("decoding /metrics: %w", err)
	}
	if err := json.Unmarshal(doc, &ops); err != nil {
		return c, fmt.Errorf("decoding /metrics operators: %w", err)
	}
	for name, v := range fields {
		if f, ok := v.(float64); ok {
			c.flat[name] = f
		}
	}
	c.ops = ops.Operators
	var vars struct {
		Memstats json.RawMessage `json:"memstats"`
	}
	if err := getJSON(g.base+"/debug/vars", &vars); err != nil {
		return c, err
	}
	if err := json.Unmarshal(vars.Memstats, &c.mem); err != nil {
		return c, fmt.Errorf("decoding memstats: %w", err)
	}
	return c, nil
}

func getJSON(url string, into any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	return nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}
