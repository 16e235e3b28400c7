package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// netProbeEnv, when set, turns this program (or its test binary) into
// the net probe's server.
const netProbeEnv = "GCORELOAD_NETPROBE"

// netProbe measures the net layer on its own: an HTTP server in a
// second process, as gcored is, on a loopback TCP port, whose handler
// only reads the request body and writes back as many bytes as it is
// asked for. A round trip to it with a request's body and its reply's
// size is what the kernel, the wake-up of another process and the
// HTTP stacks of both ends cost that request, with no gcored in it.
type netProbe struct {
	cmd    *exec.Cmd
	stdin  io.Closer
	client *http.Client
	base   string
}

// serveNetProbe is the probe process: it prints its address and serves
// until its standard input is closed.
func serveNetProbe() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	fmt.Println(ln.Addr())
	go func() {
		_, _ = io.Copy(io.Discard, os.Stdin)
		os.Exit(0)
	}()
	var reply []byte // grown to the largest reply asked for; the client is sequential
	return http.Serve(ln, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		n, _ := strconv.Atoi(r.URL.RawQuery)
		if n > len(reply) {
			reply = bytes.Repeat([]byte{' '}, n)
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(reply[:n])
	}))
}

func startNetProbe() (*netProbe, error) {
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), netProbeEnv+"=1")
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &netProbe{cmd: cmd, stdin: stdin, client: newClient()}
	addr, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		p.close()
		return nil, fmt.Errorf("net probe did not start: %w", err)
	}
	p.base = "http://" + strings.TrimSpace(addr)
	return p, nil
}

func (p *netProbe) roundTrip(body []byte, replyBytes int) error {
	resp, err := p.client.Post(p.base+"/?"+strconv.Itoa(replyBytes), "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	n, err := io.Copy(io.Discard, resp.Body)
	if err == nil && int(n) != replyBytes {
		err = fmt.Errorf("net probe returned %d bytes, want %d", n, replyBytes)
	}
	return err
}

// close stops the probe process and waits for it.
func (p *netProbe) close() {
	p.client.CloseIdleConnections()
	_ = p.stdin.Close()
	_ = p.cmd.Process.Kill()
	_ = p.cmd.Wait()
}
