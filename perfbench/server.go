package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"taco/internal/telemetry"
)

// serverProc is one tacoserve child process.
type serverProc struct {
	cmd     *exec.Cmd
	base    string
	logPath string
	done    chan struct{}
	waitErr error
}

// startServer launches tacoserve on a kernel-chosen loopback port and waits
// until it is listening. dir receives the port file and the server log.
func startServer(bin, dir string, args []string) (*serverProc, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	portFile := filepath.Join(dir, "port")
	os.Remove(portFile)
	logPath := filepath.Join(dir, "tacoserve.log")
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0", "-port-file", portFile}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server must not outlive the benchmark, whatever ends it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start tacoserve: %w", err)
	}
	sp := &serverProc{cmd: cmd, logPath: logPath, done: make(chan struct{})}
	go func() {
		sp.waitErr = cmd.Wait()
		close(sp.done)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if b, err := os.ReadFile(portFile); err == nil && len(bytes.TrimSpace(b)) > 0 {
			sp.base = "http://" + strings.TrimSpace(string(b))
			return sp, nil
		}
		select {
		case <-sp.done:
			return nil, fmt.Errorf("tacoserve exited before listening: %v (log %s)", sp.waitErr, logPath)
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			sp.stop()
			return nil, errors.New("tacoserve did not listen within 30s")
		}
	}
}

// stop shuts the server down gracefully (SIGTERM), escalating to SIGKILL,
// and returns once the process has exited.
func (sp *serverProc) stop() {
	select {
	case <-sp.done:
		return
	default:
	}
	sp.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-sp.done:
	case <-time.After(15 * time.Second):
		sp.cmd.Process.Kill()
		<-sp.done
	}
}

// peakRSSMB reads VmHWM, the process's peak resident set, in MiB.
func (sp *serverProc) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", sp.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("VmHWM not found")
}

// cpuSeconds is the process's user+system CPU time so far.
func (sp *serverProc) cpuSeconds() float64 { return procCPUSeconds(sp.cmd.Process.Pid) }

func procCPUSeconds(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	s := string(b)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
	ut, _ := strconv.ParseFloat(fields[11], 64)
	st, _ := strconv.ParseFloat(fields[12], 64)
	return (ut + st) / 100 // USER_HZ is 100 on Linux
}

// hostCPU is the machine-wide CPU time from /proc/stat, in seconds: time
// spent running anything, time stolen by the hypervisor, and the total.
type hostCPU struct{ busy, steal, total float64 }

func readHostCPU() hostCPU {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return hostCPU{}
	}
	var v [8]float64
	for i := range v {
		v[i], _ = strconv.ParseFloat(f[i+1], 64)
		v[i] /= 100 // USER_HZ
	}
	busy := v[0] + v[1] + v[2] + v[5] + v[6]
	return hostCPU{busy: busy, steal: v[7], total: busy + v[3] + v[4] + v[7]}
}

var startupLine = regexp.MustCompile(`recalc-workers=(-?\d+) recalc-parallelism=(-?\d+)`)

// resolvedRecalc reads the recalc configuration the server logged at start.
func (sp *serverProc) resolvedRecalc() (workers, parallelism int) {
	b, _ := os.ReadFile(sp.logPath)
	if m := startupLine.FindSubmatch(b); m != nil {
		workers, _ = strconv.Atoi(string(m[1]))
		parallelism, _ = strconv.Atoi(string(m[2]))
	}
	return workers, parallelism
}

// client is one keep-alive connection to the server.
type client struct {
	hc        *http.Client
	base      string
	respBytes int64
	buf       bytes.Buffer
	// done is when the last answer was fully read, before decoding: the
	// benchmark's own JSON decoding is not the server's latency.
	done time.Time
}

func newClient(base string) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: base}
}

func (c *client) close() { c.hc.Transport.(*http.Transport).CloseIdleConnections() }

// httpError is a non-2xx answer.
type httpError struct {
	status int
	body   string
}

func (e *httpError) Error() string { return fmt.Sprintf("status %d: %s", e.status, e.body) }

// do sends one request and decodes a JSON answer into out (when non-nil).
func (c *client) do(method, path string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	c.done = time.Now()
	if err != nil {
		return err
	}
	c.respBytes += int64(c.buf.Len())
	if resp.StatusCode/100 != 2 {
		return &httpError{resp.StatusCode, strings.TrimSpace(c.buf.String())}
	}
	switch out.(type) {
	case nil:
	case wellFormed:
		if !json.Valid(c.buf.Bytes()) {
			return fmt.Errorf("%s %s: answer is not JSON (%d bytes)", method, path, c.buf.Len())
		}
	default:
		if err := json.Unmarshal(c.buf.Bytes(), out); err != nil {
			return fmt.Errorf("decode %s %s: %w", method, path, err)
		}
	}
	return nil
}

// wellFormed, passed to do as out, checks that the answer is JSON without
// decoding it: the values are checked at the end of the run, and decoding
// every answer would take CPU from the server under test.
type wellFormed struct{}

func (c *client) scrape() (*telemetry.Scrape, error) {
	if err := c.do("GET", "/metrics", nil, nil); err != nil {
		return nil, err
	}
	return telemetry.ParseText(bytes.NewReader(c.buf.Bytes()))
}

// syncFS flushes the filesystem holding dir (syncfs(2); a no-op where the
// call number is not known).
func syncFS(dir string) {
	nr, ok := map[string]uintptr{"amd64": 306, "arm64": 267}[runtime.GOARCH]
	f, err := os.Open(dir)
	if !ok || err != nil {
		return
	}
	defer f.Close()
	syscall.Syscall(nr, f.Fd(), 0, 0)
}
