package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// binaries are the programs under test, built from the checkout.
type binaries struct{ targad, serve, router string }

// buildBinaries builds the three commands from the checkout at root into
// dir. go build relinks nothing that is already up to date, so every
// run after the first pays only the staleness check.
func buildBinaries(ctx context.Context, root, dir string) (binaries, error) {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", dir+string(filepath.Separator),
		"./cmd/targad", "./cmd/targad-serve", "./cmd/targad-router")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return binaries{}, fmt.Errorf("go build: %w\n%s", err, out)
	}
	return binaries{
		targad: filepath.Join(dir, "targad"),
		serve:  filepath.Join(dir, "targad-serve"),
		router: filepath.Join(dir, "targad-router"),
	}, nil
}

// proc is one server process the benchmark started.
type proc struct {
	cmd  *exec.Cmd
	done chan struct{}
}

// startProc starts bin with args, its output appended to logPath. The
// process is killed if the benchmark dies first.
func startProc(logPath, bin string, args ...string) (*proc, error) {
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", filepath.Base(bin), err)
	}
	p := &proc{cmd: cmd, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a server we stop is not a result
		logf.Close()
		close(p.done)
	}()
	return p, nil
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

// stop asks the process to shut down and waits until it has exited,
// killing it if it has not within ten seconds.
func (p *proc) stop() {
	// Signalling fails only for a process that has already exited, which
	// the wait below then sees at once.
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

// freeAddr returns a loopback address no listener holds right now.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// get fetches url and returns its status and body.
func get(ctx context.Context, c *http.Client, url string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// waitReady polls every replica's /readyz and, when there is a router,
// its /backends until all replicas answer 200 and the router lists every
// backend up.
func waitReady(ctx context.Context, c *http.Client, t *topology, timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	for _, u := range t.replicas {
		for {
			if code, _, err := get(ctx, c, u+"/readyz"); err == nil && code == http.StatusOK {
				break
			}
			if err := sleepCtx(ctx, 5*time.Millisecond); err != nil {
				return fmt.Errorf("replica %s not ready: %w", u, err)
			}
		}
	}
	if !t.routed {
		return nil
	}
	for {
		if code, body, err := get(ctx, c, t.entry+"/backends"); err == nil && code == http.StatusOK && allUp(body, len(t.replicas)) {
			return nil
		}
		if err := sleepCtx(ctx, 5*time.Millisecond); err != nil {
			return fmt.Errorf("router backends not up: %w", err)
		}
	}
}

func allUp(body []byte, want int) bool {
	var st []struct {
		State string `json:"state"`
	}
	if json.Unmarshal(body, &st) != nil || len(st) != want {
		return false
	}
	for _, b := range st {
		if b.State != "up" {
			return false
		}
	}
	return true
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// scrape reads a Prometheus text exposition into series → value, the
// series keyed by name plus labels exactly as rendered.
func scrape(ctx context.Context, c *http.Client, url string) (map[string]float64, error) {
	code, body, err := get(ctx, c, url+"/metrics")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("%s/metrics answered %d", url, code)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// clockTick is USER_HZ, the unit of /proc CPU times on Linux.
const clockTick = 100

// readCPU returns the user plus system CPU time of pid in seconds.
func readCPU(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th fields of the whole line.
	i := bytes.LastIndexByte(raw, ')')
	if i < 0 {
		return 0, errors.New("unparsable /proc stat")
	}
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return (utime + stime) / clockTick, nil
}

// readRSS returns the resident set size of pid in MiB.
func readRSS(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmRSS in /proc status")
}

// refSink keeps the reference kernel's result live.
var refSink float64

// refMFLOPS runs a fixed float64 kernel, a 64×64 matrix product, for d
// and returns its rate in MFLOP/s: how fast this host ran when the run
// was measured, from code the program under test cannot change.
func refMFLOPS(d time.Duration) float64 {
	const n = 64
	a, b, c := make([]float64, n*n), make([]float64, n*n), make([]float64, n*n)
	for i := range a {
		a[i], b[i] = float64(i%7)*0.5, float64(i%5)*0.25
	}
	var flops float64
	start := time.Now()
	for time.Since(start) < d {
		for i := 0; i < n; i++ {
			for k := 0; k < n; k++ {
				aik := a[i*n+k]
				for j := 0; j < n; j++ {
					c[i*n+j] += aik * b[k*n+j]
				}
			}
		}
		flops += 2 * n * n * n
	}
	refSink = c[0]
	return flops / time.Since(start).Seconds() / 1e6
}

// cpuTimes is the machine-wide CPU time split /proc/stat reports.
type cpuTimes struct{ steal, total float64 }

func readCPUTimes() (cpuTimes, error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}, err
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTimes{}, errors.New("unparsable /proc/stat")
	}
	var t cpuTimes
	for i, s := range f[1:] {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return cpuTimes{}, err
		}
		if i < 8 { // guest time is already counted in user time
			t.total += v
		}
		if i == 7 {
			t.steal = v
		}
	}
	return t, nil
}
