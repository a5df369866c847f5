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
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// pdbd is one running server process. Its stderr is kept line by line:
// startup errors for diagnostics and, in traced runs, the per-request
// slow-query records.
type pdbd struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port

	mu    sync.Mutex
	lines []string
	done  chan struct{} // closed when stderr reaches EOF
}

// freePort asks the kernel for an unused loopback port.
func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

func startPdbd(bin string, args ...string) (*pdbd, error) {
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(filepath.Join(bin, "pdbd"), append([]string{"-addr", addr}, args...)...)
	// The server must not outlive the benchmark, whatever ends it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	// One P: with a second, the garbage collector fills the idle one with
	// mark workers for as long as a cycle lasts in wall time, so the
	// server's CPU time per request would grow with host load.
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &pdbd{cmd: cmd, base: "http://" + addr, done: make(chan struct{})}
	go func() {
		defer close(p.done)
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			p.mu.Lock()
			p.lines = append(p.lines, sc.Text())
			p.mu.Unlock()
		}
	}()
	return p, nil
}

// takeLines returns the stderr lines read since the last call.
func (p *pdbd) takeLines() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := p.lines
	p.lines = nil
	return out
}

func (p *pdbd) tail() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.lines)
	if n > 5 {
		n = 5
	}
	return strings.Join(p.lines[len(p.lines)-n:], "\n")
}

// waitReady polls /healthz until it answers 200.
func (p *pdbd) waitReady(c *http.Client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := c.Get(p.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-p.done:
			return fmt.Errorf("pdbd exited during start-up: %s", p.tail())
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("pdbd not ready after %v: %s", timeout, p.tail())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// peakRSSMB reads the process's resident high-water mark (VmHWM).
func peakRSSMB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/" + pid + "/status")
}

func (p *pdbd) peakRSSMB() (float64, error) { return peakRSSMB(strconv.Itoa(p.cmd.Process.Pid)) }

// cpu is the CPU time the server has consumed so far, all threads included.
func (p *pdbd) cpu() (time.Duration, error) { return cpuTime(p.cmd.Process.Pid) }

// kill ends the process with SIGKILL (a crash, as far as pdbd can tell) and
// waits until it and its stderr reader have finished.
func (p *pdbd) kill() {
	p.cmd.Process.Kill()
	<-p.done
	p.cmd.Wait()
}

// newConn returns a client that holds at most one connection: the load
// generator's unit of concurrency.
func newConn() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   120 * time.Second,
	}
}

// post sends one JSON request and returns the status code and body.
func post(c *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// call posts v and decodes a 200 answer into out.
func call(c *http.Client, url string, v, out any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	code, b, err := post(c, url, body)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("%s: %d %s", url, code, bytes.TrimSpace(b))
	}
	return json.Unmarshal(b, out)
}

func get(c *http.Client, url string) (string, error) {
	resp, err := c.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: %d", url, resp.StatusCode)
	}
	return string(b), nil
}
