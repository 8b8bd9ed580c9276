package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"repro/internal/service"
)

// environment is what the serving workloads share: where the checkout
// is, where outputs go, and the pilutd binary (built once per process).
type environment struct {
	root, outDir string

	buildOnce sync.Once
	bin       string
	buildS    float64
	buildErr  error
}

// pilutd builds cmd/pilutd from the checkout's source and returns the
// binary's path. The go tool decides staleness, so a changed tree is
// always rebuilt and an unchanged one costs a cache lookup; the time is
// reported as harness.build_s and never counted into setup_s.
func (e *environment) pilutd() (string, error) {
	e.buildOnce.Do(func() {
		e.bin = filepath.Join(e.outDir, "bin", "pilutd")
		t0 := time.Now()
		cmd := exec.Command("go", "build", "-o", e.bin, "repro/cmd/pilutd")
		cmd.Dir = filepath.Join(e.root, "bench")
		if out, err := cmd.CombinedOutput(); err != nil {
			e.buildErr = fmt.Errorf("building pilutd: %v\n%s", err, out)
		}
		e.buildS = time.Since(t0).Seconds()
	})
	return e.bin, e.buildErr
}

// daemon is one running pilutd.
type daemon struct {
	url     string
	cmd     *exec.Cmd
	log     bytes.Buffer
	exited  chan struct{}
	startMs float64 // exec → first healthy answer
}

// freeAddrs reserves n distinct loopback ports and releases them for the
// daemons to rebind; holding all n listeners open until the last is taken
// is what keeps them distinct.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer ln.Close()
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}

// startDaemon starts pilutd on addr with args and waits until it answers
// its health probe. The child dies with the harness (Pdeathsig), so no
// daemon outlives a crashed run.
func startDaemon(bin, addr string, args ...string) (*daemon, error) {
	d := &daemon{url: "http://" + addr, exited: make(chan struct{})}
	d.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	d.cmd.Stderr = &d.log
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting pilutd: %w", err)
	}
	go func() {
		_ = d.cmd.Wait() // the exit status of a daemon we signal ourselves says nothing
		close(d.exited)
	}()
	for deadline := t0.Add(20 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		resp, err := http.Get(d.url + "/healthz?scope=local")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("pilutd exited during start-up:\n%s", d.log.String())
		default:
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("pilutd at %s never became healthy:\n%s", d.url, d.log.String())
		}
	}
	d.startMs = float64(time.Since(t0)) / float64(time.Millisecond)
	return d, nil
}

// stop asks the daemon to drain (SIGTERM), kills it if it does not, and
// returns only once the process has ended.
func (d *daemon) stop() {
	if d == nil {
		return
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if already gone
	select {
	case <-d.exited:
	case <-time.After(5 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

func (d *daemon) peakRSSMB() float64 { return rssPeakMB(d.cmd.Process.Pid) }

func (d *daemon) stats() (service.Stats, error) {
	var st service.Stats
	resp, err := http.Get(d.url + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET /v1/stats: HTTP %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// call is one HTTP exchange as the client saw it.
type call struct {
	ms                  float64 // request written → reply fully read
	status              int
	reqBytes, respBytes int
	body                []byte
}

// post sends one request on client and reads the whole reply.
func post(client *http.Client, url, contentType string, body []byte) (call, error) {
	t0 := time.Now()
	resp, err := client.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		return call{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return call{}, err
	}
	return call{
		ms:     float64(time.Since(t0)) / float64(time.Millisecond),
		status: resp.StatusCode, reqBytes: len(body), respBytes: len(data), body: data,
	}, nil
}

// newClient returns an HTTP client that keeps at most conns connections
// to the daemon open and reuses them, as a closed-loop caller would.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
	}}
}
