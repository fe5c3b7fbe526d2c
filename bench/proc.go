package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// spawnCh runs process starts on one OS thread that never exits:
// Pdeathsig fires when the starting thread dies, so a child started from
// a short-lived runtime thread would be killed at random.
var spawnCh = make(chan func())

func init() {
	go func() {
		runtime.LockOSThread()
		for f := range spawnCh {
			f()
		}
	}()
}

// fleet owns every kjoin-serve process of a run: it starts them on free
// loopback ports, records their pids so a later run can refuse to start
// beside a leftover, and kills and reaps them all on any exit path.
type fleet struct {
	serveBin string
	dir      string // per-run scratch directory inside the checkout
	pidFile  string

	mu     sync.Mutex
	procs  []*proc
	closed bool // set by close: nothing starts afterwards
}

type proc struct {
	cmd    *exec.Cmd
	url    string
	exited chan struct{}
}

// newFleet refuses to run while a kjoin-serve recorded by an earlier run
// of this checkout is still alive.
func newFleet(serveBin, buildDir string) (*fleet, error) {
	pidFile := filepath.Join(buildDir, "children.pids")
	if b, err := os.ReadFile(pidFile); err == nil {
		for _, f := range strings.Fields(string(b)) {
			cmdline, err := os.ReadFile("/proc/" + f + "/cmdline")
			if err == nil && bytes.Contains(cmdline, []byte("kjoin-serve")) {
				return nil, fmt.Errorf("stale kjoin-serve (pid %s) from a previous run is still alive; kill it first", f)
			}
		}
	}
	dir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return nil, err
	}
	return &fleet{serveBin: serveBin, dir: dir, pidFile: pidFile}, nil
}

// tempDir makes a fresh directory under the run's scratch directory.
func (f *fleet) tempDir(pattern string) string {
	d, err := os.MkdirTemp(f.dir, pattern)
	if err != nil {
		fatalf("temp dir: %v", err)
	}
	return d
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// start launches kjoin-serve with -addr on a free loopback port plus
// args, logging to name.log in the run directory.
func (f *fleet) start(name string, args ...string) (*proc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(filepath.Join(f.dir, name+".log"), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(f.serveBin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	// Started and registered under the lock, so close either sees the
	// process or keeps it from starting.
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		_ = logf.Close() // nothing was started
		return nil, errors.New("fleet is closed")
	}
	errc := make(chan error)
	spawnCh <- func() { errc <- cmd.Start() }
	err = <-errc
	_ = logf.Close() // the child holds its own descriptor
	if err != nil {
		return nil, err
	}
	p := &proc{cmd: cmd, url: "http://" + addr, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // exit status is irrelevant: the bench kills its servers
		close(p.exited)
	}()
	f.procs = append(f.procs, p)
	pf, err := os.OpenFile(f.pidFile, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(pf, cmd.Process.Pid)
	return p, pf.Close()
}

// ready polls /readyz until it answers 200.
func (p *proc) ready(hc *http.Client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-p.exited:
			return errors.New("server exited before becoming ready")
		default:
		}
		resp, err := hc.Get(p.url + "/readyz")
		if err == nil {
			ok := resp.StatusCode == http.StatusOK
			_ = resp.Body.Close() // body unused
			if ok {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("server not ready within %v", timeout)
}

// stop sends sig and reaps the process, escalating to SIGKILL if it
// lingers.
func (p *proc) stop(sig syscall.Signal) {
	_ = p.cmd.Process.Signal(sig) // already-exited is fine
	select {
	case <-p.exited:
	case <-time.After(20 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.exited
	}
}

// peakRSSMB is the process's VmHWM.
func (p *proc) peakRSSMB() float64 { return vmHWM(strconv.Itoa(p.cmd.Process.Pid)) }

func vmHWM(pid string) float64 {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// close kills and reaps every process still running and removes the
// run's scratch directory and pid record.
func (f *fleet) close() {
	f.mu.Lock()
	procs := f.procs
	f.procs, f.closed = nil, true
	f.mu.Unlock()
	for _, p := range procs {
		p.stop(syscall.SIGKILL)
	}
	_ = os.RemoveAll(f.dir)
	_ = os.Remove(f.pidFile)
}
