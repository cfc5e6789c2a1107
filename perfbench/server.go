package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// serverProc is one gdprkv-server process started by the benchmark.
type serverProc struct {
	cmd  *exec.Cmd
	addr string
	log  *os.File
	done chan struct{} // closed once the process has been waited for
}

// addrWriter passes the server's output to its log and reports the listen
// address from the "gdprkv-server listening on ADDR" line.
type addrWriter struct {
	mu   sync.Mutex
	w    io.Writer
	line []byte
	addr chan string // buffered; receives the address once
	sent bool
}

func (a *addrWriter) Write(p []byte) (int, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, c := range p {
		if c != '\n' {
			a.line = append(a.line, c)
			continue
		}
		if _, rest, ok := bytes.Cut(a.line, []byte("listening on ")); ok && !a.sent {
			if f := bytes.Fields(rest); len(f) > 0 {
				a.addr <- string(f[0])
				a.sent = true
			}
		}
		a.line = a.line[:0]
	}
	return a.w.Write(p)
}

// live lists the processes not yet waited for, so every exit path of the
// benchmark can stop them.
var live struct {
	sync.Mutex
	procs map[*serverProc]bool
}

// startServer launches bin with args, its output appended to logPath, and
// waits until it listens.
func startServer(bin string, args []string, logPath string) (*serverProc, error) {
	lf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	aw := &addrWriter{w: lf, addr: make(chan string, 1)}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = aw
	cmd.Stderr = lf
	// The server dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	p := &serverProc{cmd: cmd, log: lf, done: make(chan struct{})}
	live.Lock()
	if live.procs == nil {
		live.procs = make(map[*serverProc]bool)
	}
	live.procs[p] = true
	live.Unlock()
	go func() {
		_ = cmd.Wait()
		lf.Close()
		live.Lock()
		delete(live.procs, p)
		live.Unlock()
		close(p.done)
	}()
	select {
	case p.addr = <-aw.addr:
		return p, nil
	case <-p.done:
		return nil, fmt.Errorf("server exited before listening; see %s", logPath)
	case <-time.After(120 * time.Second):
		p.kill()
		return nil, fmt.Errorf("server did not listen within 120s; see %s", logPath)
	}
}

// stop sends SIGTERM and waits for a clean exit, killing the process if
// it has not exited within a minute.
func (p *serverProc) stop() error {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(60 * time.Second):
		p.kill()
		return fmt.Errorf("server pid %d ignored SIGTERM for 60s", p.cmd.Process.Pid)
	}
	if st := p.cmd.ProcessState; st == nil || !st.Success() {
		return fmt.Errorf("server pid %d exited uncleanly: %v", p.cmd.Process.Pid, st)
	}
	return nil
}

// kill stops the process at once and waits for it.
func (p *serverProc) kill() {
	_ = p.cmd.Process.Kill()
	<-p.done
}

// killAll stops every server still running.
func killAll() {
	live.Lock()
	ps := make([]*serverProc, 0, len(live.procs))
	for p := range live.procs {
		ps = append(ps, p)
	}
	live.Unlock()
	for _, p := range ps {
		p.kill()
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func (p *serverProc) peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/" + strconv.Itoa(p.cmd.Process.Pid) + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", p.cmd.Process.Pid)
}
