package main

import (
	"bytes"
	"errors"
	"fmt"
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

// buildServer compiles ./cmd/ftpm-serve of the checkout at root into bin.
// It runs before any timer starts; an up-to-date binary is not relinked.
func buildServer(root, bin string) error {
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/ftpm-serve")
	cmd.Dir = root
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("building ftpm-serve: %v\n%s", err, out.Bytes())
	}
	return nil
}

// serverProc is one running ftpm-serve process on a loopback port.
type serverProc struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:<port>
	logPath string
	exited  chan struct{}
	waitErr error // valid once exited is closed
}

// startServer execs bin on a free loopback port with GOMAXPROCS pinned and
// stderr appended to logPath. extra are further ftpm-serve flags.
func startServer(bin, logPath string, gomaxprocs int, extra ...string) (*serverProc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, append([]string{"-addr", addr}, extra...)...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(gomaxprocs))
	cmd.Stdout, cmd.Stderr = logf, logf
	// A harness that dies without stopping its server takes the server
	// with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting ftpm-serve: %w", err)
	}
	p := &serverProc{cmd: cmd, base: "http://" + addr, logPath: logPath, exited: make(chan struct{})}
	go func() {
		p.waitErr = cmd.Wait()
		close(p.exited)
	}()
	return p, nil
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// readyPoll is the readiness polling interval; it bounds how late a
// start-up or restart time can read.
const readyPoll = 2 * time.Millisecond

// waitReady polls GET /v1/readyz until it answers 200.
func (p *serverProc) waitReady(timeout time.Duration) error {
	hc := &http.Client{Timeout: time.Second}
	defer hc.CloseIdleConnections()
	deadline := time.Now().Add(timeout)
	for {
		resp, err := hc.Get(p.base + "/v1/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-p.exited:
			return fmt.Errorf("ftpm-serve exited before becoming ready: %v%s", p.waitErr, p.logTail())
		case <-time.After(readyPoll):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("ftpm-serve not ready within %s%s", timeout, p.logTail())
		}
	}
}

// stop sends SIGTERM and waits for a graceful exit, killing the process
// if it has not exited within the grace period. It reports an unclean
// exit.
func (p *serverProc) stop() error {
	select {
	case <-p.exited:
		return p.exitErr()
	default:
	}
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	select {
	case <-p.exited:
		return p.exitErr()
	case <-time.After(30 * time.Second):
		p.kill()
		return fmt.Errorf("ftpm-serve did not stop within 30s of SIGTERM%s", p.logTail())
	}
}

// kill stops the process unconditionally and waits for it.
func (p *serverProc) kill() {
	_ = p.cmd.Process.Kill()
	<-p.exited
}

func (p *serverProc) exitErr() error {
	if p.waitErr != nil {
		return fmt.Errorf("ftpm-serve: %v%s", p.waitErr, p.logTail())
	}
	return nil
}

// logTail returns the end of the server log for error messages.
func (p *serverProc) logTail() string {
	b, err := os.ReadFile(p.logPath)
	if err != nil || len(b) == 0 {
		return ""
	}
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return "\nserver log tail:\n" + string(b)
}

// cpuMillis returns the CPU time the server's threads have used.
func (p *serverProc) cpuMillis() (float64, error) { return cpuMillis(p.cmd.Process.Pid) }

// cpuMillis returns the CPU time the threads of process pid have used, to
// the nanosecond: the sum of the first field of each thread's
// /proc/<pid>/task/<tid>/schedstat. /proc/<pid>/stat counts in 10 ms
// ticks, too coarse for one operation. The Go runtime keeps its threads,
// so none of the server's CPU time leaves the sum with an exited thread.
func cpuMillis(pid int) (float64, error) {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var ns int64
	for _, t := range tasks {
		b, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if errors.Is(err, os.ErrNotExist) {
			continue // the thread exited meanwhile
		}
		if err != nil {
			return 0, err
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return 0, fmt.Errorf("empty %s/%s/schedstat", dir, t.Name())
		}
		v, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s/%s/schedstat: %w", dir, t.Name(), err)
		}
		ns += v
	}
	return float64(ns) / 1e6, nil
}

const (
	// idleWindow and idleCPU: the server counts as idle once it used less
	// than idleCPU of CPU time over idleWindow.
	idleWindow = 2 * time.Millisecond
	idleCPU    = 0.1 // ms
	// idleWait bounds the wait; a server still busy then is sampled busy.
	idleWait = 500 * time.Millisecond
)

// waitIdle waits until the server has finished the work an operation left
// behind its response (collection, logging, bookkeeping), so that it does
// not run during a reference sample.
func (p *serverProc) waitIdle() error {
	prev, err := p.cpuMillis()
	if err != nil {
		return err
	}
	for deadline := time.Now().Add(idleWait); time.Now().Before(deadline); {
		time.Sleep(idleWindow)
		cur, err := p.cpuMillis()
		if err != nil {
			return err
		}
		if d := cur - prev; d >= 0 && d < idleCPU {
			return nil
		}
		prev = cur
	}
	return nil
}

// statusMB returns a memory field of /proc/<pid>/status, such as VmRSS
// (resident set size) or VmHWM (its peak).
func (p *serverProc) statusMB(field string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			if err != nil {
				return 0, err
			}
			return float64(kb) * 1024 / mb, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, p.cmd.Process.Pid)
}

// rssEvery is the resident-set sampling interval of the timed phase.
const rssEvery = 20 * time.Millisecond

// sampleRSS samples VmRSS until stop is closed and returns the samples.
func (p *serverProc) sampleRSS(stop <-chan struct{}) []float64 {
	var out []float64
	tick := time.NewTicker(rssEvery)
	defer tick.Stop()
	for {
		if v, err := p.statusMB("VmRSS"); err == nil {
			out = append(out, v)
		}
		select {
		case <-stop:
			return out
		case <-tick.C:
		}
	}
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}
