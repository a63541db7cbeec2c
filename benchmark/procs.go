package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"duopacity/internal/certd"
)

// builtBinaries are the programs under test, built from the checkout the
// benchmark runs in.
var builtBinaries = []string{"./cmd/certd", "./cmd/ducheck"}

// findRoot walks up from the working directory to the module root.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		mod, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && bytes.HasPrefix(mod, []byte("module duopacity\n")) {
			if _, err := os.Stat(filepath.Join(dir, "cmd", "certd")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no duopacity module with cmd/certd at or above the working directory")
		}
		dir = parent
	}
}

func buildBinaries(ctx context.Context, root, binDir string) error {
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return err
	}
	args := append([]string{"build", "-o", binDir + string(os.PathSeparator)}, builtBinaries...)
	cmd := exec.CommandContext(ctx, "go", args...)
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build: %w\n%s", err, out)
	}
	return nil
}

// firstLine is a process's stdout: it hands the first complete line to
// whoever waits for the process to announce itself and drops the rest.
type firstLine struct {
	mu   sync.Mutex
	buf  []byte
	sent bool
	ch   chan string
}

func newFirstLine() *firstLine { return &firstLine{ch: make(chan string, 1)} }

func (f *firstLine) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.sent {
		f.buf = append(f.buf, p...)
		if i := bytes.IndexByte(f.buf, '\n'); i >= 0 {
			f.sent = true
			f.ch <- string(f.buf[:i])
			f.buf = nil
		}
	}
	return len(p), nil
}

// proc is a started child and the goroutine-free way to wait for it once.
type proc struct {
	cmd  *exec.Cmd
	done chan struct{} // closed when Wait has returned
}

func startProc(bin string, args ...string) (*proc, string, error) {
	out := newFirstLine()
	cmd := exec.Command(bin, args...)
	cmd.Stdout = out
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = childAttr()
	if err := cmd.Start(); err != nil {
		return nil, "", err
	}
	p := &proc{cmd: cmd, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // exit status is irrelevant: stop() decides how it ends
		close(p.done)
	}()
	select {
	case line := <-out.ch:
		return p, line, nil
	case <-p.done:
		return nil, "", fmt.Errorf("%s %s exited before announcing itself", filepath.Base(bin), args[0])
	case <-time.After(15 * time.Second):
		p.stop()
		return nil, "", fmt.Errorf("%s %s printed nothing within 15s", filepath.Base(bin), args[0])
	}
}

// stop ends the child: SIGTERM (certd drains on it), SIGKILL after 5s,
// and returns only once the process has been reaped.
func (p *proc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(5 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

// system is the deployment under test: one coordinator and its workers.
type system struct {
	server     *proc
	workers    []*proc
	streamAddr string
	client     *certd.Client
}

// live tracks every started system so that a signal can stop them all.
var live struct {
	mu      sync.Mutex
	systems map[*system]struct{}
}

func startSystem(binDir string, workers int) (*system, error) {
	certdBin := filepath.Join(binDir, "certd")
	sys := &system{}
	live.mu.Lock()
	if live.systems == nil {
		live.systems = make(map[*system]struct{})
	}
	live.systems[sys] = struct{}{}
	live.mu.Unlock()

	srv, line, err := startProc(certdBin, "serve", "-addr", "127.0.0.1:0", "-stream-addr", "127.0.0.1:0")
	if err != nil {
		sys.stop()
		return nil, err
	}
	sys.server = srv
	// "certd: jobs on <addr>, streams on <addr>"
	_, rest, ok1 := strings.Cut(line, "jobs on ")
	jobs, rest, ok2 := strings.Cut(rest, ", streams on ")
	if !ok1 || !ok2 {
		sys.stop()
		return nil, fmt.Errorf("certd serve announced %q, want its two addresses", line)
	}
	sys.streamAddr = strings.TrimSpace(rest)
	sys.client = &certd.Client{Base: "http://" + jobs}
	for i := 0; i < workers; i++ {
		w, _, err := startProc(certdBin, "work", "-connect", sys.client.Base, "-name", fmt.Sprintf("w%d", i))
		if err != nil {
			sys.stop()
			return nil, err
		}
		sys.workers = append(sys.workers, w)
	}
	if _, err := sys.client.Stats(context.Background()); err != nil {
		sys.stop()
		return nil, fmt.Errorf("certd serve is not answering: %w", err)
	}
	return sys, nil
}

// stop kills and reaps every process of the system; safe to call twice.
func (s *system) stop() {
	live.mu.Lock()
	_, running := live.systems[s]
	delete(live.systems, s)
	live.mu.Unlock()
	if !running {
		return
	}
	for _, w := range s.workers {
		w.stop()
	}
	if s.server != nil {
		s.server.stop()
	}
}

func stopAllSystems() {
	live.mu.Lock()
	var all []*system
	for s := range live.systems {
		all = append(all, s)
	}
	live.mu.Unlock()
	for _, s := range all {
		s.stop()
	}
}

// cpuTicksPerSecond is USER_HZ, which Linux fixes at 100 for /proc.
const cpuTicksPerSecond = 100

// cpuSeconds reads user+system CPU time consumed so far by a process.
func cpuSeconds(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields are counted
	// from the closing parenthesis: state is field 3, utime 14, stime 15.
	i := bytes.LastIndexByte(raw, ')')
	f := strings.Fields(string(raw[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected shape", pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad cpu fields", pid)
	}
	return (utime + stime) / cpuTicksPerSecond, nil
}

// peakRSSMB reads VmHWM, the process's peak resident set.
func peakRSSMB(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
}

// cpu sums the CPU seconds of the server (workers too when all is set).
func (s *system) cpu(all bool) (float64, error) {
	total, err := cpuSeconds(s.server.pid())
	if err != nil || !all {
		return total, err
	}
	for _, w := range s.workers {
		c, err := cpuSeconds(w.pid())
		if err != nil {
			return 0, err
		}
		total += c
	}
	return total, nil
}
