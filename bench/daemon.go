package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one hdivexplorerd process under test.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://host:port
	// logDone closes once the stderr copier has drained the pipe.
	logDone chan struct{}
	log     *os.File
	exited  chan struct{}
	waitErr error
}

// startDaemon launches hdivexplorerd on an ephemeral loopback port with
// the given extra flags and returns once it is listening. Its log goes to
// logPath.
func startDaemon(ctx context.Context, bin, logPath string, flags ...string) (*daemon, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	args := append([]string{"-addr", "127.0.0.1:0"}, flags...)
	cmd := exec.Command(filepath.Join(bin, "hdivexplorerd"), args...)
	// The daemon dies with the bench even if the bench itself is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	d := &daemon{cmd: cmd, logDone: make(chan struct{}), log: logf, exited: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(d.logDone)
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64*1024), 1<<20)
		found := false
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if !found && strings.Contains(line, "msg=listening") {
				if _, a, ok := strings.Cut(line, "addr="); ok {
					found = true
					addr <- strings.Fields(a)[0]
				}
			}
		}
		_, _ = io.Copy(io.Discard, stderr)
	}()
	go func() {
		<-d.logDone // Wait must not run before the pipe is drained
		d.waitErr = cmd.Wait()
		close(d.exited)
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
		return d, nil
	case <-d.exited:
		d.closeLog()
		return nil, fmt.Errorf("hdivexplorerd exited before listening: %v (log %s)", d.waitErr, logPath)
	case <-time.After(30 * time.Second):
	case <-ctx.Done():
	}
	d.kill()
	return nil, fmt.Errorf("hdivexplorerd did not start listening (log %s)", logPath)
}

// waitReady polls /readyz until it answers 200.
func (d *daemon) waitReady(ctx context.Context, timeout time.Duration) error {
	c := newClient()
	defer c.CloseIdleConnections()
	deadline := time.Now().Add(timeout)
	for {
		rctx, cancel := context.WithTimeout(ctx, time.Second)
		_, err := get(rctx, c, d.base+"/readyz")
		cancel()
		if err == nil {
			return nil
		}
		select {
		case <-d.exited:
			return fmt.Errorf("hdivexplorerd exited while starting: %v", d.waitErr)
		default:
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			return fmt.Errorf("hdivexplorerd not ready after %v: %v", timeout, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// peakRSSMB reads the daemon's resident-set high-water mark (VmHWM).
func (d *daemon) peakRSSMB() (float64, error) {
	return vmHWM(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
}

func vmHWM(statusPath string) (float64, error) {
	raw, err := os.ReadFile(statusPath)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(v)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err != nil {
					return 0, err
				}
				return kb / 1024, nil
			}
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM line", statusPath)
}

// scrape fetches /metrics and returns every unlabelled sample by name.
func (d *daemon) scrape(ctx context.Context) (map[string]float64, error) {
	c := newClient()
	defer c.CloseIdleConnections()
	body, err := get(ctx, c, d.base+"/metrics")
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.ContainsRune(name, '{') {
			continue
		}
		v, err := strconv.ParseFloat(strings.Fields(val)[0], 64)
		if err != nil || math.IsNaN(v) {
			continue
		}
		out[name] = v
	}
	return out, nil
}

// stop shuts the daemon down gracefully (SIGTERM, drain), killing it if
// it has not exited within 10s.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		d.kill()
		return fmt.Errorf("hdivexplorerd ignored SIGTERM for 10s")
	}
	d.closeLog()
	var ee *exec.ExitError
	if d.waitErr != nil && !errors.As(d.waitErr, &ee) {
		return d.waitErr
	}
	if d.waitErr != nil {
		return fmt.Errorf("hdivexplorerd: %v", d.waitErr)
	}
	return nil
}

// kill ends the daemon with SIGKILL — the crash the live workload
// recovers from — and waits for the process to be gone.
func (d *daemon) kill() {
	if d == nil {
		return
	}
	_ = d.cmd.Process.Kill() // an already-exited process is fine
	<-d.exited
	d.closeLog()
}

func (d *daemon) closeLog() {
	if d.log != nil {
		d.log.Close()
		d.log = nil
	}
}
