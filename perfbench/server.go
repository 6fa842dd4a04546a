package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one parchmint-serve process booted by the benchmark.
type server struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:<port>
	logPath string
	exited  chan struct{}
}

// serverFlags are the flags the benchmark adds to the server's defaults:
// the listen address, the port file and, for the journaled workload, the
// journal.
func serverFlags(dir string, journal bool) []string {
	flags := []string{"-addr", "127.0.0.1:0", "-port-file", filepath.Join(dir, "port")}
	if journal {
		flags = append(flags, "-journal", filepath.Join(dir, "journal.jsonl"))
	}
	return flags
}

// boot starts the server and waits for the first 200 on /healthz. It
// returns the time from exec to that answer.
func boot(ctx context.Context, bin, dir string, flags []string) (*server, time.Duration, error) {
	portFile := filepath.Join(dir, "port")
	if err := os.Remove(portFile); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, 0, err
	}
	logPath := filepath.Join(dir, "server.log")
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	cmd := exec.Command(bin, flags...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	// The server must not outlive the benchmark, however it ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting %s: %w", bin, err)
	}
	s := &server{cmd: cmd, logPath: logPath, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait()
		close(s.exited)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		select {
		case <-s.exited:
			return nil, 0, fmt.Errorf("server exited during boot: %s\n%s", cmd.ProcessState, s.logTail())
		case <-ctx.Done():
			s.kill()
			return nil, 0, ctx.Err()
		default:
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, 0, fmt.Errorf("server did not answer /healthz within 30s\n%s", s.logTail())
		}
		if s.base == "" {
			if data, err := os.ReadFile(portFile); err == nil && bytes.HasSuffix(data, []byte("\n")) {
				s.base = "http://127.0.0.1:" + strings.TrimSpace(string(data))
			}
		}
		if s.base != "" && healthy(ctx, s.base) {
			return s, time.Since(start), nil
		}
		time.Sleep(100 * time.Microsecond)
	}
}

var healthClient = &http.Client{Timeout: 2 * time.Second}

func healthy(ctx context.Context, base string) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := healthClient.Do(req)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// kill sends SIGKILL and waits until the process has exited.
func (s *server) kill() {
	_ = s.cmd.Process.Signal(syscall.SIGKILL)
	<-s.exited
}

// logTail returns the last lines of the server's stderr.
func (s *server) logTail() string {
	data, err := os.ReadFile(s.logPath)
	if err != nil {
		return "(no server log: " + err.Error() + ")"
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) > 20 {
		lines = lines[len(lines)-20:]
	}
	return "server stderr (tail):\n  " + strings.Join(lines, "\n  ")
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat times on Linux.
const clockTick = 10 * time.Millisecond

// cpuTime returns the server's utime and stime from /proc.
func (s *server) cpuTime() (user, system time.Duration, err error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, 0, fmt.Errorf("malformed /proc stat line")
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, 0, err
	}
	return time.Duration(ut) * clockTick, time.Duration(st) * clockTick, nil
}

// peakRSS returns the server's VmHWM in MiB.
func (s *server) peakRSS() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}
