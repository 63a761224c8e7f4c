package main

import (
	"bufio"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func mkdir(dir string) error { return os.MkdirAll(dir, 0o755) }

// peakRSSMB reads VmHWM, the resident-set high-water mark, of a process
// (0 means this one).
func peakRSSMB(pid int) float64 {
	path := "/proc/self/status"
	if pid > 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	f, err := os.Open(path)
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// resetPeakRSS returns freed memory to the OS and resets this process's
// VmHWM to its current RSS, so the peak read after the measured phase
// covers that phase and not set-up (the oracle's sequential reference
// runs, the discarded set-up worlds).
func resetPeakRSS() string {
	runtime.GC()
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Sprintf("VmHWM over the whole process (reset failed: %v)", err)
	}
	return "VmHWM over the measured phase"
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// daemon is one oniond process serving the Fig. 2 world from a data dir.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	log    *os.File
	exited chan struct{} // closed once the process has been reaped
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon starts oniond on dataDir and returns once /readyz answers
// 200, with the time from process start to that answer.
func startDaemon(bin, dataDir, logPath string) (*daemon, time.Duration, error) {
	if bin == "" {
		return nil, 0, fmt.Errorf("no oniond binary given (-oniond)")
	}
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, 0, err
		}
		logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, 0, err
		}
		addr := fmt.Sprintf("127.0.0.1:%d", port)
		cmd := exec.Command(bin, "-fig2", "-data-dir", dataDir, "-addr", addr)
		cmd.Stdout, cmd.Stderr = logf, logf
		// The daemon dies with the benchmark even if the benchmark is killed.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		t0 := time.Now()
		if err := cmd.Start(); err != nil {
			logf.Close()
			return nil, 0, fmt.Errorf("starting oniond: %w", err)
		}
		d := &daemon{cmd: cmd, base: "http://" + addr, log: logf, exited: make(chan struct{})}
		go func() {
			// The one Wait; kill() waits for this goroutine's close.
			cmd.Wait()
			close(d.exited)
		}()
		ready, err := d.waitReady(60 * time.Second)
		if err == nil {
			return d, ready.Sub(t0), nil
		}
		lastErr = err
		d.kill()
	}
	return nil, 0, fmt.Errorf("oniond never became ready: %w", lastErr)
}

// waitReady polls /readyz every 2 ms until it answers 200.
func (d *daemon) waitReady(limit time.Duration) (time.Time, error) {
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		resp, err := client.Get(d.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return time.Now(), nil
			}
		}
		select {
		case <-d.exited:
			return time.Time{}, fmt.Errorf("oniond exited during start-up (see %s)", d.log.Name())
		case <-time.After(2 * time.Millisecond):
		}
	}
	return time.Time{}, fmt.Errorf("no 200 from %s/readyz within %v", d.base, limit)
}

// peakRSSMB is the daemon's resident-set high-water mark so far.
func (d *daemon) peakRSSMB() float64 { return peakRSSMB(d.cmd.Process.Pid) }

// kill sends SIGKILL — a crash, so no shutdown snapshot runs — and waits
// for the process to end.
func (d *daemon) kill() {
	if d == nil || d.cmd == nil {
		return
	}
	d.cmd.Process.Kill()
	<-d.exited
	d.log.Close()
	d.cmd = nil
}
