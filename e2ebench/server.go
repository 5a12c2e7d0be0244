package main

import (
	"bytes"
	"encoding/json"
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

// serverFlags are the durserve flags of every workload: the gbm and walk
// model parameters the reference is computed for and a fixed base seed.
// Pool, simulation workers, plan cache and coalescing window keep their
// defaults.
func serverFlags(p modelParams) []string {
	return []string{
		"-s0", strconv.FormatFloat(p.s0, 'g', -1, 64),
		"-drift", strconv.FormatFloat(p.drift, 'g', -1, 64),
		"-sigma", strconv.FormatFloat(p.sigma, 'g', -1, 64),
		"-start", strconv.FormatFloat(p.start, 'g', -1, 64),
		"-seed", "1",
	}
}

// server is one durserve subprocess and the single keep-alive connection
// the closed-loop client drives it over.
type server struct {
	cmd     *exec.Cmd
	base    string
	client  *http.Client
	started time.Time
	log     *os.File
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startServer launches durserve with the given extra flags and waits until
// GET /readyz answers 200: the listener is up and any WAL recovery is over.
func startServer(bin, logPath string, extra ...string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	args := append([]string{"-addr", fmt.Sprintf("127.0.0.1:%d", port)}, serverFlags(serverModel)...)
	cmd := exec.Command(bin, append(args, extra...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s := &server{
		cmd:  cmd,
		base: fmt.Sprintf("http://127.0.0.1:%d", port),
		// One connection, kept alive: the closed loop never has two
		// requests in flight.
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}},
		log:    logf,
	}
	s.started = time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting durserve: %w", err)
	}
	deadline := s.started.Add(60 * time.Second)
	for {
		resp, err := s.client.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, fmt.Errorf("durserve not ready after 60s (log %s)", logPath)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// kill ends the server with SIGKILL — no shutdown checkpoint, exactly a
// crash — and waits for the process to exit.
func (s *server) kill() {
	_ = s.cmd.Process.Kill() // an already-exited process is fine
	_ = s.cmd.Wait()         // the exit status of a killed process carries nothing
	s.client.CloseIdleConnections()
	s.log.Close()
}

// post sends one request and reads the whole response; it returns the
// status, the body and the time from sending to the last body byte.
func (s *server) post(path string, body []byte) (int, []byte, time.Duration, error) {
	began := time.Now()
	resp, err := s.client.Post(s.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, time.Since(began), err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, out, time.Since(began), err
}

// getJSON fetches an untimed introspection endpoint into v.
func (s *server) getJSON(path string, v any) error {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// cpuTicks reads a process's user+system CPU time, in clock ticks, from
// /proc/<pid>/stat.
func cpuTicks(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; the fields after it are fixed.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc/%d/stat", pid)
	}
	return utime + stime, nil
}

// clockTick is USER_HZ, the unit of /proc CPU times, on every Linux ABI Go
// supports.
const clockTick = 10 * time.Millisecond

// peakRSSMB reads a process's VmHWM from /proc/<pid>/status, in MB.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// hostCPU reads the machine-wide steal and total jiffies from /proc/stat.
func hostCPU() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i, v := range f[1:] {
		n, _ := strconv.ParseInt(v, 10, 64)
		if i < 8 { // guest times are already inside user and nice
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// referenceLoop times a fixed CPU-bound loop. Its time, recorded beside
// every run's metrics, tells a slow host apart from a slow program.
func referenceLoop() time.Duration {
	began := time.Now()
	x, acc := uint64(88172645463325252), 0.0
	for i := 0; i < 20_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		acc += float64(x>>11) * 0x1p-53
	}
	if acc < 0 { // never true; keeps the loop from being optimized away
		fmt.Fprintln(os.Stderr, acc)
	}
	return time.Since(began)
}

// copyDir copies a directory tree of regular files.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
}
