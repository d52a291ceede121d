package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/serve"
)

// server is one sfaserve child process listening on loopback.
type server struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	done chan struct{}
	err  error // Wait's result, valid once done is closed

	mu   sync.Mutex
	tail []string // last stderr lines, for error reports
}

var listenAddr = regexp.MustCompile(`msg=listening addr=(\S+)`)

// startServer launches bin with default flags except a loopback
// ephemeral port, and returns once it logs its listening address. The
// child is killed if this process dies first (Pdeathsig), so an
// interrupted run never leaves a server behind.
func startServer(bin string) (*server, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	s := &server{cmd: cmd, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		// Drains stderr for the child's whole life, so its logger never
		// blocks; exits when the child closes the pipe.
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			s.mu.Lock()
			s.tail = append(s.tail, line)
			if len(s.tail) > 20 {
				s.tail = s.tail[1:]
			}
			s.mu.Unlock()
			if m := listenAddr.FindStringSubmatch(line); m != nil {
				select {
				case addr <- m[1]:
				default:
				}
			}
		}
		s.err = cmd.Wait()
		close(s.done)
	}()
	select {
	case a := <-addr:
		s.base = "http://" + a
		return s, nil
	case <-s.done:
		return nil, fmt.Errorf("sfaserve exited before listening: %v\n%s", s.err, s.stderrTail())
	case <-time.After(60 * time.Second):
		s.stop()
		return nil, fmt.Errorf("sfaserve did not start listening within 60s\n%s", s.stderrTail())
	}
}

func (s *server) stderrTail() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return strings.Join(s.tail, "\n")
}

// stop asks the server to drain and exit (SIGTERM), kills it after 20 s,
// and returns once the process has been reaped.
func (s *server) stop() {
	select {
	case <-s.done:
		return
	default:
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // fails only if already exited
	select {
	case <-s.done:
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

// peakRSSMB reads the server's VmHWM (peak resident set) in MiB.
func (s *server) peakRSSMB() (float64, error) {
	return vmHWM(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
}

// selfPeakRSSMB is this process's VmHWM in MiB.
func selfPeakRSSMB() (float64, error) { return vmHWM("/proc/self/status") }

func vmHWM(status string) (float64, error) {
	b, err := os.ReadFile(status)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(v)
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", status)
}

// bootIDS starts a server and loads the standing ids tenant. It returns
// the server, the set-up time (process start until the PUT returned
// 201 Created with every rule loaded) and the PUT's own latency.
func bootIDS(bin, rulesText string, rules int) (s *server, setup, put time.Duration, err error) {
	start := time.Now()
	if s, err = startServer(bin); err != nil {
		return nil, 0, 0, err
	}
	t0 := time.Now()
	reply, code, err := putTenant(s.base, "ids", rulesText)
	put = time.Since(t0)
	if err == nil && (code != http.StatusCreated || reply.Rules != rules) {
		err = fmt.Errorf("PUT ids: status %d, %d of %d rules", code, reply.Rules, rules)
	}
	if err != nil {
		s.stop()
		return nil, 0, 0, err
	}
	return s, time.Since(start), put, nil
}

// putTenant uploads a rules file and decodes the load reply.
func putTenant(base, tenant, rulesText string) (serve.LoadReply, int, error) {
	req, err := http.NewRequest(http.MethodPut, base+"/v1/tenants/"+tenant, strings.NewReader(rulesText))
	if err != nil {
		return serve.LoadReply{}, 0, err
	}
	var reply serve.LoadReply
	code, err := doJSON(req, &reply)
	return reply, code, err
}

// deleteTenant removes a tenant and returns the status code.
func deleteTenant(base, tenant string) (int, error) {
	req, err := http.NewRequest(http.MethodDelete, base+"/v1/tenants/"+tenant, nil)
	if err != nil {
		return 0, err
	}
	var reply map[string]string
	return doJSON(req, &reply)
}

// doJSON performs req and decodes a 2xx JSON reply into out. The
// status code is returned either way; a non-2xx status is an error.
func doJSON(req *http.Request, out any) (int, error) {
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, fmt.Errorf("%s %s: reading reply: %w", req.Method, req.URL.Path, err)
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, fmt.Errorf("%s %s: status %d: %s", req.Method, req.URL.Path, resp.StatusCode, bytes.TrimSpace(body))
	}
	if err := json.Unmarshal(body, out); err != nil {
		return resp.StatusCode, fmt.Errorf("%s %s: decoding reply: %w", req.Method, req.URL.Path, err)
	}
	return resp.StatusCode, nil
}

// scrapeProm fetches /metrics in Prometheus text form and parses it.
func scrapeProm(base string) (map[string]float64, error) {
	resp, err := http.Get(base + "/metrics?format=prometheus")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	return promSamples(resp.Body)
}

// flightRecords fetches up to n of the newest /debug/scans records.
func flightRecords(base string, n int) (serve.FlightReply, error) {
	req, err := http.NewRequest(http.MethodGet, fmt.Sprintf("%s/debug/scans?n=%d", base, n), nil)
	if err != nil {
		return serve.FlightReply{}, err
	}
	var reply serve.FlightReply
	_, err = doJSON(req, &reply)
	return reply, err
}

// scanConn is one keep-alive HTTP/1.1 connection of a closed-loop scan
// client of the ids tenant. It writes each request and parses each response on the
// calling goroutine with net/http's wire code. Without http.Client's
// per-connection goroutines and hand-offs the load generator takes less
// of the CPU it shares with the server, and adds less jitter.
type scanConn struct {
	addr string // host:port
	c    net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
}

func newScanConn(base string) *scanConn {
	return &scanConn{addr: strings.TrimPrefix(base, "http://")}
}

// scan posts body and returns the reported match names. Any error
// leaves the connection closed; the next call redials.
func (k *scanConn) scan(body []byte) ([]string, error) {
	if k.c == nil {
		c, err := net.Dial("tcp", k.addr)
		if err != nil {
			return nil, err
		}
		k.c, k.br, k.bw = c, bufio.NewReaderSize(c, 16<<10), bufio.NewWriterSize(c, 64<<10)
	}
	matches, err := k.roundTrip(body)
	if err != nil {
		k.close()
	}
	return matches, err
}

func (k *scanConn) roundTrip(body []byte) ([]string, error) {
	fmt.Fprintf(k.bw, "POST /v1/tenants/ids/scan HTTP/1.1\r\nHost: %s\r\nContent-Type: application/octet-stream\r\nContent-Length: %d\r\n\r\n",
		k.addr, len(body))
	k.bw.Write(body)
	if err := k.bw.Flush(); err != nil {
		return nil, err
	}
	resp, err := http.ReadResponse(k.br, nil)
	if err != nil {
		return nil, err
	}
	reply, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scan: status %d: %s", resp.StatusCode, bytes.TrimSpace(reply))
	}
	if resp.Close {
		k.close()
	}
	var sr serve.ScanReply
	if err := json.Unmarshal(reply, &sr); err != nil {
		return nil, fmt.Errorf("scan: decoding reply: %w", err)
	}
	return sr.Matches, nil
}

func (k *scanConn) close() {
	if k.c != nil {
		k.c.Close()
		k.c = nil
	}
}
