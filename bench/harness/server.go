package harness

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// FindRoot walks up from the working directory to the module root
// (the directory holding go.mod and cmd/charles-server).
func FindRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "cmd", "charles-server")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("bench: no charles module root (go.mod + cmd/charles-server) at or above the working directory")
		}
		dir = parent
	}
}

// GoBuild builds pkg (relative to root) into out. Building is not
// part of any metric.
func GoBuild(root, out, pkg string, tags string) error {
	args := []string{"build"}
	if tags != "" {
		args = append(args, "-tags", tags)
	}
	args = append(args, "-o", out, pkg)
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	if b, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, b)
	}
	return nil
}

// Server is one charles-server child process.
type Server struct {
	Base  string // http://127.0.0.1:port
	Flags []string
	// BootMS is process start to the first /healthz 200.
	BootMS float64

	cmd     *exec.Cmd
	logPath string
	logFile *os.File
	exited  chan struct{}
	stop    sync.Once
}

// live tracks running children so an interrupt can reap them all.
var live struct {
	mu sync.Mutex
	m  map[*Server]bool
}

// StopAll terminates every live child; the signal handler and the
// failure paths call it so no server outlives the benchmark.
func StopAll() {
	live.mu.Lock()
	servers := make([]*Server, 0, len(live.m))
	//lint:deterministic every live child is stopped; the order they are stopped in reaches no output
	for s := range live.m {
		servers = append(servers, s)
	}
	live.mu.Unlock()
	for _, s := range servers {
		s.Stop()
	}
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

// StartServer launches bin with the shipped default flags plus the
// given data flags on a free port, sends its stderr (access logs) to
// logPath, and waits for /healthz. If the child exits or never
// answers, it is reaped and the error carries the log's tail.
func StartServer(bin, logPath string, flags ...string) (*Server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	s := &Server{Base: "http://" + addr, Flags: flags, logPath: logPath, logFile: logFile, exited: make(chan struct{})}
	s.cmd = exec.Command(bin, append(append([]string{}, flags...), "-addr", addr)...)
	s.cmd.Stdout = logFile
	s.cmd.Stderr = logFile
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		logFile.Close()
		return nil, err
	}
	go func() {
		_ = s.cmd.Wait() // the exit status of a signalled child is not news
		close(s.exited)
	}()
	live.mu.Lock()
	if live.m == nil {
		live.m = map[*Server]bool{}
	}
	live.m[s] = true
	live.mu.Unlock()

	client := &http.Client{Timeout: time.Second}
	deadline := start.Add(60 * time.Second)
	for {
		resp, err := client.Get(s.Base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // drained only so the connection is reusable
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.BootMS = float64(time.Since(start).Nanoseconds()) / 1e6
				return s, nil
			}
		}
		select {
		case <-s.exited:
			s.Stop()
			return nil, fmt.Errorf("charles-server exited before /healthz answered; log tail:\n%s", s.LogTail())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.Stop()
			return nil, fmt.Errorf("charles-server did not answer /healthz within 60s; log tail:\n%s", s.LogTail())
		}
	}
}

// Stop sends SIGTERM, waits for the child to drain and exit, kills it
// if it will not, and returns only once it has been reaped.
func (s *Server) Stop() {
	s.stop.Do(func() {
		_ = s.cmd.Process.Signal(syscall.SIGTERM) // already-exited is fine
		select {
		case <-s.exited:
		case <-time.After(15 * time.Second):
			_ = s.cmd.Process.Kill()
			<-s.exited
		}
		s.logFile.Close()
		live.mu.Lock()
		delete(live.m, s)
		live.mu.Unlock()
	})
}

// LogTail returns the last lines of the server's log.
func (s *Server) LogTail() string {
	b, err := os.ReadFile(s.logPath)
	if err != nil {
		return err.Error()
	}
	lines := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
	if len(lines) > 20 {
		lines = lines[len(lines)-20:]
	}
	return strings.Join(lines, "\n")
}

// PeakRSSMB reads the child's VmHWM.
func (s *Server) PeakRSSMB() float64 { return peakRSSMB(s.cmd.Process.Pid) }

// peakRSSMB reads VmHWM (MiB) from /proc/<pid>/status; 0 where the
// platform has no such file.
func peakRSSMB(pid int) float64 {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				kb, _ := strconv.ParseFloat(fields[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// Scrape reads GET /metrics into family → value (histogram buckets
// keep their label string in the key).
func (s *Server) Scrape() (map[string]float64, error) {
	resp, err := http.Get(s.Base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// JSONSegment, JSONSegmentation, JSONResult and JSONJob mirror the
// server's response shapes.
type JSONSegment struct {
	SDL   string `json:"sdl"`
	SQL   string `json:"sql"`
	Count int    `json:"count"`
}

type JSONSegmentation struct {
	Rank       int           `json:"rank"`
	Score      float64       `json:"score"`
	Entropy    float64       `json:"entropy"`
	Balance    float64       `json:"balance"`
	Breadth    int           `json:"breadth"`
	Simplicity int           `json:"simplicity"`
	CutAttrs   []string      `json:"cut_attrs"`
	Segments   []JSONSegment `json:"segments"`
}

type JSONResult struct {
	Context       string             `json:"context"`
	Segmentations []JSONSegmentation `json:"segmentations"`
	SkippedAttrs  []string           `json:"skipped_attrs,omitempty"`
	Iterations    int                `json:"iterations"`
	IndepEvals    int                `json:"indep_evals"`
	StopReason    string             `json:"stop_reason"`
}

type JSONJob struct {
	ID     string      `json:"id"`
	State  string      `json:"state"`
	Cached bool        `json:"cached,omitempty"`
	Error  string      `json:"error,omitempty"`
	Result *JSONResult `json:"result,omitempty"`
	Trace  []Stage     `json:"trace,omitempty"`
}

// Client is one closed-loop HTTP client: one keep-alive connection,
// the next request only after the previous reply.
type Client struct {
	base string
	hc   *http.Client
	tr   *Tracer
}

// NewClient returns a client for the server.
func (s *Server) NewClient(tr *Tracer) *Client {
	return &Client{base: s.Base, tr: tr, hc: &http.Client{
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
	}}
}

// do sends one request and decodes a JSON reply into v.
func (c *Client) do(method, path string, body []byte, v any) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if v != nil {
		if err := json.Unmarshal(b, v); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: status %d, undecodable body %.200q", method, path, resp.StatusCode, b)
		}
	}
	return resp.StatusCode, nil
}

// pollEvery is how long a client sleeps between job polls.
const pollEvery = 2 * time.Millisecond

// AdviseReply is what one submit-and-wait observed.
type AdviseReply struct {
	Job      JSONJob
	Hit      bool // served without running an advise for this request
	Latency  time.Duration
	SubmitMS float64
	PollMS   []float64
}

// Advise submits a context and polls its job every 2 ms until a
// terminal state. Anything but a result — a refusal (429/503/413), a
// failed, cancelled or timed-out job, a transport error — is an
// error. With a tracer it asks the server for the job's stage trace
// and records the round trips as spans.
func (c *Client) Advise(op int, sdl string) (*AdviseReply, error) {
	body, _ := json.Marshal(map[string]any{"context": sdl, "trace": c.tr != nil})
	rep := &AdviseReply{}
	start := time.Now()
	status, err := c.do(http.MethodPost, "/advise", body, &rep.Job)
	submitted := time.Now()
	rep.SubmitMS = float64(submitted.Sub(start).Nanoseconds()) / 1e6
	var polls [][2]time.Time
	finish := func() {
		rep.Latency = time.Since(start)
		if c.tr != nil {
			root := c.tr.Add(op, "server.advise_op", start, start.Add(rep.Latency), -1)
			c.tr.Add(op, "server.submit", start, submitted, root)
			for _, p := range polls {
				c.tr.Add(op, "server.poll", p[0], p[1], root)
			}
			c.tr.AddStages(op, root, submitted, JobStages(rep.Job.Trace))
		}
	}
	if err != nil {
		finish()
		return rep, err
	}
	switch {
	case status == http.StatusOK && rep.Job.Result != nil:
		rep.Hit = true
		finish()
		return rep, nil
	case status != http.StatusAccepted:
		finish()
		return rep, fmt.Errorf("POST /advise %s: status %d %s", sdl, status, rep.Job.Error)
	}
	id := rep.Job.ID
	for {
		time.Sleep(pollEvery)
		p0 := time.Now()
		var job JSONJob
		status, err := c.do(http.MethodGet, "/jobs/"+id, nil, &job)
		p1 := time.Now()
		rep.PollMS = append(rep.PollMS, float64(p1.Sub(p0).Nanoseconds())/1e6)
		polls = append(polls, [2]time.Time{p0, p1})
		if err != nil || status != http.StatusOK {
			finish()
			return rep, fmt.Errorf("GET /jobs/%s: status %d: %v", id, status, err)
		}
		switch job.State {
		case "queued", "running":
			continue
		case "done":
			rep.Job = job
			finish()
			if job.Result == nil {
				return rep, fmt.Errorf("job %s done without a result", id)
			}
			return rep, nil
		default:
			rep.Job = job
			finish()
			return rep, fmt.Errorf("job %s ended %s: %s", id, job.State, job.Error)
		}
	}
}

// Append posts one batch and returns the round trip.
func (c *Client) Append(op int, body []byte) (time.Duration, error) {
	var reply struct {
		Appended int    `json:"appended"`
		Error    string `json:"error"`
	}
	start := time.Now()
	status, err := c.do(http.MethodPost, "/append", body, &reply)
	end := time.Now()
	if c.tr != nil {
		c.tr.Add(op, "server.append", start, end, -1)
	}
	if err != nil {
		return end.Sub(start), err
	}
	if status != http.StatusOK {
		return end.Sub(start), fmt.Errorf("POST /append: status %d %s", status, reply.Error)
	}
	return end.Sub(start), nil
}
