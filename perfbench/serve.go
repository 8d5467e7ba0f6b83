package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// server is one `patty serve` subprocess with its own state
// directories.
type server struct {
	cmd  *exec.Cmd
	base string
	dir  string
	done chan struct{} // closed once the process has been waited for
}

// startServer launches `patty serve` with a durable store, an
// evaluation cache and a checkpoint directory under dir, and returns
// once it prints its listening banner.
func startServer(patty, dir string) (*server, error) {
	cmd := exec.Command(patty, "serve", "-addr", "127.0.0.1:0", "-workers", "2",
		"-store-dir", filepath.Join(dir, "store"),
		"-cache-dir", filepath.Join(dir, "cache"),
		"-checkpoint-dir", filepath.Join(dir, "ckpt"))
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, dir: dir, done: make(chan struct{})}
	banner := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if addr, ok := strings.CutPrefix(sc.Text(), "patty serve: listening on "); ok {
				select {
				case banner <- addr:
				default:
				}
			}
		}
		io.Copy(io.Discard, out)
		cmd.Wait()
		close(s.done)
	}()
	select {
	case s.base = <-banner:
		return s, nil
	case <-s.done:
		return nil, fmt.Errorf("patty serve exited before listening")
	case <-time.After(30 * time.Second):
		s.kill()
		return nil, fmt.Errorf("patty serve did not listen within 30s")
	}
}

// peakRSSMB reads the server's high-water resident set size.
func (s *server) peakRSSMB() float64 { return peakRSSMB(s.cmd.Process.Pid) }

// cpu is the CPU time the server has used since it started.
func (s *server) cpu() time.Duration { return procCPU(s.cmd.Process.Pid) }

// stop drains the server with SIGTERM and waits for it to exit,
// killing it if the drain hangs.
func (s *server) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(20 * time.Second):
		s.kill()
	}
}

func (s *server) kill() {
	s.cmd.Process.Kill()
	<-s.done
}

// procCPU is the CPU time process pid has used so far: the sum of its
// threads' run times from /proc/<pid>/task/*/schedstat, in nanoseconds
// and, like cpuTime, without steal. A Go program keeps its threads, so
// no thread's time drops out of the sum.
func procCPU(pid int) time.Duration {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var total int64
	for _, t := range tasks {
		b, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if err != nil {
			continue
		}
		var ns int64
		fmt.Sscan(string(b), &ns)
		total += ns
	}
	return time.Duration(total)
}

// peakRSSMB reads VmHWM of a process from /proc (0 where unavailable).
func peakRSSMB(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(rest), "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}

// jobInfo is the part of jobs.Info the benchmark reads.
type jobInfo struct {
	Status    string    `json:"status"`
	Error     string    `json:"error"`
	Submitted time.Time `json:"submitted"`
	Started   time.Time `json:"started"`
	Finished  time.Time `json:"finished"`
}

// outcome is what one submitted job came back with.
type outcome struct {
	job     job
	latency time.Duration // POST sent → result fetched
	cpu     time.Duration // server CPU time charged to the job
	submit  time.Duration // POST sent → 202 received
	info    jobInfo
	result  json.RawMessage
	err     error
}

// client submits jobs and waits for their results.
type client struct {
	http *http.Client
	base string
	rec  *Recorder
}

func newClient(base string, rec *Recorder) *client {
	return &client{
		http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}, Timeout: 60 * time.Second},
		base: base, rec: rec,
	}
}

// run submits j and fetches its result: POST /jobs, GET
// /jobs/{id}?wait=1, GET /jobs/{id}/result.
func (c *client) run(j job, trace string) outcome {
	o := outcome{job: j}
	body, err := json.Marshal(j.Body)
	if err != nil {
		o.err = err
		return o
	}
	root := c.rec.Start(trace, "job", 0)
	defer c.rec.End(root)
	t0 := time.Now()

	var sub struct {
		ID string `json:"id"`
	}
	sp := c.rec.Start(trace, "serve.submit", root)
	o.err = c.call("POST", "/jobs", j.Tenant, body, http.StatusAccepted, &sub)
	c.rec.End(sp)
	o.submit = time.Since(t0)
	if o.err != nil {
		return o
	}
	sp = c.rec.Start(trace, "jobs.wait", root)
	o.err = c.call("GET", "/jobs/"+sub.ID+"?wait=1", "", nil, http.StatusOK, &o.info)
	c.rec.End(sp)
	if o.err != nil {
		return o
	}
	c.rec.Add(trace, "jobs.queue_wait", sp, o.info.Submitted, o.info.Started)
	c.rec.Add(trace, "jobs.run", sp, o.info.Started, o.info.Finished)
	if o.info.Status != "done" {
		o.latency = time.Since(t0)
		o.err = fmt.Errorf("job %s %s: %s", sub.ID, o.info.Status, o.info.Error)
		return o
	}
	var res struct {
		Result json.RawMessage `json:"result"`
	}
	c.rec.Do(trace, "serve.result", root, func() {
		o.err = c.call("GET", "/jobs/"+sub.ID+"/result", "", nil, http.StatusOK, &res)
	})
	o.latency = time.Since(t0)
	o.result = res.Result
	return o
}

// call performs one request and decodes a JSON answer with the wanted
// status code.
func (c *client) call(method, path, tenant string, body []byte, want int, v any) error {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: %d %s", method, path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return json.Unmarshal(b, v)
}

// runAll sends jobs from one closed-loop client: the next job goes out
// as soon as the previous result has been fetched. The host probe runs
// before each job. With cpu set, each job is charged the server CPU
// time from its POST until its result is fetched.
func runAll(c *client, jobs []job, prefix string, probe *hostProbe, cpu func() time.Duration) []outcome {
	out := make([]outcome, len(jobs))
	for i, j := range jobs {
		probe.sample()
		var c0 time.Duration
		if cpu != nil {
			c0 = cpu()
		}
		out[i] = c.run(j, fmt.Sprintf("%s%d/%s", prefix, i, j.Class))
		if cpu != nil {
			out[i].cpu = cpu() - c0
		}
	}
	return out
}

// metricz fetches the server's counters and gauges.
func (c *client) metricz() (map[string]int64, map[string]int64, error) {
	var snap struct {
		Counters map[string]int64 `json:"counters"`
		Gauges   map[string]int64 `json:"gauges"`
	}
	err := c.call("GET", "/metricz", "", nil, http.StatusOK, &snap)
	return snap.Counters, snap.Gauges, err
}

// dirStats sums the sizes and counts the regular files under dir.
func dirStats(dir string) (size int64, files int) {
	filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if fi, err := d.Info(); err == nil {
			size += fi.Size()
			files++
		}
		return nil
	})
	return size, files
}
