package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"time"
)

// serveRounds is how many fresh servers one serve-jobs run sets up.
// Each answers the warm-up originals (its set-up) and then a tenth of
// the job list, so the set-ups spread over the run. The end-to-end
// figures are medians over rounds: a disturbance of the shared host
// that spans a round or two moves them little.
const serveRounds = 10

// serveRun is the serve-jobs workload over one fixed job list.
type serveRun struct {
	patty string // path of the patty binary
	out   string // parent of the per-run state directories
	list  jobList
}

// serveRound is one server's life: set-up, then its share of the list.
type serveRound struct {
	setup     time.Duration // server CPU time by the end of the warm-up
	setupWall time.Duration
	originals []outcome     // warm-up answers
	outcomes  []outcome     // timed jobs, in list order
	cpu       time.Duration // server CPU time over the timed jobs
	elapsed   time.Duration
	rssMB     float64
	scale     float64 // the host probe's scale over the round
}

// serveWindow is what one run observed.
type serveWindow struct {
	rounds     []serveRound
	outcomes   []outcome // every round's timed jobs, in list order
	elapsed    time.Duration
	cache      map[string]int64 // counter deltas over the timed jobs, summed
	cacheBytes int64            // summed over the rounds' servers
	storeBytes int64
	ckptBytes  int64
	ckptFiles  int
}

// measure runs serveRounds rounds. rec, when non-nil, traces the timed
// jobs.
func (r serveRun) measure(rec *Recorder) (serveWindow, error) {
	w := serveWindow{cache: make(map[string]int64)}
	n := len(r.list.Jobs)
	for k := 0; k < serveRounds; k++ {
		rd, err := r.round(r.list.Jobs[k*n/serveRounds:(k+1)*n/serveRounds], fmt.Sprintf("r%d/", k), rec, &w)
		if err != nil {
			return w, err
		}
		w.rounds = append(w.rounds, rd)
		w.outcomes = append(w.outcomes, rd.outcomes...)
		w.elapsed += rd.elapsed
	}
	return w, nil
}

// round starts a server on empty directories, answers the warm-up
// originals with it, then sends jobs from one closed-loop client. A
// set-up costs the CPU time the server has used by the end of its
// warm-up; a timed job, the server CPU time from its POST until its
// result is fetched.
func (r serveRun) round(jobs []job, prefix string, rec *Recorder, w *serveWindow) (serveRound, error) {
	var rd serveRound
	dir, err := os.MkdirTemp(r.out, "serve-")
	if err != nil {
		return rd, err
	}
	defer os.RemoveAll(dir)
	t0 := time.Now()
	srv, err := startServer(r.patty, dir)
	if err != nil {
		return rd, err
	}
	defer srv.stop()
	c := newClient(srv.base, nil)
	probe := &hostProbe{}
	rd.originals = runAll(c, r.list.Originals, prefix+"warmup", probe, nil)
	rd.setupWall = time.Since(t0)
	rd.setup = srv.cpu()

	before, _, err := c.metricz()
	if err != nil {
		return rd, err
	}
	c.rec = rec
	t0, cpu0 := time.Now(), srv.cpu()
	rd.outcomes = runAll(c, jobs, prefix+"job", probe, srv.cpu)
	rd.elapsed = time.Since(t0)
	rd.cpu = srv.cpu() - cpu0
	rd.rssMB = srv.peakRSSMB()
	rd.scale = probeScale(probe.samples)
	after, gauges, err := c.metricz()
	if err != nil {
		return rd, err
	}
	for _, k := range []string{"cache.hits", "cache.misses", "cache.inserts"} {
		w.cache[k] += after[k] - before[k]
	}
	w.cacheBytes += gauges["cache.bytes"]
	size, _ := dirStats(filepath.Join(dir, "store"))
	w.storeBytes += size
	size, files := dirStats(filepath.Join(dir, "ckpt"))
	w.ckptBytes += size
	w.ckptFiles += files
	return rd, nil
}

// tuneAnswer is the part of a tune result the reference decides.
type tuneAnswer struct {
	Best        map[string]int `json:"best"`
	Cost        float64        `json:"cost"`
	Evaluations int            `json:"evaluations"`
	Resumed     int            `json:"resumed"`
}

func (a tuneAnswer) same(b tuneAnswer) bool {
	if fmt.Sprintf("%.0f", a.Cost) != fmt.Sprintf("%.0f", b.Cost) || a.Evaluations != b.Evaluations || len(a.Best) != len(b.Best) {
		return false
	}
	for k, v := range a.Best {
		if bv, ok := b.Best[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

var tuneLine = regexp.MustCompile(`^algorithm \S+: best map\[(.*)\], cost (\S+) after (\d+) evaluations$`)

// parseTuneOutput reads the answer line of `patty tune`.
func parseTuneOutput(out string) (tuneAnswer, error) {
	line, _, _ := strings.Cut(out, "\n")
	m := tuneLine.FindStringSubmatch(strings.TrimSpace(line))
	if m == nil {
		return tuneAnswer{}, fmt.Errorf("unexpected patty tune output %q", line)
	}
	a := tuneAnswer{Best: make(map[string]int)}
	for _, kv := range strings.Fields(m[1]) {
		k, v, ok := strings.Cut(kv, ":")
		n, err := strconv.Atoi(v)
		if !ok || err != nil {
			return tuneAnswer{}, fmt.Errorf("bad best entry %q", kv)
		}
		a.Best[k] = n
	}
	var err error
	if a.Cost, err = strconv.ParseFloat(m[2], 64); err != nil {
		return tuneAnswer{}, err
	}
	a.Evaluations, _ = strconv.Atoi(m[3])
	return a, nil
}

// referenceTune runs a fresh `patty tune` for every distinct spec, with
// no cache and no checkpoint, two processes at a time.
func referenceTune(patty string, specs []jobBody) map[string]tuneAnswer {
	ref := make(map[string]tuneAnswer)
	var mu sync.Mutex
	todo := make(chan jobBody)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range todo {
				out, err := exec.Command(patty, "tune", "-algo", b.Algo,
					"-budget", strconv.Itoa(b.Budget), "-cores", strconv.Itoa(b.Cores),
					"-fault-rate", strconv.Itoa(b.FaultRate),
					"-fault-seed", strconv.FormatInt(b.FaultSeed, 10)).Output()
				if err != nil {
					continue // no reference: the served answer cannot match
				}
				a, err := parseTuneOutput(string(out))
				if err != nil {
					continue
				}
				mu.Lock()
				ref[b.tuneKey()] = a
				mu.Unlock()
			}
		}()
	}
	seen := make(map[string]bool)
	for _, b := range specs {
		if !seen[b.tuneKey()] {
			seen[b.tuneKey()] = true
			todo <- b
		}
	}
	close(todo)
	wg.Wait()
	return ref
}

// serveCheck is the output check of one window.
type serveCheck struct {
	// failures counts failed jobs by class and reason.
	failures map[string]map[string]int
	failed   []bool // per timed job, in list order
	// originalsWrong counts warm-up answers, over all rounds, that
	// differ from their reference.
	originalsWrong int
	resumed        int // tune evaluations replayed from a checkpoint
	evaluations    int
}

// check verifies every answer of the run, outside the timed part:
// tune answers against a fresh `patty tune` of the same spec, dups
// byte for byte against their round's original (which must itself be
// right), fuzz batches for zero divergences.
func (r serveRun) check(w serveWindow) serveCheck {
	var specs []jobBody
	for _, j := range r.list.Originals {
		specs = append(specs, j.Body)
	}
	for _, j := range r.list.Jobs {
		if j.Class == classTune {
			specs = append(specs, j.Body)
		}
	}
	ref := referenceTune(r.patty, specs)

	rightTune := func(o outcome) (string, tuneAnswer) {
		var a tuneAnswer
		if o.err != nil {
			return "error", a
		}
		if err := json.Unmarshal(o.result, &a); err != nil {
			return "bad_result", a
		}
		want, ok := ref[o.job.Body.tuneKey()]
		if !ok {
			return "no_reference", a
		}
		if !want.same(a) {
			return "wrong_answer", a
		}
		return "", a
	}
	sc := serveCheck{failures: make(map[string]map[string]int)}
	for _, rd := range w.rounds {
		origOK := make([]bool, len(rd.originals))
		for i, o := range rd.originals {
			why, _ := rightTune(o)
			origOK[i] = why == ""
			if !origOK[i] {
				sc.originalsWrong++
			}
		}
		for _, o := range rd.outcomes {
			var why string
			switch o.job.Class {
			case classTune:
				var a tuneAnswer
				why, a = rightTune(o)
				sc.resumed += a.Resumed
				sc.evaluations += a.Evaluations
			case classDup:
				orig := rd.originals[o.job.Orig]
				switch {
				case o.err != nil:
					why = "error"
				case orig.err != nil || !bytes.Equal(o.result, orig.result):
					why = "differs_from_original"
				case !origOK[o.job.Orig]:
					why = "wrong_answer"
				}
			case classFuzz:
				var res struct {
					Programs    int `json:"programs"`
					Divergences int `json:"divergences"`
				}
				switch {
				case o.err != nil:
					why = "error"
				case json.Unmarshal(o.result, &res) != nil:
					why = "bad_result"
				case res.Divergences != 0 || res.Programs != o.job.Body.N:
					why = "divergence"
				}
			}
			sc.failed = append(sc.failed, why != "")
			if why != "" {
				if sc.failures[o.job.Class] == nil {
					sc.failures[o.job.Class] = make(map[string]int)
				}
				sc.failures[o.job.Class][why]++
			}
		}
	}
	return sc
}
