package main

import (
	"fmt"
	"runtime"
	"time"

	"patty/internal/core"
	"patty/internal/corpus"
	"patty/internal/interp"
	"patty/internal/model"
	"patty/internal/pattern"
	"patty/internal/ptest"
	"patty/internal/sched"
	"patty/internal/source"
)

// verifyOptions are the `patty verify` defaults: preemption bound 2 and
// 5000 schedules per generated unit test.
var verifyOptions = sched.Options{PreemptionBound: 2, MaxSchedules: 5000}

// detection matches the E6 set-up: outermost loops only, like the
// corpus ground truth.
var detection = pattern.Options{SkipNested: true}

// verdict counts one program's detection outcome against its ground
// truth.
type verdict struct{ TP, FP, FN int }

// e6Dynamic and e6Static are the reference: the programs where Patty's
// verdict departs from the hand-written corpus ground truth. Every
// other program must match its ground truth exactly.
//
// Dynamic (sample workloads) totals 16/2/4 TP/FP/FN, as EXPERIMENTS.md
// E6 reports: the FNs are the PLCD early exit (anymatch), the
// single-stage merge (compact), privatization (histogram) and the
// idempotent store (memsetdup); the FPs are the two optimism traps
// (scatter, gatherupdate).
//
// Static-only totals 15/2/5, E6's static ablation (P=0.88, R=0.75).
// Without a profile the two optimism traps keep their possible
// aliasing and are not flagged, raytrace's NormalizeLights keeps a
// static dependence the sample run never shows (one more FN), and two
// loops pass as pipelines (Index.AddAll in indexer, escape in
// mandelbrot) whose profile shows the sequential stages carry all of
// the runtime.
var (
	e6Dynamic = map[string]verdict{
		"anymatch": {FN: 1}, "compact": {FN: 1}, "histogram": {FN: 1}, "memsetdup": {FN: 1},
		"scatter": {FP: 1}, "gatherupdate": {FP: 1},
	}
	e6Static = map[string]verdict{
		"anymatch": {FN: 1}, "compact": {FN: 1}, "histogram": {FN: 1}, "memsetdup": {FN: 1},
		"raytrace": {FN: 1},
		"indexer":  {FP: 1}, "mandelbrot": {FP: 1},
	}
)

// loopRef names one loop as the detector reports it.
type loopRef struct {
	Fn     string
	LoopID int
}

// corpusProgram is one corpus program prepared for a run: its sources,
// its ground-truth loops resolved to statement ids, and the verdict E6
// expects.
type corpusProgram struct {
	name    string
	sources map[string]string
	work    model.Workload
	truth   map[loopRef]bool
	expect  verdict
}

// loadCorpus is the corpus workloads' set-up: build every program from
// the seeded generators, parse it and resolve its ground truth.
func loadCorpus(seed int64, dynamic bool) ([]corpusProgram, error) {
	corpus.SetBaseSeed(seed)
	dev := e6Static
	if dynamic {
		dev = e6Dynamic
	}
	var out []corpusProgram
	for _, p := range corpus.All() {
		prog, err := p.Load()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.Name, err)
		}
		truth := make(map[loopRef]bool)
		for _, t := range p.Truth {
			fn := prog.Func(t.Fn)
			if fn == nil || t.LoopIdx >= len(fn.Loops()) {
				return nil, fmt.Errorf("%s: ground truth names a missing loop %s#%d", p.Name, t.Fn, t.LoopIdx)
			}
			truth[loopRef{t.Fn, fn.StmtID(fn.Loops()[t.LoopIdx])}] = true
		}
		d := dev[p.Name]
		out = append(out, corpusProgram{
			name:    p.Name,
			sources: map[string]string{p.Name + ".go": p.Source},
			work:    p.Workload(),
			truth:   truth,
			expect:  verdict{TP: len(truth) - d.FN, FP: d.FP, FN: d.FN},
		})
	}
	return out, nil
}

// corpusRun is one corpus workload: operation mode 1 over every
// program, optionally with sample workloads (dynamic) and followed by
// mode 4 validation (validate).
type corpusRun struct {
	seed     int64
	dynamic  bool
	validate bool
	probe    *hostProbe
}

// setupsPerPass is how often the corpus is set up before each pass.
// The set-ups are spread over the run because the host's speed shifts
// every few hundred milliseconds, far more than one ~2 ms set-up lasts;
// setup_s is the median CPU time of all of them.
const setupsPerPass = 20

// layerCounts are the per-layer counts of one traced pass.
type layerCounts struct {
	ticks, loopsProfiled, candidates, outputs, tests, schedules, truncated int
}

func (c *layerCounts) add(o layerCounts) {
	c.ticks += o.ticks
	c.loopsProfiled += o.loopsProfiled
	c.candidates += o.candidates
	c.outputs += o.outputs
	c.tests += o.tests
	c.schedules += o.schedules
	c.truncated += o.truncated
}

// runProgram processes one program and checks its output. It returns
// the failure class ("" when the answer is right) and, when rec is
// non-nil, records a span per layer under trace id.
func (r corpusRun) runProgram(cp corpusProgram, rec *Recorder, id string) (string, layerCounts) {
	var lc layerCounts
	opt := core.Options{Detection: detection}
	if r.dynamic && rec == nil {
		opt.Workload = &cp.work
	}
	p := core.NewProcess(cp.sources, opt)
	root := rec.Start(id, "program", 0)
	defer rec.End(root)

	var arts *core.Artifacts
	var err error
	if rec == nil {
		arts, err = p.Run()
	} else {
		arts, err = r.tracedRun(p, cp, rec, id, root, &lc)
	}
	if err != nil {
		return "run_error", lc
	}
	lc.candidates = len(arts.Report.Candidates)
	lc.outputs = len(arts.Outputs)
	lc.tests = len(arts.UnitTests)
	class := ""
	if verdictOf(arts.Report, cp.truth) != cp.expect {
		class = "detection"
	}
	if !r.validate {
		return class, lc
	}

	var results []core.ValidationResult
	rec.Do(id, "sched.explore", root, func() { results, err = p.Validate(verifyOptions) })
	if err != nil {
		return "validate_error", lc
	}
	for i, res := range results {
		lc.schedules += res.Result.Schedules
		if res.Result.Truncated {
			lc.truncated++
		}
		c := arts.Report.Candidates[i]
		if cp.truth[loopRef{c.Fn, c.LoopID}] && res.Result.Buggy() {
			class = "bug_at_positive"
		}
	}
	return class, lc
}

// tracedRun drives the process phase by phase, with a span around each
// call. Layers that a phase calls internally are timed by an extra call
// to the layer's own function (source.parse, model.build, interp.run,
// ptest.generate); that extra work is part of the tracing overhead.
func (r corpusRun) tracedRun(p *core.Process, cp corpusProgram, rec *Recorder, id string, root int, lc *layerCounts) (*core.Artifacts, error) {
	var prog *source.Program
	var err error
	rec.Do(id, "source.parse", root, func() { prog, err = source.ParseSources(cp.sources) })
	if err != nil {
		return nil, err
	}
	rec.Do(id, "model.build", root, func() { model.Build(prog) })
	rec.Do(id, "core.create_model", root, func() { err = p.CreateModel() })
	if err != nil {
		return nil, err
	}
	if r.dynamic {
		m := p.Artifacts().Model
		rec.Do(id, "model.enrich", root, func() { err = m.EnrichDynamic(cp.work) })
		if err != nil {
			return nil, err
		}
		for _, lm := range m.AllLoops() {
			if lm.Dynamic != nil {
				lc.loopsProfiled++
			}
		}
		var prof *interp.Profile
		rec.Do(id, "interp.run", root, func() {
			im := interp.NewMachine(m.Prog)
			if cp.work.Configure != nil {
				cp.work.Configure(im)
			}
			_, prof, err = im.Run(cp.work.Entry, cp.work.Args(im), interp.Options{MaxTicks: cp.work.MaxTicks})
		})
		if err != nil {
			return nil, err
		}
		lc.ticks = int(prof.Total)
	}
	rec.Do(id, "pattern.detect", root, func() { err = p.AnalyzePatterns() })
	if err != nil {
		return nil, err
	}
	rec.Do(id, "tadl.annotate", root, func() { err = p.DeriveArchitecture() })
	if err != nil {
		return nil, err
	}
	rec.Do(id, "core.transform", root, func() { err = p.TransformCode() })
	if err != nil {
		return nil, err
	}
	arts := p.Artifacts()
	rec.Do(id, "ptest.generate", root, func() { _, err = ptest.GenerateAll(arts.Model, arts.Report, ptest.Options{}) })
	return arts, err
}

// verdictOf scores a detection report against the ground truth.
func verdictOf(rep *pattern.Report, truth map[loopRef]bool) verdict {
	var v verdict
	seen := make(map[loopRef]bool)
	for _, c := range rep.Candidates {
		l := loopRef{c.Fn, c.LoopID}
		if seen[l] {
			continue
		}
		seen[l] = true
		if truth[l] {
			v.TP++
		} else {
			v.FP++
		}
	}
	v.FN = len(truth) - v.TP
	return v
}

// passResult is one pass over the whole corpus.
type passResult struct {
	latencies [][]float64 // CPU ms per program, in corpus order: every run of it
	failures  map[string]int
	counts    layerCounts
	busy      time.Duration // wall time: sum of each program's first run
	cpu       time.Duration // CPU time: sum of each program's first run
	setups    []float64     // CPU seconds of each set-up before the pass
	scale     float64       // the host probe's scale over the pass
}

// minProgramTime is how long an untraced pass keeps re-running a short
// program, so that a program of a few milliseconds contributes enough
// samples for its median to settle.
const minProgramTime = 10 * time.Millisecond

// pass processes every program once, and re-runs a short program until
// it has run for minProgramTime (untraced passes only). Each run starts
// on a collected heap, so its cost does not include the previous run's
// garbage, and the host probe runs between the collection and the run.
// A program fails the pass when any of its runs fails.
func (r corpusRun) pass(n int, progs []corpusProgram, rec *Recorder) passResult {
	pr := passResult{failures: make(map[string]int)}
	first := len(r.probe.samples)
	for _, cp := range progs {
		var samples []float64
		var spent time.Duration
		failed := ""
		for len(samples) == 0 || (rec == nil && spent < minProgramTime) {
			var class string
			var lc layerCounts
			var d time.Duration
			runtime.GC()
			r.probe.sample()
			c := cpuTimed(func() {
				d = timed(func() { class, lc = r.runProgram(cp, rec, fmt.Sprintf("pass%d/%s", n, cp.name)) })
			})
			if len(samples) == 0 {
				pr.busy += d
				pr.cpu += c
				pr.counts.add(lc)
			}
			if class != "" && failed == "" {
				failed = class
			}
			samples = append(samples, ms(c))
			spent += d
		}
		pr.latencies = append(pr.latencies, samples)
		if failed != "" {
			pr.failures[failed]++
		}
	}
	pr.scale = probeScale(r.probe.samples[first:])
	return pr
}

// measure sets up and runs whole passes until at least window has
// elapsed.
func (r corpusRun) measure(window time.Duration, rec *Recorder) ([]passResult, error) {
	var passes []passResult
	t0 := time.Now()
	for n := 0; n == 0 || time.Since(t0) < window; n++ {
		var progs []corpusProgram
		var setups []float64
		for k := 0; k < setupsPerPass; k++ {
			var err error
			d := cpuTimed(func() { progs, err = loadCorpus(r.seed, r.dynamic) })
			if err != nil {
				return nil, err
			}
			setups = append(setups, d.Seconds())
		}
		p := r.pass(n, progs, rec)
		p.setups = setups
		passes = append(passes, p)
	}
	return passes, nil
}
